package synscan

import (
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"testing"
)

// TestExamplesReproduce builds each runnable example and pins the SHA-256 of
// its stdout: the examples are deterministic, so any change to what they
// print, or to the results they print, shows here. Run with -short to skip
// (it shells out to the Go toolchain).
func TestExamplesReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping example builds")
	}
	t.Parallel()
	want := map[string]string{
		"quickstart":   "cb6363e4c6304622e990bf73fc42eda63015882b80991b7dc9bcd6d8902309cc",
		"vulnresponse": "a67d691eed1fc50f37d7f8faaec19690ca478fc4a43930cfd3f39e78d353d1d7",
		"volatility":   "2932335c2412df0e080a70ec91bbb0096196eaca7c7762799fa0eed3d5e5b3c3",
		"blocklist":    "a98dfb31553dd6696df752183ba4c7714f6e3f14834afeee726e9be832322db2",
		"sharding":     "ecb976b2ee901fe0c90b0cea391b010eee8250d7b1938bb0a497ae2a7fc9f809",
		"fingerprints": "0edf052901910f9fb46754f21b5f489bf392e5ca3d68e530e3382598ee3b3960",
	}
	dir := t.TempDir()
	for name, sum := range want {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(buildMain(t, dir, "./examples/"+name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := sha256.Sum256(out); hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s stdout changed: sha256 %x, want %s\n%s", name, got, sum, out)
			}
		})
	}
}
