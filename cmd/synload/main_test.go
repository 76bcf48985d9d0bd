package main

import (
	"context"
	"os"
	"testing"

	"github.com/synscan/synscan/internal/loadgen"
)

// TestSelfServeSmoke drives the standard mix against the in-process server
// synload starts for itself: nothing fails at the transport or 5xx level,
// every mix entry runs, and canceling the context drains Serve cleanly and
// removes the fixture's temp dir.
func TestSelfServeSmoke(t *testing.T) {
	tmpRoot := t.TempDir()
	t.Setenv("TMPDIR", tmpRoot)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, stop, err := selfServe(ctx, "", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(tmpRoot); len(ents) != 1 {
		t.Fatalf("fixture temp dir not under TMPDIR: %d entries", len(ents))
	}

	mix := loadgen.StandardMix()
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: base, Clients: 8, Requests: 8 * 400, Mix: mix, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 8*400 || res.Errors != 0 {
		t.Fatalf("%d requests, %d transport/5xx errors (status %v); want %d and 0",
			res.Requests, res.Errors, res.Status, 8*400)
	}
	if res.Status[200]+res.Rejected != res.Requests {
		t.Fatalf("status %v: a mix entry is answered with neither 200 nor 429", res.Status)
	}
	for _, m := range mix {
		if res.ByName[m.Name] == 0 {
			t.Errorf("mix entry %q never ran", m.Name)
		}
	}

	cancel()
	if err := stop(); err != nil {
		t.Fatalf("Serve after cancel: %v, want nil", err)
	}
	if ents, _ := os.ReadDir(tmpRoot); len(ents) != 0 {
		t.Fatalf("temp dir survived shutdown: %v", ents)
	}
}
