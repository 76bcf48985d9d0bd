//go:build !unix

package archive

import "os"

// lockStore takes no lock where flock is unavailable: one writer per store
// is then the caller's to keep.
func lockStore(dir string) (*os.File, error) { return nil, nil }
