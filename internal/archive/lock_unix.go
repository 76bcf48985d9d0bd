//go:build unix

package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockStore takes the store's writer lock: an exclusive flock on dir/LOCK,
// without waiting. The kernel drops it when the returned file is closed or
// the process dies, so a crashed writer leaves no stale lock behind.
func lockStore(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, LockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrStoreLocked, dir)
		}
		return nil, fmt.Errorf("archive: lock %s: %w", dir, err)
	}
	return f, nil
}
