//go:build linux && !arm

package store

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writing the range's
// dirty pages and wait for none of them.
const syncFileRangeWrite = 0x2

// Writeback implements VFile with sync_file_range(2).
func (o osFile) Writeback(off, n int64) error {
	return syscall.SyncFileRange(int(o.f.Fd()), off, n, syncFileRangeWrite)
}
