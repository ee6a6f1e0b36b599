//go:build !linux || arm

package store

// Writeback implements VFile. Where the syscall package offers no
// sync_file_range(2), the hint does nothing; Sync still writes the data.
func (o osFile) Writeback(off, n int64) error { return nil }
