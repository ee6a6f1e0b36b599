package store

import (
	"fmt"
	"path/filepath"
	"sync"
)

// CrashFS is an in-memory VFS for crash-recovery testing, the byte-level
// sibling of FaultDisk. Every file keeps two images:
//
//   - volatile: what the running process observes (all completed writes);
//   - durable: what survives a power cut (the content as of the last Sync).
//
// A configured fault point (SetFailAfter) kills the "process" mid-operation:
// the fatal write applies only a prefix of its bytes — a torn write — and
// every subsequent operation fails with ErrInjected, exactly as if the
// machine lost power. Reboot then reconstructs the post-crash disk, either
// pessimistically (only durable bytes survive) or optimistically (unsynced
// writes survived the cut too, including the torn one); a correct recovery
// protocol must handle both, because a real crash lands anywhere in
// between.
//
// Rename is modeled as atomic and immediately durable (journaled-filesystem
// semantics); file contents still require Sync, so the standard
// write-temp → sync → rename pattern is exactly as safe as on a real disk,
// and a crash before the rename leaves the old file.
//
// Faultable operations — counted by Ops and eligible as fault points — are
// WriteAt, Sync, Truncate, and Rename. Reads never fault (a dead process
// does not read; post-crash reads happen after Reboot).
type CrashFS struct {
	mu    sync.Mutex
	files map[string]*crashNode
	// durable holds each file's last-synced image, keyed by current name.
	durable map[string][]byte

	ops       int  // faultable operations performed
	failAfter int  // fault on the (failAfter+1)-th operation; <0 = disabled
	dead      bool // the simulated process has crashed
}

// crashNode is one file's volatile image. Open handles reference the node,
// so a handle follows its file across Rename like an OS file descriptor.
type crashNode struct {
	name string
	data []byte
}

// NewCrashFS returns an empty filesystem with fault injection disabled.
func NewCrashFS() *CrashFS {
	return &CrashFS{
		files:     make(map[string]*crashNode),
		durable:   make(map[string][]byte),
		failAfter: -1,
	}
}

// SetFailAfter arms the fault point: the next n faultable operations
// succeed and the (n+1)-th tears/fails, killing the filesystem. n < 0
// disarms. The operation counter is not reset — use Ops to coordinate.
func (c *CrashFS) SetFailAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		c.failAfter = -1
		return
	}
	c.failAfter = c.ops + n
}

// Ops returns the number of faultable operations performed so far.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Dead reports whether the simulated process has crashed (fault point hit
// or CutPower called).
func (c *CrashFS) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// CutPower kills the filesystem immediately: every subsequent operation
// fails with ErrInjected until Reboot.
func (c *CrashFS) CutPower() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
}

// Reboot models the machine coming back up: the filesystem becomes usable
// again with fault injection disarmed. With keepUnsynced=false only durable
// (synced) content survives — the pessimistic crash. With keepUnsynced=true
// every completed (and the torn) write survives — the optimistic crash. Any
// real power cut yields a disk between the two, so recovery code must
// tolerate both. Open handles from before the reboot are dead; reopen files
// through the rebooted filesystem.
func (c *CrashFS) Reboot(keepUnsynced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !keepUnsynced {
		files := make(map[string]*crashNode, len(c.durable))
		for name, data := range c.durable {
			files[name] = &crashNode{name: name, data: append([]byte(nil), data...)}
		}
		c.files = files
	} else {
		// Keep volatile content, but drop any stale handle aliasing by
		// re-keying nodes under their current names only.
		for name, n := range c.files {
			n.name = name
		}
	}
	c.dead = false
	c.failAfter = -1
}

// tick accounts one faultable operation. It returns (tear, err): err is
// non-nil when the filesystem is already dead or this operation faults;
// tear is true when this operation is the fault point itself (the caller
// applies a torn prefix before dying).
func (c *CrashFS) tick() (bool, error) {
	if c.dead {
		return false, ErrInjected
	}
	c.ops++
	if c.failAfter >= 0 && c.ops > c.failAfter {
		c.dead = true
		return true, ErrInjected
	}
	return false, nil
}

// OpenFile implements VFS.
func (c *CrashFS) OpenFile(name string) (VFile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, ErrInjected
	}
	n, ok := c.files[name]
	if !ok {
		n = &crashNode{name: name}
		c.files[name] = n
	}
	return &crashFile{fs: c, node: n}, nil
}

// ReadFile implements VFS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, ErrInjected
	}
	n, ok := c.files[name]
	if !ok {
		return nil, notExistError(name)
	}
	return append([]byte(nil), n.data...), nil
}

// Rename implements VFS (atomic, immediately durable — see type comment).
func (c *CrashFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.tick(); err != nil {
		return err
	}
	n, ok := c.files[oldname]
	if !ok {
		return notExistError(oldname)
	}
	delete(c.files, oldname)
	n.name = newname
	c.files[newname] = n
	if d, ok := c.durable[oldname]; ok {
		delete(c.durable, oldname)
		c.durable[newname] = d
	} else {
		delete(c.durable, newname)
	}
	return nil
}

// Remove implements VFS.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return ErrInjected
	}
	if _, ok := c.files[name]; !ok {
		return notExistError(name)
	}
	delete(c.files, name)
	delete(c.durable, name)
	return nil
}

// ListDir implements VFS. CrashFS namespaces are flat; a file belongs to
// dir when filepath.Dir of its name equals dir (so relative names like
// "db.idx" live in ".").
func (c *CrashFS) ListDir(dir string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, ErrInjected
	}
	var names []string
	for name := range c.files {
		if filepath.Dir(name) == dir {
			names = append(names, name)
		}
	}
	return names, nil
}

// Exists implements VFS.
func (c *CrashFS) Exists(name string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, ErrInjected
	}
	_, ok := c.files[name]
	return ok, nil
}

// crashFile is an open handle on a CrashFS file.
type crashFile struct {
	fs   *CrashFS
	node *crashNode
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.dead {
		return 0, ErrInjected
	}
	data := f.node.data
	if off >= int64(len(data)) {
		return 0, fmt.Errorf("store: read at %d past end of %s (%d bytes)", off, f.node.name, len(data))
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, fmt.Errorf("store: short read of %s at %d", f.node.name, off)
	}
	return n, nil
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	tear, err := f.fs.tick()
	n := len(p)
	if err != nil {
		if !tear {
			return 0, err
		}
		// The fatal write: only a prefix reaches the (volatile) file.
		n = len(p) / 2
	}
	if grow := off + int64(n) - int64(len(f.node.data)); grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
	}
	copy(f.node.data[off:], p[:n])
	if err != nil {
		return n, err
	}
	return n, nil
}

func (f *crashFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.dead {
		return 0, ErrInjected
	}
	return int64(len(f.node.data)), nil
}

func (f *crashFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.tick(); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("store: truncate %s to negative size", f.node.name)
	}
	if size <= int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	} else {
		f.node.data = append(f.node.data, make([]byte, size-int64(len(f.node.data)))...)
	}
	return nil
}

func (f *crashFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if _, err := f.fs.tick(); err != nil {
		return err
	}
	f.fs.durable[f.node.name] = append([]byte(nil), f.node.data...)
	return nil
}

// Writeback is a no-op: CrashFS models only what Sync makes durable, so a
// power cut after the hint loses the unsynced bytes like any other.
func (f *crashFile) Writeback(off, n int64) error { return nil }

func (f *crashFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.dead {
		return ErrInjected
	}
	return nil
}
