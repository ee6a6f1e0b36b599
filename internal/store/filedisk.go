package store

import (
	"fmt"
	"sort"
	"sync"
)

// FileDisk is a DiskManager backed by a regular file (through a VFS, so
// crash tests can substitute CrashFS), for indexes that persist across
// processes. Page id N lives at byte offset (N-1)*PageSize.
//
// The allocator state — the high-water mark and the free list — is held in
// memory; the owner persists it in its checkpoint metadata and restores it
// with Reconcile after reopening, so pages freed before a checkpoint are
// reusable after a restart instead of leaking. Until Reconcile runs an
// existing file is treated conservatively as fully allocated up to its
// length.
//
// FileDisk guards its own state with an internal mutex, so the owner may
// call it from several goroutines — the buffer pool serializing most
// access, plus a checkpoint build phase reading allocator state and
// syncing the file without holding the pool's lock.
type FileDisk struct {
	mu    sync.Mutex
	f     VFile
	next  PageID
	free  []PageID
	alive map[PageID]bool
	stats DiskStats

	// Deferred reclamation (checkpoint builds). While deferFrees is set,
	// Free parks ids in pending instead of the free list: a page freed
	// while a checkpoint image is being built must not be reallocated —
	// and overwritten — before that checkpoint's commit point, because the
	// *previous* checkpoint may still reference it as live. FlushPending
	// moves the parked ids to the free list once the new commit point is
	// durable.
	deferFrees bool
	pending    []PageID
}

// OpenFileDisk opens (creating if necessary) a file-backed disk at path on
// the operating system's filesystem.
func OpenFileDisk(path string) (*FileDisk, error) {
	return OpenFileDiskOn(OSFS{}, path)
}

// OpenFileDiskOn opens (creating if necessary) a file-backed disk at path
// on fs. An existing file is treated as fully allocated up to its length;
// call Reconcile to restore checkpointed allocator state.
func OpenFileDiskOn(fs VFS, path string) (*FileDisk, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: open file disk: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat file disk: %w", err)
	}
	pages := PageID(size / PageSize)
	fd := &FileDisk{f: f, next: pages + 1, alive: make(map[PageID]bool)}
	for id := PageID(1); id <= pages; id++ {
		fd.alive[id] = true
	}
	fd.stats.PagesAlive = uint64(pages)
	return fd, nil
}

// Reconcile restores checkpointed allocator state: the disk holds numPages
// pages of which free are unallocated. The backing file must cover all
// numPages (a shorter file means the checkpoint references pages that were
// never made durable — corruption the caller should have detected). Extra
// file length beyond numPages (pages allocated after the checkpoint being
// restored) is abandoned; those byte ranges are rewritten when the ids are
// allocated again.
func (d *FileDisk) Reconcile(numPages uint64, free []PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	size, err := d.f.Size()
	if err != nil {
		return fmt.Errorf("store: stat file disk: %w", err)
	}
	if uint64(size/PageSize) < numPages {
		return fmt.Errorf("store: file holds %d pages, checkpoint expects %d", size/PageSize, numPages)
	}
	alive := make(map[PageID]bool, numPages)
	for id := PageID(1); id <= PageID(numPages); id++ {
		alive[id] = true
	}
	for _, id := range free {
		if id == InvalidPageID || uint64(id) > numPages {
			return fmt.Errorf("store: free page %d outside disk of %d pages", id, numPages)
		}
		if !alive[id] {
			return fmt.Errorf("store: page %d freed twice in checkpoint", id)
		}
		delete(alive, id)
	}
	d.next = PageID(numPages) + 1
	d.free = append([]PageID(nil), free...)
	// Pop the smallest id first, for deterministic layouts (like MemDisk).
	sort.Slice(d.free, func(i, j int) bool { return d.free[i] > d.free[j] })
	d.alive = alive
	d.stats.PagesAlive = uint64(len(alive))
	return nil
}

// NumPages returns the allocator's high-water mark: every page id ever
// allocated is ≤ NumPages.
func (d *FileDisk) NumPages() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(d.next - 1)
}

// FreeList returns the currently free page ids (ascending). Parked ids
// (see DeferFrees) are not included — use PendingList.
func (d *FileDisk) FreeList() []PageID {
	d.mu.Lock()
	out := append([]PageID(nil), d.free...)
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AliveList returns the currently allocated page ids (ascending).
func (d *FileDisk) AliveList() []PageID {
	d.mu.Lock()
	out := make([]PageID, 0, len(d.alive))
	for id := range d.alive {
		out = append(out, id)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DeferFrees toggles deferred reclamation: while enabled, freed pages are
// parked (unallocated but not reusable) instead of entering the free list.
// A checkpoint enables it at its cut and flushes the parked ids at its
// publish, so no page freed mid-build can be reallocated while an on-disk
// checkpoint might still reference it. Disabling does NOT flush pending —
// an aborted checkpoint keeps its parked pages out of circulation until a
// later checkpoint commits (they are reported by PendingList so the later
// checkpoint's metadata can account for them as free).
func (d *FileDisk) DeferFrees(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deferFrees = on
}

// PendingList returns the parked page ids (ascending).
func (d *FileDisk) PendingList() []PageID {
	d.mu.Lock()
	out := append([]PageID(nil), d.pending...)
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FlushPending moves every parked id to the free list, making the pages
// reallocatable. Called after a checkpoint's commit point is durable.
func (d *FileDisk) FlushPending() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.free = append(d.free, d.pending...)
	d.pending = nil
}

// Close flushes and closes the underlying file.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// Sync implements DiskManager: it fsyncs the backing file, making every
// completed Write durable. Sync deliberately does not hold the disk mutex
// across the (possibly long) fsync, so concurrent page I/O proceeds; the
// VFile contract requires Sync to be safe alongside WriteAt.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	f := d.f
	d.mu.Unlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync file disk: %w", err)
	}
	return nil
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var id PageID
	if n := len(d.free); n > 0 {
		// Reused slots are not re-zeroed: every allocation goes through
		// BufferPool.NewPage, which zeroes the frame and marks it dirty,
		// so the slot is rewritten before anything can read it.
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.next
		d.next++
		if d.next == 0 {
			return InvalidPageID, fmt.Errorf("store: page id space exhausted")
		}
		// Extend the file so reads of the fresh page succeed.
		var zero [PageSize]byte
		if _, err := d.f.WriteAt(zero[:], int64(id-1)*PageSize); err != nil {
			d.next-- // return the id so the allocator does not leak it
			return InvalidPageID, fmt.Errorf("store: extend file disk: %w", err)
		}
	}
	d.alive[id] = true
	d.stats.Allocs++
	d.stats.PagesAlive++
	return id, nil
}

// Free implements DiskManager. Under DeferFrees the id is parked rather
// than made reallocatable (see DeferFrees).
func (d *FileDisk) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive[id] {
		return fmt.Errorf("store: free of unallocated page %d", id)
	}
	delete(d.alive, id)
	if d.deferFrees {
		d.pending = append(d.pending, id)
	} else {
		d.free = append(d.free, id)
	}
	d.stats.Frees++
	d.stats.PagesAlive--
	return nil
}

// Read implements DiskManager.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != PageSize {
		return fmt.Errorf("store: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if !d.alive[id] {
		return fmt.Errorf("store: read of unallocated page %d", id)
	}
	if _, err := d.f.ReadAt(buf, int64(id-1)*PageSize); err != nil {
		return fmt.Errorf("store: read page %d: %w", id, err)
	}
	d.stats.Reads++
	return nil
}

// Write implements DiskManager.
func (d *FileDisk) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != PageSize {
		return fmt.Errorf("store: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if !d.alive[id] {
		return fmt.Errorf("store: write to unallocated page %d", id)
	}
	if _, err := d.f.WriteAt(buf, int64(id-1)*PageSize); err != nil {
		return fmt.Errorf("store: write page %d: %w", id, err)
	}
	d.stats.Writes++
	return nil
}

// Stats implements DiskManager.
func (d *FileDisk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements DiskManager.
func (d *FileDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	alive := d.stats.PagesAlive
	d.stats = DiskStats{PagesAlive: alive}
}
