package store

import (
	"cmp"
	"fmt"
	"slices"
)

// DiskStats counts physical page operations on a DiskManager.
type DiskStats struct {
	Reads      uint64 // pages read from the disk
	Writes     uint64 // pages written to the disk
	Allocs     uint64 // pages allocated
	Frees      uint64 // pages returned to the free list
	PagesAlive uint64 // currently allocated pages
}

// DiskManager is the page-granularity storage device beneath a BufferPool.
// Implementations must tolerate re-reading a page that was never written
// (returning zeroes) because freshly allocated pages may be evicted clean.
type DiskManager interface {
	// Allocate reserves a new page and returns its id (never InvalidPageID).
	Allocate() (PageID, error)
	// Free returns a page to the allocator. Freed ids may be reused.
	Free(id PageID) error
	// Read fills buf (len PageSize) with the page's contents.
	Read(id PageID, buf []byte) error
	// Write stores buf (len PageSize) as the page's contents.
	Write(id PageID, buf []byte) error
	// Sync makes every completed Write durable (fsync). A no-op for
	// volatile devices.
	Sync() error
	// Stats returns cumulative physical I/O counters.
	Stats() DiskStats
	// ResetStats zeroes the counters (allocation gauges are preserved).
	ResetStats()
}

// MemDisk is an in-memory DiskManager that simulates a disk. It is the
// default device for experiments: the paper's metric is page-access counts,
// which MemDisk preserves exactly, while avoiding real-device noise.
//
// MemDisk is not safe for concurrent use; wrap it or the owning BufferPool
// with external synchronization if needed.
type MemDisk struct {
	pages map[PageID][]byte
	free  []PageID
	next  PageID
	stats DiskStats
}

// NewMemDisk returns an empty simulated disk.
func NewMemDisk() *MemDisk {
	return &MemDisk{pages: make(map[PageID][]byte), next: 1}
}

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	var id PageID
	if n := len(d.free); n > 0 {
		// Reuse the smallest freed id first for deterministic layouts.
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.next
		d.next++
		if d.next == 0 {
			return InvalidPageID, fmt.Errorf("store: page id space exhausted")
		}
	}
	d.pages[id] = nil // lazily materialized on first write
	d.stats.Allocs++
	d.stats.PagesAlive++
	return id, nil
}

// Free implements DiskManager.
func (d *MemDisk) Free(id PageID) error {
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("store: free of unallocated page %d", id)
	}
	delete(d.pages, id)
	// Keep the free list sorted descending so Allocate pops the smallest id.
	at, _ := slices.BinarySearchFunc(d.free, id, func(held, id PageID) int { return cmp.Compare(id, held) })
	d.free = slices.Insert(d.free, at, id)
	d.stats.Frees++
	d.stats.PagesAlive--
	return nil
}

// Read implements DiskManager.
func (d *MemDisk) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("store: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	data, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("store: read of unallocated page %d", id)
	}
	d.stats.Reads++
	if data == nil {
		clear(buf)
		return nil
	}
	copy(buf, data)
	return nil
}

// Write implements DiskManager.
func (d *MemDisk) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("store: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("store: write to unallocated page %d", id)
	}
	data := d.pages[id]
	if data == nil {
		data = make([]byte, PageSize)
		d.pages[id] = data
	}
	copy(data, buf)
	d.stats.Writes++
	return nil
}

// Sync implements DiskManager. MemDisk is volatile by definition, so there
// is nothing to make durable.
func (d *MemDisk) Sync() error { return nil }

// Stats implements DiskManager.
func (d *MemDisk) Stats() DiskStats { return d.stats }

// ResetStats implements DiskManager.
func (d *MemDisk) ResetStats() {
	alive := d.stats.PagesAlive
	d.stats = DiskStats{PagesAlive: alive}
}

// NumPages returns the number of currently allocated pages.
func (d *MemDisk) NumPages() int { return len(d.pages) }
