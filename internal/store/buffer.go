package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// BufferStats counts logical page requests against a BufferPool.
//
// Misses is the quantity the paper calls "I/O cost": a page request that
// could not be served from the buffer and required a disk read.
type BufferStats struct {
	Hits      uint64 // requests served from the buffer
	Misses    uint64 // requests that read from disk (the paper's I/O)
	Evictions uint64 // pages pushed out of the buffer
	WriteBack uint64 // dirty pages written to disk on eviction/flush
}

// Accesses returns the total number of logical page requests.
func (s BufferStats) Accesses() uint64 { return s.Hits + s.Misses }

// IOCounter accumulates hit/miss counts for one handle (e.g. a pinned
// snapshot), independently of the pool's global counters. A nil *IOCounter
// is valid everywhere one is accepted and records nothing. All methods are
// safe for concurrent use.
type IOCounter struct {
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Stats returns the counter's accumulated values. Only Hits and Misses are
// populated: evictions and write-backs are pool-wide effects that cannot be
// attributed to one handle.
func (c *IOCounter) Stats() BufferStats {
	if c == nil {
		return BufferStats{}
	}
	return BufferStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// record notes one page request and whether it missed.
func (c *IOCounter) record(miss bool) {
	if c == nil {
		return
	}
	if miss {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
}

// BufferPool caches pages in memory with an LRU replacement policy, exactly
// the "50-page LRU buffer" simulated by the paper (Sec. 7.1).
//
// Pages are pinned while in use. Fetch/NewPage return pinned pages; callers
// must Unpin them (with a dirty flag) when done. Unpinned pages stay cached
// until evicted by LRU.
//
// A *Page is valid only while its caller holds a pin on it. The pool owns at
// most capacity frames and a page request allocates none: the frame a page
// leaves — evicted, freed, released or dropped — is the memory the next
// admission reads into, so a *Page kept past its Unpin (or FreePage) comes to
// show another page's id and bytes. Copy what outlives the pin.
//
// Concurrency: the pool's own bookkeeping (frame table, LRU order, pin
// counts, statistics, and the underlying disk) is guarded by an internal
// mutex, so any number of goroutines may Fetch/Unpin concurrently. The
// mutex is held across miss-path disk reads and eviction write-backs,
// which keeps the LRU order and the paper's I/O accounting exact but
// serializes concurrent readers on every miss — parallel read throughput
// therefore requires the working set to be buffer-resident (hits release
// the lock immediately; node decoding happens outside it). Page
// *contents* are not guarded: a pinned page's Data may be read by many
// goroutines at once, but mutating it (writeLeaf etc., followed by
// MarkDirty) requires that no other goroutine is using the page. Callers
// obtain that exclusivity externally — peb.DB runs all mutations under a
// write lock while queries hold the read side (single-writer/multi-reader).
type BufferPool struct {
	disk     DiskManager
	capacity int

	mu     sync.Mutex
	frames map[PageID]*frame
	// lru is the sentinel of a circular list through frame.prev/next holding
	// the unpinned frames in exact LRU order: lru.next is the most recently
	// unpinned frame, lru.prev the next eviction victim.
	lru frame
	// free holds the frames of pages that left the table, for admit to
	// reuse; with frames it never exceeds capacity.
	free []*frame
	// onUnpinned is nil outside tests. A test sets it to be handed every
	// frame as its last pin is dropped and to return the frame the page
	// lives in from then on: moving the page and poisoning the frame it left
	// makes a read through a stale *Page visible.
	onUnpinned func(*frame) *frame

	stats BufferStats
}

type frame struct {
	page Page
	// prev and next link the frame into the LRU list; both are nil while
	// the page is pinned (or the frame is free): next != nil ⇔ evictable.
	prev, next *frame
}

// DefaultBufferPages matches the paper's experimental setting.
const DefaultBufferPages = 50

// NewBufferPool creates a pool over disk holding at most capacity pages.
// A capacity below 1 panics: the pool could not hold a single working page.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		panic(fmt.Sprintf("store: buffer capacity %d < 1", capacity))
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Capacity returns the maximum number of cached pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Stats returns the cumulative hit/miss counters.
func (bp *BufferPool) Stats() BufferStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the counters. Cached contents are unaffected, so a
// reset-then-measure sequence observes a warm buffer, while DropAll followed
// by ResetStats observes a cold one.
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = BufferStats{}
}

// Fetch returns the page with the given id, pinned. The caller must Unpin it.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) { return bp.FetchCounted(id, nil) }

// FetchCounted is Fetch with an additional per-handle counter: the request's
// hit/miss outcome is recorded into c (when non-nil) as well as the pool's
// global statistics. Query handles use it to report per-session I/O.
func (bp *BufferPool) FetchCounted(id PageID, c *IOCounter) (*Page, error) {
	if id == InvalidPageID {
		return nil, fmt.Errorf("store: fetch of invalid page id")
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		c.record(false)
		bp.pin(f)
		return &f.page, nil
	}
	bp.stats.Misses++
	c.record(true)
	f, err := bp.admit(id)
	if err != nil {
		return nil, err
	}
	if err := bp.disk.Read(id, f.page.data[:]); err != nil {
		bp.retire(f)
		return nil, err
	}
	bp.pin(f)
	return &f.page, nil
}

// NewPage allocates a fresh disk page and returns it pinned and zeroed.
func (bp *BufferPool) NewPage() (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	f, err := bp.admit(id)
	if err != nil {
		// Roll back the allocation so the disk does not leak the page.
		_ = bp.disk.Free(id)
		return nil, err
	}
	for i := range f.page.data {
		f.page.data[i] = 0
	}
	f.page.dirty = true // ensure the zeroed page reaches disk
	bp.pin(f)
	return &f.page, nil
}

// Unpin releases one pin on the page. dirty declares whether the caller
// modified the page since Fetch/NewPage.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("store: unpin of non-resident page %d", id)
	}
	if f.page.pins <= 0 {
		return fmt.Errorf("store: unpin of unpinned page %d", id)
	}
	if dirty {
		f.page.dirty = true
	}
	f.page.pins--
	if f.page.pins == 0 {
		if bp.onUnpinned != nil {
			f = bp.onUnpinned(f)
			bp.frames[id] = f
		}
		f.prev, f.next = &bp.lru, bp.lru.next
		f.prev.next, f.next.prev = f, f
	}
	return nil
}

// FreePage removes the page from the pool and returns it to the disk
// allocator. The page must be resident with exactly one pin (the caller's).
func (bp *BufferPool) FreePage(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("store: free of non-resident page %d", id)
	}
	if f.page.pins != 1 {
		return fmt.Errorf("store: free of page %d with %d pins, want 1", id, f.page.pins)
	}
	if bp.onUnpinned != nil {
		f = bp.onUnpinned(f)
	}
	bp.retire(f)
	return bp.disk.Free(id)
}

// Release frees a page that is no longer referenced by any tree version:
// unlike FreePage it does not require the caller to hold a pin (the page
// may not even be resident). A resident frame is dropped without write-back
// — the contents are garbage by definition — and the page returns to the
// disk allocator. Releasing a pinned page is an error.
func (bp *BufferPool) Release(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.page.pins > 0 {
			return fmt.Errorf("store: release of pinned page %d", id)
		}
		bp.retire(f)
	}
	return bp.disk.Free(id)
}

// FlushAll writes every dirty cached page back to disk. Pinned pages are
// flushed too (they remain resident and pinned).
//
// FlushAll holds the pool mutex for the entire sweep, stalling every
// concurrent Fetch for its duration. Callers that must stay responsive
// while flushing — the checkpoint build phase — capture DirtyPages and
// hand the list to FlushPages instead.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.flushAllLocked()
}

// DirtyPages returns the ids of every resident dirty page, sorted. A
// checkpoint captures this list inside its cut critical section; the pages
// of a just-sealed tree image are immutable from that point on, so the
// list stays exact until FlushPages writes it out.
func (bp *BufferPool) DirtyPages() []PageID {
	bp.mu.Lock()
	ids := make([]PageID, 0, len(bp.frames))
	for id, f := range bp.frames {
		if f.page.dirty {
			ids = append(ids, id)
		}
	}
	bp.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FlushPages writes the given pages back to disk, re-acquiring the pool
// mutex per page so concurrent Fetch/NewPage/Unpin interleave between
// writes instead of stalling behind the whole sweep (the flush-safety a
// non-blocking checkpoint build needs). Pages that are no longer resident
// or no longer dirty — evicted (and therefore already written back) or
// never redirtied — are skipped. Returns the number of pages written.
//
// The caller must guarantee the pages' contents are stable for the
// duration — e.g. they belong to a sealed tree image, which concurrent
// mutations only ever copy-on-write, never rewrite.
func (bp *BufferPool) FlushPages(ids []PageID) (int, error) {
	flushed := 0
	for _, id := range ids {
		bp.mu.Lock()
		f, ok := bp.frames[id]
		if !ok || !f.page.dirty {
			bp.mu.Unlock()
			continue
		}
		if err := bp.disk.Write(id, f.page.data[:]); err != nil {
			bp.mu.Unlock()
			return flushed, err
		}
		f.page.dirty = false
		bp.stats.WriteBack++
		flushed++
		bp.mu.Unlock()
	}
	return flushed, nil
}

func (bp *BufferPool) flushAllLocked() error {
	for id, f := range bp.frames {
		if !f.page.dirty {
			continue
		}
		if err := bp.disk.Write(id, f.page.data[:]); err != nil {
			return err
		}
		f.page.dirty = false
		bp.stats.WriteBack++
	}
	return nil
}

// DropAll flushes and then discards every unpinned cached page, producing a
// cold buffer. It fails if any page is still pinned.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.frames {
		if f.page.pins > 0 {
			return fmt.Errorf("store: drop with page %d still pinned", id)
		}
	}
	if err := bp.flushAllLocked(); err != nil {
		return err
	}
	for _, f := range bp.frames {
		bp.retire(f)
	}
	return nil
}

// PinnedPages returns the number of currently pinned pages (for leak tests).
func (bp *BufferPool) PinnedPages() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if f.page.pins > 0 {
			n++
		}
	}
	return n
}

// pin marks the frame in-use and removes it from the eviction order.
func (bp *BufferPool) pin(f *frame) {
	bp.unlink(f)
	f.page.pins++
}

// unlink takes f out of the LRU list if it is in it.
func (bp *BufferPool) unlink(f *frame) {
	if f.next == nil {
		return
	}
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// retire takes f out of the table and the LRU list and parks its memory for
// the next admission.
func (bp *BufferPool) retire(f *frame) {
	bp.unlink(f)
	delete(bp.frames, f.page.id)
	bp.free = append(bp.free, f)
}

// admit makes room for and installs a frame for id (unpinned, not in LRU),
// in the memory of the page that made the room when there is one.
func (bp *BufferPool) admit(id PageID) (*frame, error) {
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			return nil, err
		}
	}
	var f *frame
	if n := len(bp.free); n > 0 {
		f, bp.free = bp.free[n-1], bp.free[:n-1]
	} else {
		f = new(frame)
	}
	f.page.id = id
	f.page.dirty = false
	f.page.pins = 0
	bp.frames[id] = f
	return f, nil
}

// evictOne removes the least recently used unpinned page.
func (bp *BufferPool) evictOne() error {
	f := bp.lru.prev
	if f == &bp.lru {
		return fmt.Errorf("store: buffer full (%d pages) and all pinned", bp.capacity)
	}
	bp.unlink(f)
	if f.page.dirty {
		if err := bp.disk.Write(f.page.id, f.page.data[:]); err != nil {
			return err
		}
		bp.stats.WriteBack++
	}
	bp.retire(f)
	bp.stats.Evictions++
	return nil
}
