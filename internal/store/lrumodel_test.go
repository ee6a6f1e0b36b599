package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The pool against a model. The 50-page LRU buffer is the paper's I/O
// metric, so the pool's replacement must be LRU exactly — the same victim on
// every eviction — whatever it does to avoid allocating. The model below is
// the pool as first written, spelled with slices: a seeded trace of every
// pool operation is replayed against both, and after each step the two must
// agree on the resident pages, the eviction order, the pins, the statistics,
// the bytes a pinned page shows and the device's reads and writes.

// deviceOp is one page read ('r') or write ('w') that reached the device.
type deviceOp struct {
	kind byte
	id   PageID
}

// deviceLog records the reads and writes under a pool.
type deviceLog struct {
	DiskManager
	ops []deviceOp
}

func (d *deviceLog) Read(id PageID, buf []byte) error {
	d.ops = append(d.ops, deviceOp{'r', id})
	return d.DiskManager.Read(id, buf)
}

func (d *deviceLog) Write(id PageID, buf []byte) error {
	d.ops = append(d.ops, deviceOp{'w', id})
	return d.DiskManager.Write(id, buf)
}

type modelPage struct {
	pins  int
	dirty bool
}

// modelPool is a BufferPool over a MemDisk, by the book.
type modelPool struct {
	capacity int
	resident map[PageID]*modelPage
	lru      []PageID // unpinned residents, most recently unpinned first
	stats    BufferStats
	ops      []deviceOp

	content   map[PageID]uint64 // allocated pages → the stamp last written
	freed     []PageID
	nextID    PageID
	stampNext uint64
}

func newModelPool(capacity int) *modelPool {
	return &modelPool{capacity: capacity, resident: map[PageID]*modelPage{}, content: map[PageID]uint64{}, nextID: 1}
}

var errModel = fmt.Errorf("model: refused")

func (m *modelPool) unlink(id PageID) {
	if i := slices.Index(m.lru, id); i >= 0 {
		m.lru = slices.Delete(m.lru, i, i+1)
	}
}

func (m *modelPool) admit(id PageID) error {
	if len(m.resident) >= m.capacity {
		if len(m.lru) == 0 {
			return errModel
		}
		victim := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		if m.resident[victim].dirty {
			m.ops = append(m.ops, deviceOp{'w', victim})
			m.stats.WriteBack++
		}
		delete(m.resident, victim)
		m.stats.Evictions++
	}
	m.resident[id] = &modelPage{}
	return nil
}

func (m *modelPool) fetch(id PageID) error {
	if p, ok := m.resident[id]; ok {
		m.stats.Hits++
		m.unlink(id)
		p.pins++
		return nil
	}
	m.stats.Misses++
	if err := m.admit(id); err != nil {
		return err
	}
	m.ops = append(m.ops, deviceOp{'r', id})
	if _, ok := m.content[id]; !ok {
		delete(m.resident, id)
		return errModel
	}
	m.resident[id].pins = 1
	return nil
}

func (m *modelPool) newPage() (PageID, error) {
	var id PageID
	if n := len(m.freed); n > 0 {
		slices.Sort(m.freed)
		id, m.freed = m.freed[0], m.freed[1:] // the smallest freed id first
	} else {
		id = m.nextID
		m.nextID++
	}
	if err := m.admit(id); err != nil {
		m.freed = append(m.freed, id)
		return 0, err
	}
	m.content[id] = 0
	*m.resident[id] = modelPage{pins: 1, dirty: true}
	return id, nil
}

func (m *modelPool) unpin(id PageID, dirty bool) error {
	p, ok := m.resident[id]
	if !ok || p.pins <= 0 {
		return errModel
	}
	p.dirty = p.dirty || dirty
	if p.pins--; p.pins == 0 {
		m.lru = slices.Insert(m.lru, 0, id)
	}
	return nil
}

func (m *modelPool) free(id PageID) error {
	if _, ok := m.content[id]; !ok {
		return errModel
	}
	delete(m.content, id)
	m.freed = append(m.freed, id)
	return nil
}

func (m *modelPool) freePage(id PageID) error {
	if p, ok := m.resident[id]; !ok || p.pins != 1 {
		return errModel
	}
	delete(m.resident, id)
	return m.free(id)
}

func (m *modelPool) release(id PageID) error {
	if p, ok := m.resident[id]; ok {
		if p.pins > 0 {
			return errModel
		}
		m.unlink(id)
		delete(m.resident, id)
	}
	return m.free(id)
}

func (m *modelPool) flush(id PageID) {
	if p, ok := m.resident[id]; ok && p.dirty {
		m.ops = append(m.ops, deviceOp{'w', id})
		p.dirty = false
		m.stats.WriteBack++
	}
}

func (m *modelPool) dropAll() error {
	for _, p := range m.resident {
		if p.pins > 0 {
			return errModel
		}
	}
	for id := range m.resident {
		m.flush(id)
	}
	m.resident, m.lru = map[PageID]*modelPage{}, nil
	return nil
}

func (m *modelPool) pinned() (ids []PageID) {
	for id, p := range m.resident {
		if p.pins > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// lruOrder walks the pool's eviction list, most recently unpinned first.
func (bp *BufferPool) lruOrder() (ids []PageID) {
	for f := bp.lru.next; f != &bp.lru; f = f.next {
		ids = append(ids, f.page.id)
	}
	return ids
}

func TestBufferPoolMatchesLRUModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 16, 50} {
		t.Run(fmt.Sprintf("frames%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1900 + capacity)))
			dev := &deviceLog{DiskManager: NewMemDisk()}
			bp := NewBufferPool(dev, capacity)
			m := newModelPool(capacity)
			held := map[PageID]*Page{} // the pages the trace holds a pin on

			anyOf := func(ids []PageID) PageID { return ids[rng.Intn(len(ids))] }
			allocated := func() (ids []PageID) {
				for id := range m.content {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				return ids
			}
			// A page id for the next operation: usually one the disk holds,
			// sometimes one it does not (never allocated, or freed).
			pick := func() PageID {
				if ids := allocated(); len(ids) > 0 && rng.Intn(20) > 0 {
					return anyOf(ids)
				}
				return PageID(1 + rng.Intn(int(m.nextID)+2))
			}
			for step := 0; step < 6000; step++ {
				var what string
				var got, want error
				sortWrites := false
				op := rng.Intn(100)
				if len(held) > rng.Intn(capacity/2+2) && op < 80 {
					op = 40 // keep the pins few enough that most misses find a victim
				}
				switch {
				case op < 40:
					id := pick()
					what = fmt.Sprintf("Fetch(%d)", id)
					var p *Page
					p, got = bp.Fetch(id)
					want = m.fetch(id)
					if got == nil {
						held[id] = p
					}
				case op < 65:
					if pins := m.pinned(); len(pins) > 0 && rng.Intn(10) > 0 {
						id, dirty := anyOf(pins), rng.Intn(3) == 0
						what = fmt.Sprintf("Unpin(%d, %v)", id, dirty)
						if dirty {
							m.stampNext++
							m.content[id] = m.stampNext
							held[id].PutUint64(0, m.stampNext)
							held[id].PutUint64(PageSize-8, m.stampNext)
						}
						got, want = bp.Unpin(id, dirty), m.unpin(id, dirty)
						if m.resident[id].pins == 0 {
							delete(held, id)
						}
					} else { // a page that is not pinned, or not resident
						id := pick()
						if p, ok := m.resident[id]; ok && p.pins > 0 {
							continue
						}
						what = fmt.Sprintf("Unpin(%d) of an unpinned page", id)
						got, want = bp.Unpin(id, false), m.unpin(id, false)
					}
				case op < 80:
					what = "NewPage()"
					var p *Page
					p, got = bp.NewPage()
					id, err := m.newPage()
					want = err
					if got == nil {
						if p.ID() != id {
							t.Fatalf("step %d: NewPage returned page %d, model %d", step, p.ID(), id)
						}
						held[id] = p
					}
				case op < 85:
					id := pick()
					what = fmt.Sprintf("FreePage(%d)", id)
					got, want = bp.FreePage(id), m.freePage(id)
					if want == nil {
						delete(held, id)
					}
				case op < 92:
					id := pick()
					what = fmt.Sprintf("Release(%d)", id)
					got, want = bp.Release(id), m.release(id)
				case op < 97:
					ids := bp.DirtyPages()
					rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					ids = ids[:rng.Intn(len(ids)+1)]
					what = fmt.Sprintf("FlushPages(%v)", ids)
					_, got = bp.FlushPages(ids)
					for _, id := range ids {
						m.flush(id)
					}
				default:
					what = "DropAll()"
					got, want = bp.DropAll(), m.dropAll()
					sortWrites = true // it flushes in map order
				}

				if (got != nil) != (want != nil) {
					t.Fatalf("step %d, %s: pool returned %v, model %v", step, what, got, want)
				}
				if sortWrites {
					byID := func(a, b deviceOp) int { return cmp.Compare(a.id, b.id) }
					slices.SortFunc(dev.ops, byID)
					slices.SortFunc(m.ops, byID)
				}
				if !slices.Equal(dev.ops, m.ops) {
					t.Fatalf("step %d, %s: device saw %v, model %v", step, what, dev.ops, m.ops)
				}
				dev.ops, m.ops = dev.ops[:0], m.ops[:0]
				if stats := bp.Stats(); stats != m.stats {
					t.Fatalf("step %d, %s: stats %+v, model %+v", step, what, stats, m.stats)
				}
				if order := bp.lruOrder(); !slices.Equal(order, m.lru) {
					t.Fatalf("step %d, %s: eviction order %v, model %v", step, what, order, m.lru)
				}
				if len(bp.frames) != len(m.resident) || len(bp.frames)+len(bp.free) > capacity {
					t.Fatalf("step %d, %s: %d resident + %d free frames, model %d resident, capacity %d",
						step, what, len(bp.frames), len(bp.free), len(m.resident), capacity)
				}
				for id, mp := range m.resident {
					f, ok := bp.frames[id]
					if !ok {
						t.Fatalf("step %d, %s: page %d is not resident, model %+v", step, what, id, *mp)
					}
					if f.page.id != id || f.page.pins != mp.pins || f.page.dirty != mp.dirty || (f.next != nil) != (mp.pins == 0) {
						t.Fatalf("step %d, %s: page %d is %v (listed %v), model %+v", step, what, id, &f.page, f.next != nil, *mp)
					}
				}
				if n := bp.PinnedPages(); n != len(m.pinned()) {
					t.Fatalf("step %d, %s: PinnedPages() = %d, model %d", step, what, n, len(m.pinned()))
				}
				for id, p := range held {
					if p != &bp.frames[id].page || p.Uint64(0) != m.content[id] || p.Uint64(PageSize-8) != m.content[id] {
						t.Fatalf("step %d, %s: pinned page %d shows %v with stamps %d/%d, model stamp %d",
							step, what, id, p, p.Uint64(0), p.Uint64(PageSize-8), m.content[id])
					}
				}
			}
			if m.stats.Evictions < 100 {
				t.Fatalf("only %d evictions in the trace", m.stats.Evictions)
			}
		})
	}
}

// TestFetchMissAllocatesNothing: on a full pool a miss reads into the frame
// its victim left, and neither a miss nor a hit makes a list node.
func TestFetchMissAllocatesNothing(t *testing.T) {
	const capacity, pages = 8, 64
	bp := NewBufferPool(NewMemDisk(), capacity)
	for i := 0; i < pages; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.PutUint32(0, uint32(p.ID()))
		if err := bp.Unpin(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	request := func(id PageID) {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if PageID(p.Uint32(0)) != id {
			t.Fatalf("page %d shows the bytes of page %d", id, p.Uint32(0))
		}
		if err := bp.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	next := PageID(0)
	before := bp.Stats()
	if got := testing.AllocsPerRun(1000, func() {
		next = next%pages + 1 // cycling through 64 pages on 8 frames: every request misses
		request(next)
	}); got != 0 {
		t.Errorf("a miss on a full pool allocates %.0f times, want 0", got)
	}
	if s := bp.Stats(); s.Hits != before.Hits || s.Misses-before.Misses != s.Evictions-before.Evictions {
		t.Fatalf("the cycling requests did not all miss and evict: %+v → %+v", before, s)
	}
	request(1)
	if got := testing.AllocsPerRun(1000, func() { request(1) }); got != 0 {
		t.Errorf("a hit allocates %.0f times, want 0", got)
	}
}

// TestMemDiskFreeListTrace: the free list hands out the smallest freed id
// first, as it did when every Free re-sorted the whole list.
func TestMemDiskFreeListTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(1903))
	d := NewMemDisk()
	var alive, free []PageID
	next := PageID(1)
	for step := 0; step < 5000; step++ {
		if len(alive) > 0 && rng.Intn(100) < 45 {
			i := rng.Intn(len(alive))
			if err := d.Free(alive[i]); err != nil {
				t.Fatal(err)
			}
			free = append(free, alive[i])
			slices.SortFunc(free, func(a, b PageID) int { return cmp.Compare(b, a) })
			alive = slices.Delete(alive, i, i+1)
			continue
		}
		want := next
		if n := len(free); n > 0 {
			want, free = free[n-1], free[:n-1]
		} else {
			next++
		}
		got, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: Allocate handed out page %d, want %d (free list %v)", step, got, want, d.free)
		}
		alive = append(alive, got)
	}
	if !slices.Equal(d.free, free) {
		t.Fatalf("free list %v, want %v", d.free, free)
	}
}

// BenchmarkFetchMiss is the paper's unit of I/O: a page request that misses
// the 50-page buffer, evicts the least recently used page and reads from the
// (memory) device, then the Unpin that makes it evictable in turn.
func BenchmarkFetchMiss(b *testing.B) {
	const pages = 4 * DefaultBufferPages
	bp := NewBufferPool(NewMemDisk(), DefaultBufferPages)
	for i := 0; i < pages; i++ {
		p, err := bp.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		if err := bp.Unpin(p.ID(), true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := PageID(i%pages + 1)
		if _, err := bp.Fetch(id); err != nil {
			b.Fatal(err)
		}
		if err := bp.Unpin(id, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := bp.Stats(); s.Hits != 0 {
		b.Fatalf("%d of the requests hit", s.Hits)
	}
}
