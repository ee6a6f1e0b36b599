package btree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// The reader searches and iterates page bytes in place. These tests hold it
// to a reference that decodes every node with readInternal/readLeaf — the
// read path as it was before — on results and on page requests: the same
// pages, in the same order, none twice.

type refFrame struct {
	node  internalNode
	child int
}

// refCursor is the decoding reader: a descent stack of decoded internal
// nodes and one decoded leaf.
type refCursor struct {
	r       *Reader
	stack   []refFrame
	entries []leafEntry
}

func (c *refCursor) descend(pid store.PageID, kv KV, leftmost bool) error {
	for {
		p, err := c.r.pool.Fetch(pid)
		if err != nil {
			return err
		}
		if pageType(p) != internalType {
			c.entries = readLeaf(p)
			return c.r.pool.Unpin(pid, false)
		}
		in := readInternal(p)
		if err := c.r.pool.Unpin(pid, false); err != nil {
			return err
		}
		ci := 0
		if !leftmost {
			ci = childIndex(in, kv)
		}
		c.stack = append(c.stack, refFrame{node: in, child: ci})
		pid = in.children[ci]
	}
}

func (c *refCursor) nextLeaf() (bool, error) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		top.child++
		if top.child >= len(top.node.children) {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		return true, c.descend(top.node.children[top.child], KV{}, true)
	}
	return false, nil
}

func refGet(r *Reader, kv KV) (Payload, bool, error) {
	c := &refCursor{r: r}
	if err := c.descend(r.root, kv, false); err != nil {
		return Payload{}, false, err
	}
	idx, ok := searchLeaf(c.entries, kv)
	if !ok {
		return Payload{}, false, nil
	}
	return c.entries[idx].payload, true, nil
}

func refRangeScan(r *Reader, lo, hi KV, fn func(KV, Payload) bool) error {
	if hi.Less(lo) {
		return nil
	}
	c := &refCursor{r: r}
	if err := c.descend(r.root, lo, false); err != nil {
		return err
	}
	idx, _ := searchLeaf(c.entries, lo)
	for {
		for ; idx < len(c.entries); idx++ {
			e := c.entries[idx]
			if hi.Less(e.kv) || !fn(e.kv, e.payload) {
				return nil
			}
		}
		ok, err := c.nextLeaf()
		if err != nil || !ok {
			return err
		}
		idx = 0
	}
}

func refScanLeaves(r *Reader, lo, hi KV, fn func(KV, Payload) bool) error {
	if hi.Less(lo) {
		return nil
	}
	c := &refCursor{r: r}
	if err := c.descend(r.root, lo, false); err != nil {
		return err
	}
	for {
		covered := false
		for _, e := range c.entries {
			if hi.Less(e.kv) {
				covered = true
			}
			if !fn(e.kv, e.payload) {
				return nil
			}
		}
		if covered {
			return nil
		}
		ok, err := c.nextLeaf()
		if err != nil || !ok {
			return err
		}
	}
}

// traceDisk records the page ids read from the device, in order.
type traceDisk struct {
	store.DiskManager
	reads []store.PageID
}

func (d *traceDisk) Read(id store.PageID, buf []byte) error {
	d.reads = append(d.reads, id)
	return d.DiskManager.Read(id, buf)
}

type scanned struct {
	kv KV
	p  Payload
}

// observed is everything one operation shows from outside: what it
// returned, the pages it read from a cold cache in order, and the requests
// the pool saw. An operation that keeps a cost record (recorded) reports
// its requests in record.
type observed struct {
	out      []scanned
	found    bool
	reads    []store.PageID
	pool     uint64
	recorded bool
	record   store.BufferStats
}

func (a observed) equal(b observed) bool {
	return slices.Equal(a.out, b.out) && a.found == b.found &&
		slices.Equal(a.reads, b.reads) && a.pool == b.pool
}

// observe runs op against a cold cache large enough that nothing is evicted
// meanwhile: every first request of a page reaches the device, so reads is
// the request order, and a page requested twice shows as pool > len(reads).
func observe(t *testing.T, d *traceDisk, r *Reader, op func(r *Reader, o *observed) error) observed {
	t.Helper()
	if err := r.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	d.reads = nil
	before := r.pool.Stats()
	var o observed
	if err := op(r, &o); err != nil {
		t.Fatal(err)
	}
	o.reads = slices.Clone(d.reads)
	after := r.pool.Stats()
	o.pool = after.Accesses() - before.Accesses()
	if o.pool != uint64(len(o.reads)) {
		t.Fatalf("%d page requests for %d distinct pages: a page was fetched twice", o.pool, len(o.reads))
	}
	if want := (store.BufferStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}); o.recorded && o.record != want {
		t.Fatalf("the operation recorded %+v, the pool counted %+v", o.record, want)
	}
	return o
}

// compareReaders drives Get, RangeScan, ScanLeaves and their early stops
// through both readers over seeded keys and ranges.
func compareReaders(t *testing.T, name string, d *traceDisk, r *Reader, rng *rand.Rand, keySpace uint64) {
	t.Helper()
	gather := func(o *observed, stopAfter int) func(KV, Payload) bool {
		return func(kv KV, p Payload) bool {
			o.out = append(o.out, scanned{kv, p})
			return stopAfter <= 0 || len(o.out) < stopAfter
		}
	}
	randKV := func() KV { return KV{Key: rng.Uint64() % (keySpace + 10), UID: uint32(rng.Intn(3))} }
	for trial := 0; trial < 60; trial++ {
		kv := randKV()
		lo := randKV()
		hi := KV{Key: lo.Key + rng.Uint64()%(keySpace/4+1), UID: uint32(rng.Intn(3))}
		if trial%10 == 0 {
			lo, hi = KV{}, KV{Key: ^uint64(0), UID: ^uint32(0)} // the whole tree
		}
		stop := 0
		if trial%3 == 0 {
			stop = 1 + rng.Intn(200)
		}
		cases := []struct {
			what     string
			got, ref func(r *Reader, o *observed) error
		}{
			{fmt.Sprintf("Get(%v)", kv),
				func(r *Reader, o *observed) (err error) {
					var p Payload
					p, o.found, o.record, err = r.Get(kv)
					o.recorded = true
					o.out = []scanned{{kv, p}}
					return err
				},
				func(r *Reader, o *observed) (err error) {
					var p Payload
					p, o.found, err = refGet(r, kv)
					o.out = []scanned{{kv, p}}
					return err
				}},
			{fmt.Sprintf("RangeScan(%v, %v) stop %d", lo, hi, stop),
				func(r *Reader, o *observed) error { return r.RangeScan(lo, hi, gather(o, stop)) },
				func(r *Reader, o *observed) error { return refRangeScan(r, lo, hi, gather(o, stop)) }},
			{fmt.Sprintf("ScanLeaves(%v, %v) stop %d", lo, hi, stop),
				func(r *Reader, o *observed) error {
					var c Cursor
					err := r.ScanLeavesOn(context.Background(), &c, lo, hi, gather(o, stop))
					o.record, o.recorded = c.TakeCost(), true
					return err
				},
				func(r *Reader, o *observed) error { return refScanLeaves(r, lo, hi, gather(o, stop)) }},
		}
		for _, c := range cases {
			got, want := observe(t, d, r, c.got), observe(t, d, r, c.ref)
			if !got.equal(want) {
				t.Fatalf("%s, %s:\n in place: %d entries, found %v, reads %v, %d requests\n decoded:  %d entries, found %v, reads %v, %d requests",
					name, c.what,
					len(got.out), got.found, got.reads, got.pool,
					len(want.out), want.found, want.reads, want.pool)
			}
		}
	}
}

func TestInPlaceReaderMatchesDecoded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		height int
	}{
		{"height1", LeafCapacity / 2, 1},
		{"height2", LeafCapacity * 30, 2},
		{"height3", LeafCapacity * (InternalCapacity + 2), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			d := &traceDisk{DiskManager: store.NewMemDisk()}
			tr, err := New(store.NewBufferPool(d, 2*tc.n/LeafCapacity*3+64))
			if err != nil {
				t.Fatal(err)
			}
			keySpace := uint64(tc.n)
			var live []KV
			for _, i := range rng.Perm(tc.n) {
				kv := KV{Key: uint64(i), UID: uint32(i % 3)}
				if err := tr.Insert(kv, payloadFor(kv)); err != nil {
					t.Fatal(err)
				}
				live = append(live, kv)
			}
			if tr.Height() != tc.height {
				t.Fatalf("height %d, want %d", tr.Height(), tc.height)
			}
			compareReaders(t, "unsealed", d, tr.Reader(), rng, keySpace)

			// Seal, then mutate: the pinned reader walks the old pages, the
			// current one a mix of old pages and copy-on-write ones.
			tr.Seal()
			pinned := tr.Reader()
			for i := 0; i < len(live)/3; i++ {
				j := rng.Intn(len(live))
				if _, err := tr.Delete(live[j]); err != nil {
					t.Fatal(err)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				kv := KV{Key: rng.Uint64() % keySpace, UID: 7}
				if err := tr.Insert(kv, payloadFor(kv)); err != nil {
					t.Fatal(err)
				}
			}
			compareReaders(t, "pinned across COW", d, pinned, rng, keySpace)
			compareReaders(t, "current after COW", d, tr.Reader(), rng, keySpace)

			// Delete a contiguous three quarters of the key space, so scans
			// cross merged and barely-filled leaves; then everything, which
			// leaves one empty leaf.
			all := collect(t, tr.Reader())
			for _, kv := range all[len(all)/8 : len(all)*7/8] {
				if _, err := tr.Delete(kv); err != nil {
					t.Fatal(err)
				}
			}
			compareReaders(t, "after range delete", d, tr.Reader(), rng, keySpace)
			for _, kv := range collect(t, tr.Reader()) {
				if _, err := tr.Delete(kv); err != nil {
					t.Fatal(err)
				}
			}
			compareReaders(t, "emptied", d, tr.Reader(), rng, keySpace)
			compareReaders(t, "pinned, tree emptied", d, pinned, rng, keySpace)
		})
	}
	t.Run("staleImageTail", staleImageTail)
}

// staleImageTail: an image receives only the occupied prefix of a page, so
// when a cursor's leaf image (or a stack frame) is reused for a page with
// fewer entries than the last, the tail keeps bytes that are not the page's.
// One cursor walks a tree whose full leaves alternate with barely filled
// ones, and before every load everything the cursor no longer needs — the
// leaf it is leaving, the stack frames above the live ones — is filled with
// 0xA5: an entry read from beyond count() shows against the decoding reader.
func staleImageTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	tr := newTestTree(t, 4096)
	n := LeafCapacity * (InternalCapacity + 40)
	for i := 0; i < n; i++ {
		kv := KV{Key: uint64(i), UID: uint32(i % 3)}
		if err := tr.Insert(kv, payloadFor(kv)); err != nil {
			t.Fatal(err)
		}
	}
	// Thin out every other stretch of a few leaves to the minimum fill.
	for lo := 0; lo < n; lo += 6 * LeafCapacity {
		for i := lo; i < min(n, lo+3*LeafCapacity); i++ {
			if i%8 != 0 {
				if _, err := tr.Delete(KV{Key: uint64(i), UID: uint32(i % 3)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	r := tr.Reader()
	poison := func(im *pageImage) {
		for i := range im {
			im[i] = 0xA5
		}
	}
	c := &Cursor{r: r}
	for trial := 0; trial < 40; trial++ {
		lo := KV{Key: rng.Uint64() % uint64(n)}
		stop := 1 + rng.Intn(40*LeafCapacity)
		if trial == 0 {
			lo, stop = KV{}, n
		}
		var want []scanned
		if err := refRangeScan(r, lo, KV{Key: ^uint64(0), UID: ^uint32(0)}, func(kv KV, p Payload) bool {
			want = append(want, scanned{kv, p})
			return len(want) < stop
		}); err != nil {
			t.Fatal(err)
		}
		poison(&c.leaf)
		for i := range c.stack[:cap(c.stack)] {
			poison(&c.stack[:cap(c.stack)][i].image)
		}
		var got []scanned
		fills := map[int]bool{}
		err := c.seek(lo)
		for ; err == nil && c.Valid() && len(got) < stop; err = c.Next() {
			got = append(got, scanned{c.Key(), c.Payload()})
			if c.idx == c.n-1 { // the next step loads another leaf over this one
				fills[c.n] = true
				poison(&c.leaf)
				spare := c.stack[len(c.stack):cap(c.stack)]
				for i := range spare {
					poison(&spare[i].image)
				}
			}
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("seek(%v), %d steps: %d entries, %v; the decoding reader has %d", lo, stop, len(got), err, len(want))
		}
		if trial == 0 && len(fills) < 3 {
			t.Fatalf("the walk met leaves of %d distinct fills only", len(fills))
		}
	}
}

// TestScanHoldsNoPinAcrossCallback: a scan's callback may block (a streaming
// PRQ's yield) or read the tree itself, on pools of a few frames. On two
// frames, a scan inside a scan inside a scan needs three pages at once if
// each level keeps its leaf pinned while it calls out.
func TestScanHoldsNoPinAcrossCallback(t *testing.T) {
	disk := store.NewMemDisk()
	tr, err := New(store.NewBufferPool(disk, 64))
	if err != nil {
		t.Fatal(err)
	}
	n := LeafCapacity * 12
	for i := 0; i < n; i++ {
		kv := KV{Key: uint64(i)}
		if err := tr.Insert(kv, payloadFor(kv)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	small := tr.Reader()
	small.pool = store.NewBufferPool(disk, 2)

	all := KV{Key: ^uint64(0), UID: ^uint32(0)}
	unpinned := func(where string) {
		if p := small.pool.PinnedPages(); p != 0 {
			t.Fatalf("%d pages pinned inside the %s callback", p, where)
		}
	}
	outer, inner, gets := 0, 0, 0
	err = small.ScanLeaves(KV{}, all, func(kv KV, _ Payload) bool {
		unpinned("ScanLeaves")
		outer++
		if kv.Key%97 != 0 {
			return true
		}
		err := small.RangeScan(KV{Key: kv.Key}, KV{Key: kv.Key + 2*LeafCapacity}, func(kv2 KV, _ Payload) bool {
			unpinned("RangeScan")
			inner++
			if kv2.Key%31 != 0 {
				return true
			}
			p, ok, _, err := small.Get(KV{Key: uint64(n-1) - kv2.Key})
			if err != nil || !ok || p != payloadFor(KV{Key: uint64(n-1) - kv2.Key}) {
				t.Fatalf("Get inside nested scans: ok=%v err=%v", ok, err)
			}
			gets++
			return true
		})
		if err != nil {
			t.Fatalf("RangeScan inside ScanLeaves: %v", err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer != n || inner == 0 || gets == 0 {
		t.Fatalf("visited %d of %d entries, %d nested, %d lookups", outer, n, inner, gets)
	}
}

// BenchmarkScanLeaves is the query kernel's inner loop: every entry of
// every leaf of a resident tree handed to a callback that wants none.
func BenchmarkScanLeaves(b *testing.B) {
	tr := newTestTree(b, 4096)
	n := LeafCapacity * 400
	for i := 0; i < n; i++ {
		kv := KV{Key: uint64(i) * 7}
		if err := tr.Insert(kv, payloadFor(kv)); err != nil {
			b.Fatal(err)
		}
	}
	r := tr.Reader()
	all := KV{Key: ^uint64(0), UID: ^uint32(0)}
	var c Cursor
	b.ReportAllocs()
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		if err := r.ScanLeavesOn(context.Background(), &c, KV{}, all, func(KV, Payload) bool { entries++; return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
}
