package btree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/store"
)

// The writer edits node pages where they lie. These tests hold it to the
// writer it replaced, kept below as the reference: Insert and Delete as
// decode-modify-encode over readLeaf/readInternal and writeLeaf/
// writeInternal. Both share underflow rebalancing (rebalanceChild), which
// decodes whole nodes in either.

// searchLeaf returns the index of the first entry >= kv and whether that
// entry equals kv exactly.
func searchLeaf(entries []leafEntry, kv KV) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].kv.Less(kv) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].kv == kv
}

// childIndex returns which child of in covers kv: the number of separators
// <= kv.
func childIndex(in internalNode, kv KV) int {
	lo, hi := 0, len(in.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if kv.Less(in.seps[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// refInsert is Insert as the decoding writer does it.
func (t *Tree) refInsert(kv KV, payload Payload) error {
	t.mutated = true
	newRoot, split, sep, right, replaced, err := t.refInsertRec(t.root, kv, payload)
	if err != nil {
		return err
	}
	t.root = newRoot
	if !replaced {
		t.size++
	}
	if !split {
		return nil
	}
	p, err := t.allocPage()
	if err != nil {
		return err
	}
	writeInternal(p, internalNode{seps: []KV{sep}, children: []store.PageID{t.root, right}})
	rootID := p.ID()
	if err := t.pool.Unpin(rootID, true); err != nil {
		return err
	}
	t.root = rootID
	t.height++
	return nil
}

func (t *Tree) refInsertRec(pid store.PageID, kv KV, payload Payload) (newPid store.PageID, split bool, sep KV, right store.PageID, replaced bool, err error) {
	p, err := t.pool.Fetch(pid)
	if err != nil {
		return pid, false, KV{}, 0, false, err
	}
	if pageType(p) == leafType {
		entries := readLeaf(p)
		idx, exact := searchLeaf(entries, kv)
		if exact {
			entries[idx].payload = payload
		} else {
			entries = slices.Insert(entries, idx, leafEntry{kv: kv, payload: payload})
		}
		if len(entries) <= LeafCapacity {
			if p, newPid, err = t.redirect(pid, p); err != nil {
				return pid, false, KV{}, 0, false, err
			}
			writeLeaf(p, entries)
			return newPid, false, KV{}, 0, exact, t.pool.Unpin(newPid, true)
		}
		mid := len(entries) / 2
		rp, err := t.allocPage()
		if err != nil {
			_ = t.pool.Unpin(pid, false)
			return pid, false, KV{}, 0, false, err
		}
		writeLeaf(rp, entries[mid:])
		right = rp.ID()
		if err := t.pool.Unpin(right, true); err != nil {
			return pid, false, KV{}, 0, false, err
		}
		if p, newPid, err = t.redirect(pid, p); err != nil {
			return pid, false, KV{}, 0, false, err
		}
		writeLeaf(p, entries[:mid])
		t.leafCount++
		return newPid, true, entries[mid].kv, right, false, t.pool.Unpin(newPid, true)
	}

	in := readInternal(p)
	ci := childIndex(in, kv)
	child := in.children[ci]
	if err := t.pool.Unpin(pid, false); err != nil {
		return pid, false, KV{}, 0, false, err
	}
	newChild, csplit, csep, cright, creplaced, err := t.refInsertRec(child, kv, payload)
	if err != nil {
		return pid, false, KV{}, 0, false, err
	}
	if !csplit && newChild == child {
		return pid, false, KV{}, 0, creplaced, nil
	}
	if p, err = t.pool.Fetch(pid); err != nil {
		return pid, false, KV{}, 0, creplaced, err
	}
	in = readInternal(p)
	in.children[ci] = newChild
	if csplit {
		in.seps = slices.Insert(in.seps, ci, csep)
		in.children = slices.Insert(in.children, ci+1, cright)
	}
	if len(in.seps) <= InternalCapacity {
		if p, newPid, err = t.redirect(pid, p); err != nil {
			return pid, false, KV{}, 0, creplaced, err
		}
		writeInternal(p, in)
		return newPid, false, KV{}, 0, creplaced, t.pool.Unpin(newPid, true)
	}
	mid := len(in.seps) / 2
	rp, err := t.allocPage()
	if err != nil {
		_ = t.pool.Unpin(pid, false)
		return pid, false, KV{}, 0, creplaced, err
	}
	writeInternal(rp, internalNode{seps: in.seps[mid+1:], children: in.children[mid+1:]})
	right = rp.ID()
	if err := t.pool.Unpin(right, true); err != nil {
		return pid, false, KV{}, 0, creplaced, err
	}
	if p, newPid, err = t.redirect(pid, p); err != nil {
		return pid, false, KV{}, 0, creplaced, err
	}
	writeInternal(p, internalNode{seps: in.seps[:mid], children: in.children[:mid+1]})
	return newPid, true, in.seps[mid], right, creplaced, t.pool.Unpin(newPid, true)
}

// refDelete is Delete as the decoding writer does it.
func (t *Tree) refDelete(kv KV) (bool, error) {
	t.mutated = true
	newRoot, found, _, err := t.refDeleteRec(t.root, kv)
	if err != nil {
		return false, err
	}
	t.root = newRoot
	if found {
		t.size--
	}
	for t.height > 1 {
		p, err := t.pool.Fetch(t.root)
		if err != nil {
			return found, err
		}
		if pageType(p) != internalType || pageCount(p) > 0 {
			if err := t.pool.Unpin(t.root, false); err != nil {
				return found, err
			}
			break
		}
		child := readInternal(p).children[0]
		if err := t.discardPinned(t.root); err != nil {
			return found, err
		}
		t.root = child
		t.height--
	}
	return found, nil
}

func (t *Tree) refDeleteRec(pid store.PageID, kv KV) (newPid store.PageID, found, underflow bool, err error) {
	p, err := t.pool.Fetch(pid)
	if err != nil {
		return pid, false, false, err
	}
	if pageType(p) == leafType {
		entries := readLeaf(p)
		idx, exact := searchLeaf(entries, kv)
		if !exact {
			return pid, false, false, t.pool.Unpin(pid, false)
		}
		entries = slices.Delete(entries, idx, idx+1)
		if p, newPid, err = t.redirect(pid, p); err != nil {
			return pid, false, false, err
		}
		writeLeaf(p, entries)
		return newPid, true, len(entries) < minLeafEntries, t.pool.Unpin(newPid, true)
	}
	in := readInternal(p)
	ci := childIndex(in, kv)
	child := in.children[ci]
	if err := t.pool.Unpin(pid, false); err != nil {
		return pid, false, false, err
	}
	newChild, found, childUnder, err := t.refDeleteRec(child, kv)
	if err != nil {
		return pid, false, false, err
	}
	if !childUnder && newChild == child {
		return pid, found, false, nil
	}
	if p, err = t.pool.Fetch(pid); err != nil {
		return pid, found, false, err
	}
	in = readInternal(p)
	in.children[ci] = newChild
	if childUnder {
		if err := t.rebalanceChild(&in, ci); err != nil {
			_ = t.pool.Unpin(pid, false)
			return pid, found, false, err
		}
	}
	if p, newPid, err = t.redirect(pid, p); err != nil {
		return pid, found, false, err
	}
	writeInternal(p, in)
	return newPid, found, len(in.seps) < minInternalEntries, t.pool.Unpin(newPid, true)
}

// twin drives the same operations through the in-place writer (got) and
// the reference (ref), each tree on a device and pool of its own.
type twin struct {
	got, ref         *Tree
	gotDisk, refDisk *store.MemDisk
	// retired holds what both trees retired since the last seal; the seal
	// frees it, as a snapshot's owner does once no reader needs it.
	retired []store.PageID
	ops     int
}

func newTwin(t *testing.T, frames int) *twin {
	t.Helper()
	w := &twin{gotDisk: store.NewMemDisk(), refDisk: store.NewMemDisk()}
	var err error
	if w.got, err = New(store.NewBufferPool(w.gotDisk, frames)); err != nil {
		t.Fatal(err)
	}
	if w.ref, err = New(store.NewBufferPool(w.refDisk, frames)); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *twin) insert(t *testing.T, kv KV, p Payload) {
	t.Helper()
	if err := w.got.Insert(kv, p); err != nil {
		t.Fatalf("op %d: Insert(%v): %v", w.ops, kv, err)
	}
	if err := w.ref.refInsert(kv, p); err != nil {
		t.Fatalf("op %d: reference Insert(%v): %v", w.ops, kv, err)
	}
	w.compare(t, fmt.Sprintf("Insert(%v)", kv))
}

func (w *twin) delete(t *testing.T, kv KV) {
	t.Helper()
	found, err := w.got.Delete(kv)
	if err != nil {
		t.Fatalf("op %d: Delete(%v): %v", w.ops, kv, err)
	}
	refFound, err := w.ref.refDelete(kv)
	if err != nil {
		t.Fatalf("op %d: reference Delete(%v): %v", w.ops, kv, err)
	}
	if found != refFound {
		t.Fatalf("op %d: Delete(%v) found %v, the reference %v", w.ops, kv, found, refFound)
	}
	w.compare(t, fmt.Sprintf("Delete(%v)", kv))
}

// seal frees what both trees retired and seals them: later edits of the
// pages they hold now copy-on-write.
func (w *twin) seal(t *testing.T) {
	t.Helper()
	for _, tr := range []*Tree{w.got, w.ref} {
		for _, pid := range w.retired {
			if err := tr.pool.Release(pid); err != nil {
				t.Fatal(err)
			}
		}
		tr.Seal()
	}
	w.retired = w.retired[:0]
}

// compare holds the trees equal after an operation: meta, the pages
// retired and the pages allocated since the seal, the pool's and the
// device's counters, and the bytes of every reachable page.
func (w *twin) compare(t *testing.T, what string) {
	t.Helper()
	w.ops++
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d, %s: "+format, append([]any{w.ops, what}, args...)...)
	}
	if g, r := w.got.Meta(), w.ref.Meta(); g != r {
		fail("meta %+v, the reference %+v", g, r)
	}
	gotRetired, refRetired := w.got.TakeRetired(), w.ref.TakeRetired()
	if !slices.Equal(gotRetired, refRetired) {
		fail("retired %v, the reference %v", gotRetired, refRetired)
	}
	w.retired = append(w.retired, gotRetired...)
	if !maps.Equal(w.got.fresh, w.ref.fresh) {
		fail("fresh pages %v, the reference %v", slices.Sorted(maps.Keys(w.got.fresh)), slices.Sorted(maps.Keys(w.ref.fresh)))
	}
	if g, r := w.got.pool.Stats(), w.ref.pool.Stats(); g != r {
		fail("pool %+v, the reference %+v", g, r)
	}
	if g, r := w.gotDisk.Stats(), w.refDisk.Stats(); g != r {
		fail("device %+v, the reference %+v", g, r)
	}
	var walk func(pid store.PageID)
	walk = func(pid store.PageID) {
		gp, err := w.got.pool.Fetch(pid)
		if err != nil {
			fail("%v", err)
		}
		rp, err := w.ref.pool.Fetch(pid)
		if err != nil {
			fail("%v", err)
		}
		g, r := node(gp.Data()), node(rp.Data())
		if !bytes.Equal(g, r) {
			at := 0
			for g[at] == r[at] {
				at++
			}
			fail("page %d differs from byte %d on (type %d, %d entries; the reference's %d)", pid, at, g.typ(), g.count(), r.count())
		}
		var children []store.PageID
		if g.typ() == internalType {
			for i := 0; i <= g.count(); i++ {
				children = append(children, g.child(i))
			}
		}
		if err := w.got.pool.Unpin(pid, false); err != nil {
			fail("%v", err)
		}
		if err := w.ref.pool.Unpin(pid, false); err != nil {
			fail("%v", err)
		}
		for _, c := range children {
			walk(c)
		}
	}
	walk(w.got.root)
}

// encodedAsDecoded holds every page of a tree that BulkLoad built — all
// fresh pages, written once — to the bytes writeLeaf or writeInternal
// writes on a zero page for the page's decoded content.
func encodedAsDecoded(t *testing.T, tr *Tree) {
	t.Helper()
	pages, err := tr.WalkPages(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range pages {
		p, err := tr.pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		var want store.Page
		if pageType(p) == leafType {
			writeLeaf(&want, readLeaf(p))
		} else {
			writeInternal(&want, readInternal(p))
		}
		if !bytes.Equal(p.Data(), want.Data()) {
			t.Fatalf("bulk-loaded page %d is not what the node encoders write for it", pid)
		}
		if err := tr.pool.Unpin(pid, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInPlaceWriterMatchesDecoded runs seeded insert, replace and delete
// sequences through both writers on an eight-frame pool, unsealed and
// sealed (copy-on-write, with the retired pages freed and reused), and
// after every operation compares what compare compares. The sequences grow
// the tree from one leaf to three levels and shrink it back: leaf and
// internal splits, merges and redistributions, root growth and root
// collapse.
func TestInPlaceWriterMatchesDecoded(t *testing.T) {
	for _, sealEvery := range []int{0, 5} {
		name := "unsealed"
		if sealEvery > 0 {
			name = "sealed"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(44 + int64(sealEvery)))
			w := newTwin(t, 8)
			var live []KV
			payload := func(kv KV) Payload {
				p := payloadFor(kv)
				p[PayloadSize-1] = byte(rng.Intn(256))
				return p
			}
			// grown and collapsed record the heights the root grew to and
			// collapsed to.
			grown, collapsed := map[int]bool{}, map[int]bool{}
			step := func(kv KV, insert bool) {
				if sealEvery > 0 && w.ops%sealEvery == 0 {
					w.seal(t)
				}
				h := w.got.Height()
				if insert {
					w.insert(t, kv, payload(kv))
				} else {
					w.delete(t, kv)
				}
				switch hh := w.got.Height(); {
				case hh > h:
					grown[hh] = true
				case hh < h:
					collapsed[hh] = true
				}
			}
			// churn runs n operations: a new key with weight pInsert (of
			// 10), else a replace or a delete of a live key, or of a key
			// the tree lacks. keys draws new keys.
			churn := func(n, pInsert int, keys func() KV) {
				for i := 0; i < n; i++ {
					switch r := rng.Intn(10); {
					case r < pInsert || len(live) == 0:
						kv := keys()
						step(kv, true)
						if !slices.Contains(live, kv) {
							live = append(live, kv)
						}
					case r == pInsert:
						step(live[rng.Intn(len(live))], true)
					case r == pInsert+1:
						step(KV{Key: rng.Uint64()}, false)
					default:
						j := rng.Intn(len(live))
						step(live[j], false)
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
			}
			random := func(space uint64) func() KV {
				return func() KV { return KV{Key: rng.Uint64() % space, UID: uint32(rng.Intn(3))} }
			}
			// One leaf to two levels and back to one.
			churn(600, 7, random(1<<20))
			churn(800, 2, random(1<<20))

			// Two levels to three: a root over 193 leaves of bulkLeafFill
			// entries each, bulk loaded; then enough new keys into each
			// leaf in turn to split it, until the root splits and eight
			// leaves more, which fills the lower internal node past half;
			// then the largest keys are deleted, which merges leaves,
			// underflows the upper internal node into redistributions and
			// then a merge, and collapses the root.
			const bulk = 193 * bulkLeafFill
			items := make([]Item, bulk)
			for i := range items {
				kv := KV{Key: uint64(i) << 20}
				items[i] = Item{KV: kv, Payload: payloadFor(kv)}
			}
			for _, tr := range []*Tree{w.got, w.ref} {
				for _, kv := range live {
					if _, err := tr.Delete(kv); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.BulkLoad(items); err != nil {
					t.Fatal(err)
				}
			}
			live = live[:0]
			for _, it := range items {
				live = append(live, it.KV)
			}
			for _, tr := range []*Tree{w.got, w.ref} {
				encodedAsDecoded(t, tr)
			}
			w.compare(t, "BulkLoad")
			for leaf, more := uint64(0), 8; more > 0; leaf++ {
				if w.got.Height() == 3 {
					more--
				}
				for k := uint64(1); k <= LeafCapacity+1-bulkLeafFill; k++ {
					kv := KV{Key: leaf*bulkLeafFill<<20 | k}
					step(kv, true)
					live = append(live, kv)
				}
			}
			churn(400, 4, random(uint64(bulk)<<20))
			slices.SortFunc(live, func(a, b KV) int {
				if a.Less(b) {
					return -1
				}
				return 1
			})
			for w.got.Height() == 3 {
				kv := live[len(live)-1]
				live = live[:len(live)-1]
				step(kv, false)
			}
			if !grown[2] || !grown[3] || !collapsed[1] || !collapsed[2] {
				t.Fatalf("the root grew to %v and collapsed to %v only",
					slices.Sorted(maps.Keys(grown)), slices.Sorted(maps.Keys(collapsed)))
			}
			if err := w.got.Check(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d operations", w.ops)
		})
	}
}
