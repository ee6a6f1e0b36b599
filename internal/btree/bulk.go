package btree

import (
	"fmt"

	"repro/internal/store"
)

// Item is one entry for BulkLoad.
type Item struct {
	KV      KV
	Payload Payload
}

// bulkLeafFill and bulkInternalFill are the target occupancies of
// bulk-built nodes: denser than the ~50% incremental splits converge to,
// so a bulk-loaded tree has fewer pages and cheaper scans, while leaving
// headroom so the first trickle of post-load inserts does not split every
// leaf it touches.
const (
	bulkLeafFill     = LeafCapacity * 3 / 4
	bulkInternalFill = (InternalCapacity + 1) * 3 / 4 // children per node
)

// BulkLoad replaces an empty tree's contents with items, which must be in
// strictly ascending KV order. The tree is built bottom-up: leaves are
// written left-to-right at bulkLeafFill occupancy and each separator level
// is assembled on top, so every page is allocated, written once, and never
// revisited — where repeated Insert would descend, split, and re-dirty
// pages throughout the load. Entry counts are balanced within each level,
// so every non-root node meets its minimum occupancy.
//
// BulkLoad participates in copy-on-write like any mutation: all pages it
// writes are fresh, the superseded empty root is retired or freed, and a
// surrounding Txn rolls the whole build back.
func (t *Tree) BulkLoad(items []Item) error {
	if t.size != 0 {
		return fmt.Errorf("btree: BulkLoad into non-empty tree (%d entries)", t.size)
	}
	if len(items) == 0 {
		return nil
	}
	for i := 1; i < len(items); i++ {
		if !items[i-1].KV.Less(items[i].KV) {
			return fmt.Errorf("btree: BulkLoad items not strictly ascending at %d (%v, %v)",
				i, items[i-1].KV, items[i].KV)
		}
	}
	t.mutated = true

	// The empty root leaf is superseded by the built tree.
	if _, err := t.pool.Fetch(t.root); err != nil {
		return err
	}
	if err := t.discardPinned(t.root); err != nil {
		return err
	}
	t.leafCount = 0

	// childRef carries what the level above needs: the subtree's smallest
	// key (the separator) and its page.
	type childRef struct {
		first KV
		pid   store.PageID
	}

	// Leaf level.
	counts := balancedChunks(len(items), bulkLeafFill, minLeafEntries)
	level := make([]childRef, 0, len(counts))
	off := 0
	for _, c := range counts {
		chunk := items[off : off+c]
		off += c
		p, err := t.allocPage()
		if err != nil {
			return fmt.Errorf("btree: bulk leaf: %w", err)
		}
		leaf := node(p.Data())
		leaf[0] = leafType
		for j := range chunk {
			leaf.putLeaf(j, chunk[j].KV, &chunk[j].Payload)
		}
		leaf.setCount(c)
		pid := p.ID()
		if err := t.pool.Unpin(pid, true); err != nil {
			return err
		}
		level = append(level, childRef{first: chunk[0].KV, pid: pid})
		t.leafCount++
	}

	// Separator levels, bottom-up, until one root remains.
	height := 1
	for len(level) > 1 {
		counts := balancedChunks(len(level), bulkInternalFill, minInternalEntries+1)
		next := make([]childRef, 0, len(counts))
		off := 0
		for _, c := range counts {
			group := level[off : off+c]
			off += c
			p, err := t.allocPage()
			if err != nil {
				return fmt.Errorf("btree: bulk internal: %w", err)
			}
			in := node(p.Data())
			in[0] = internalType
			in.setChild(0, group[0].pid)
			for j, ch := range group[1:] {
				in.putSep(j, ch.first, ch.pid)
			}
			in.setCount(c - 1)
			pid := p.ID()
			if err := t.pool.Unpin(pid, true); err != nil {
				return err
			}
			next = append(next, childRef{first: group[0].first, pid: pid})
		}
		level = next
		height++
	}

	t.root = level[0].pid
	t.height = height
	t.size = len(items)
	return nil
}

// balancedChunks splits n items into chunks of at most `fill` and — when
// more than one chunk is needed — at least `min`, spreading items evenly.
func balancedChunks(n, fill, min int) []int {
	chunks := (n + fill - 1) / fill
	if chunks > 1 {
		if most := n / min; chunks > most {
			chunks = most
		}
	}
	if chunks < 1 {
		chunks = 1
	}
	base := n / chunks
	extra := n % chunks
	out := make([]int, chunks)
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}
