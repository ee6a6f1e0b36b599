package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// Page layout
//
// Every node occupies one 4 KB page:
//
//	byte 0      node type (leafType or internalType)
//	byte 1      reserved
//	bytes 2-3   entry count (uint16)
//	bytes 4-7   leaf: reserved (zero); internal: leftmost child page id
//	bytes 8-11  reserved
//	bytes 12-   entries
//
// A leaf entry is (key uint64, uid uint32, payload [PayloadSize]byte).
// An internal entry is (sepKey uint64, sepUID uint32, child PageID); the
// separator at index i is the smallest KV reachable through child i+1.
//
// Leaves carry no sibling pointers: scans walk the tree with a descent
// stack instead (see Cursor). A chain pointer cannot survive copy-on-write
// — copying one leaf would stale its left sibling's pointer — and the
// snapshot design (Seal) depends on never rewriting a sealed page. Bytes
// 4–7 of a leaf are reserved so pages written by earlier versions (which
// stored a sibling id there) remain readable.
const (
	leafType     = 1
	internalType = 2

	headerSize = 12

	// PayloadSize is the fixed number of payload bytes stored with every
	// key. 40 bytes holds a moving-object state (x, y, vx, vy, t as
	// float64), the leaf record format of Sec. 5.2.
	PayloadSize = 40

	leafEntrySize     = 8 + 4 + PayloadSize
	internalEntrySize = 8 + 4 + 4

	// LeafCapacity and InternalCapacity are the per-node fanouts implied
	// by the 4 KB page size. The cost model (Sec. 6) uses LeafCapacity to
	// estimate the leaf count Nl.
	LeafCapacity     = (store.PageSize - headerSize) / leafEntrySize
	InternalCapacity = (store.PageSize - headerSize) / internalEntrySize

	minLeafEntries     = LeafCapacity / 2
	minInternalEntries = InternalCapacity / 2
)

// KV is the composite key of every tree entry: the index key (a Bx or PEB
// key value) plus the user id, which disambiguates users that share a key.
type KV struct {
	Key uint64
	UID uint32
}

// Less orders KVs lexicographically by (Key, UID).
func (a KV) Less(b KV) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.UID < b.UID
}

// Compare orders KVs as Less does, returning -1, 0 or +1.
func (a KV) Compare(b KV) int {
	return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.UID, b.UID))
}

// String implements fmt.Stringer.
func (a KV) String() string { return fmt.Sprintf("(%d,%d)", a.Key, a.UID) }

// Payload is the fixed-size record stored with each leaf entry.
type Payload [PayloadSize]byte

// leafEntry is the in-memory form of a leaf slot.
type leafEntry struct {
	kv      KV
	payload Payload
}

// pageType reads the node type byte.
func pageType(p *store.Page) byte { return p.Data()[0] }

// pageCount reads the entry count.
func pageCount(p *store.Page) int { return int(p.Uint16(2)) }

// node is one node page's bytes — a pinned page's Data(), or a pageImage
// copied from one — and the codec that reads and edits the node where it
// lies. The read path (cursor.go) searches and iterates through it; the
// write path (btree.go, delete.go) searches, inserts, replaces and removes
// entries and rewrites child links through it, moving bytes inside the
// page, and BulkLoad fills fresh pages through it. Only underflow
// rebalancing, Check and WalkPages decode or encode whole nodes (readLeaf,
// readInternal, writeLeaf, writeInternal below).
//
// Every edit leaves the page byte for byte as writeLeaf or writeInternal
// would leave it for the same entries: the header in full, the entries,
// and — past the count — whatever the page held before.
type node []byte

func (n node) typ() byte  { return n[0] }
func (n node) count() int { return int(binary.LittleEndian.Uint16(n[2:])) }

// entrySize is the width of one of n's entries. Like the descent, it
// takes any page that is not internal for a leaf.
func (n node) entrySize() int {
	if n.typ() == internalType {
		return internalEntrySize
	}
	return leafEntrySize
}

// entries returns the bytes of entries [i, j).
func (n node) entries(i, j int) []byte {
	es := n.entrySize()
	return n[headerSize+i*es : headerSize+j*es]
}

// prefix returns the header and the first c entries: the bytes an image or
// a copy-on-write copy of the node needs.
func (n node) prefix(c int) []byte { return n[:headerSize+c*n.entrySize()] }

// leafKey returns the composite key of leaf entry i.
func (n node) leafKey(i int) KV {
	off := headerSize + i*leafEntrySize
	return KV{Key: binary.LittleEndian.Uint64(n[off:]), UID: binary.LittleEndian.Uint32(n[off+8:])}
}

// leafPayload returns a view of leaf entry i's payload inside the node.
func (n node) leafPayload(i int) *Payload {
	off := headerSize + i*leafEntrySize + 12
	return (*Payload)(n[off : off+PayloadSize])
}

// searchLeaf returns the index of the first leaf entry >= kv and whether
// that entry equals kv exactly.
func (n node) searchLeaf(kv KV) (int, bool) {
	c := n.count()
	lo, hi := 0, c
	for lo < hi {
		mid := (lo + hi) / 2
		if n.leafKey(mid).Less(kv) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < c && n.leafKey(lo) == kv
}

// sep returns separator i of an internal node.
func (n node) sep(i int) KV {
	off := headerSize + i*internalEntrySize
	return KV{Key: binary.LittleEndian.Uint64(n[off:]), UID: binary.LittleEndian.Uint32(n[off+8:])}
}

// child returns child i (0..count) of an internal node.
func (n node) child(i int) store.PageID {
	if i == 0 {
		return store.PageID(binary.LittleEndian.Uint32(n[4:]))
	}
	return store.PageID(binary.LittleEndian.Uint32(n[headerSize+(i-1)*internalEntrySize+12:]))
}

// childIndex returns which child of an internal node covers kv: the number
// of separators <= kv (entries equal to a separator live in the right
// child).
func (n node) childIndex(kv KV) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if kv.Less(n.sep(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// setCount sets the entry count and writes the rest of the header as
// writeLeaf and writeInternal do: the reserved bytes zero, a leaf's bytes
// 4–7 too. The type byte, and an internal node's leftmost child, stay.
func (n node) setCount(c int) {
	n[1] = 0
	binary.LittleEndian.PutUint16(n[2:], uint16(c))
	if n.typ() != internalType {
		binary.LittleEndian.PutUint32(n[4:], 0)
	}
	binary.LittleEndian.PutUint32(n[8:], 0)
}

// setChild points child i (0..count) of an internal node at id.
func (n node) setChild(i int, id store.PageID) {
	off := 4
	if i > 0 {
		off = headerSize + (i-1)*internalEntrySize + 12
	}
	binary.LittleEndian.PutUint32(n[off:], uint32(id))
}

// putLeaf writes leaf entry i.
func (n node) putLeaf(i int, kv KV, payload *Payload) {
	off := headerSize + i*leafEntrySize
	binary.LittleEndian.PutUint64(n[off:], kv.Key)
	binary.LittleEndian.PutUint32(n[off+8:], kv.UID)
	copy(n[off+12:off+12+PayloadSize], payload[:])
}

// putSep writes internal entry i: separator i and child i+1.
func (n node) putSep(i int, sep KV, right store.PageID) {
	off := headerSize + i*internalEntrySize
	binary.LittleEndian.PutUint64(n[off:], sep.Key)
	binary.LittleEndian.PutUint32(n[off+8:], sep.UID)
	binary.LittleEndian.PutUint32(n[off+12:], uint32(right))
}

// open shifts entries [i, count) up one slot and counts one entry more;
// the caller writes slot i. n must have room for the extra entry.
func (n node) open(i int) {
	c := n.count()
	copy(n.entries(i+1, c+1), n.entries(i, c))
	n.setCount(c + 1)
}

// remove shifts entries (i, count) down over entry i and counts one entry
// less. The last slot keeps its bytes, as writeLeaf leaves them.
func (n node) remove(i int) {
	c := n.count()
	copy(n.entries(i, c-1), n.entries(i+1, c))
	n.setCount(c - 1)
}

// overflow is a node with room for one entry past a page's capacity: the
// image a split stages its n+1 entries in before it copies each half out.
type overflow [store.PageSize + leafEntrySize]byte

// readLeaf decodes a leaf page into entries.
func readLeaf(p *store.Page) []leafEntry {
	n := pageCount(p)
	entries := make([]leafEntry, n)
	for i := 0; i < n; i++ {
		off := headerSize + i*leafEntrySize
		entries[i].kv.Key = p.Uint64(off)
		entries[i].kv.UID = p.Uint32(off + 8)
		copy(entries[i].payload[:], p.Data()[off+12:off+12+PayloadSize])
	}
	return entries
}

// writeLeaf encodes entries into a leaf page.
func writeLeaf(p *store.Page, entries []leafEntry) {
	if len(entries) > LeafCapacity {
		panic(fmt.Sprintf("btree: writing %d entries to leaf (cap %d)", len(entries), LeafCapacity))
	}
	d := p.Data()
	d[0] = leafType
	d[1] = 0
	p.PutUint16(2, uint16(len(entries)))
	p.PutUint32(4, 0)
	p.PutUint32(8, 0)
	for i, e := range entries {
		off := headerSize + i*leafEntrySize
		p.PutUint64(off, e.kv.Key)
		p.PutUint32(off+8, e.kv.UID)
		copy(d[off+12:off+12+PayloadSize], e.payload[:])
	}
	p.MarkDirty()
}

// internalNode is the in-memory form of an internal page: len(children) is
// always len(seps)+1, and seps[i] separates children[i] from children[i+1].
type internalNode struct {
	seps     []KV
	children []store.PageID
}

// readInternal decodes an internal page.
func readInternal(p *store.Page) internalNode {
	n := pageCount(p)
	in := internalNode{
		seps:     make([]KV, n),
		children: make([]store.PageID, n+1),
	}
	in.children[0] = store.PageID(p.Uint32(4))
	for i := 0; i < n; i++ {
		off := headerSize + i*internalEntrySize
		in.seps[i].Key = p.Uint64(off)
		in.seps[i].UID = p.Uint32(off + 8)
		in.children[i+1] = store.PageID(p.Uint32(off + 12))
	}
	return in
}

// writeInternal encodes an internal node into its page.
func writeInternal(p *store.Page, in internalNode) {
	if len(in.children) != len(in.seps)+1 {
		panic(fmt.Sprintf("btree: internal node with %d seps, %d children", len(in.seps), len(in.children)))
	}
	if len(in.seps) > InternalCapacity {
		panic(fmt.Sprintf("btree: writing %d seps to internal (cap %d)", len(in.seps), InternalCapacity))
	}
	d := p.Data()
	d[0] = internalType
	d[1] = 0
	p.PutUint16(2, uint16(len(in.seps)))
	p.PutUint32(4, uint32(in.children[0]))
	p.PutUint32(8, 0)
	for i, s := range in.seps {
		off := headerSize + i*internalEntrySize
		p.PutUint64(off, s.Key)
		p.PutUint32(off+8, s.UID)
		p.PutUint32(off+12, uint32(in.children[i+1]))
	}
	p.MarkDirty()
}
