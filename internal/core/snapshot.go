package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/bxtree"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
)

// Snapshot captures everything a PEB-tree needs beyond its pages: the
// B+-tree linkage and the per-user sequence values (the policy-encoding
// output embedded in keys). Together with a flushed page store and a saved
// policy store, it allows reopening the index without reinsertion.
type Snapshot struct {
	Tree btree.Meta
	// SVs holds the fixed-point sequence value of every registered user
	// (indexed or not — grantors need values for query-range generation).
	SVs map[motion.UserID]uint64
}

// Snapshot returns the tree's persistence record. Flush the buffer pool
// (Pool().FlushAll()) before persisting the underlying disk.
func (t *Tree) Snapshot() Snapshot {
	svs := make(map[motion.UserID]uint64, len(t.svEnc))
	for uid, sv := range t.svEnc {
		svs[uid] = sv
	}
	return Snapshot{Tree: t.tree.Meta(), SVs: svs}
}

// OpenChecked re-attaches a PEB-tree to existing pages using a Snapshot,
// validating their structure against the store's size: maxPage, when
// non-zero, is the number of pages the backing device holds, and any node
// reference beyond it — or any node whose type or entry count is garbage —
// is reported as an error rather than a decode panic, so the snapshot may
// come from an untrusted source (a checkpoint file that may be truncated
// or mismatched with its page file). The in-memory bookkeeping (per-user
// keys and active time partitions) is rebuilt by one scan of the leaf
// chain; every scanned entry is validated against the snapshot's sequence
// values. It also returns the pages the validating walk reached: every
// page the image references.
func OpenChecked(cfg Config, pool *store.BufferPool, policies *policy.Store, snap Snapshot, maxPage store.PageID) (*Tree, []store.PageID, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if policies == nil {
		return nil, nil, fmt.Errorf("core: nil policy store")
	}
	bt, err := btree.Open(pool, snap.Tree)
	if err != nil {
		return nil, nil, err
	}
	// Validate reachability — and the meta's leaf count, which the cost
	// model reads — before the leaf scan below decodes anything: the scan
	// trusts node structure, the walk does not.
	reach, err := bt.WalkPages(maxPage)
	if err != nil {
		return nil, nil, err
	}
	t := &Tree{
		cfg:      cfg,
		tree:     bt,
		policies: policies,
		svEnc:    make(map[motion.UserID]uint64, len(snap.SVs)),
		cur:      make(map[motion.UserID]btree.KV),
		parts:    bxtree.NewPartitionTracker(cfg.Base),
	}
	for uid, sv := range snap.SVs {
		t.svEnc[uid] = sv
	}

	// Rebuild cur and the partition tracker from the leaf chain.
	var scanErr error
	err = bt.RangeScan(btree.KV{}, btree.KV{Key: ^uint64(0), UID: ^uint32(0)},
		func(kv btree.KV, p btree.Payload) bool {
			uid := motion.UserID(kv.UID)
			o := motion.DecodePayload(uid, p)
			wantKV, li, kerr := t.keyFor(o)
			if kerr != nil || wantKV != kv {
				scanErr = fmt.Errorf("core: entry for u%d (key %d) does not match its recomputed key", uid, kv.Key)
				return false
			}
			if _, dup := t.cur[uid]; dup {
				scanErr = fmt.Errorf("core: duplicate entries for u%d", uid)
				return false
			}
			t.cur[uid] = kv
			t.parts.Set(uid, li)
			return true
		})
	if err != nil {
		return nil, nil, err
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	if len(t.cur) != snap.Tree.Size {
		return nil, nil, fmt.Errorf("core: scanned %d entries, meta says %d", len(t.cur), snap.Tree.Size)
	}
	return t, reach, nil
}
