package core

import (
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/motion"
)

// Batched index mutation. ApplyBatch applies a sequence of staged
// operations all-or-nothing: the B+-tree pages are bracketed by a
// transaction (btree.Txn), which keeps the before-image of every page it
// edits in place, and the in-memory tables record a first-touch undo log,
// so a mid-batch failure restores the exact pre-batch tree — a reader
// never observes a partially applied batch even if it reads the tree's
// state directly afterwards.

// BatchOpKind enumerates the staged operations.
type BatchOpKind uint8

const (
	// OpSetSV registers a sequence value for a user (new users appearing in
	// a bulk load get their singleton anchors staged this way).
	OpSetSV BatchOpKind = iota
	// OpUpsert inserts or replaces a user's movement state.
	OpUpsert
	// OpRemove deletes a user's index entry.
	OpRemove
)

// BatchOp is one staged index mutation.
type BatchOp struct {
	Kind BatchOpKind
	Obj  motion.Object // OpUpsert
	UID  motion.UserID // OpSetSV, OpRemove
	SV   float64       // OpSetSV
}

// ingestPlan is the analyzed form of a pure-ingest batch (OpSetSV and
// OpUpsert only): the staged sequence values, and one upsert per user —
// staging order makes the last one win; earlier ones are superseded state
// nobody could ever have observed — sorted by PEB key with the key and
// partition label precomputed.
type ingestPlan struct {
	svOps []BatchOp
	items []ingestItem
}

type ingestItem struct {
	obj motion.Object
	kv  btree.KV
	li  int64
}

// planIngest analyzes a pure-ingest batch into an ingestPlan. It returns
// ok=false — apply in staging order instead — when the batch contains any
// other operation or references a user whose key is not computable.
//
// Key-ordering an ingest batch is the classic sort-before-load
// optimization: successive inserts land on the same or adjacent leaves, so
// the load dirties each page once instead of evicting and re-reading it
// per object, and an empty tree can skip per-entry descent entirely
// (btree.BulkLoad). The final state is identical to staging order: an
// upsert is a full per-user replacement, independent of order across
// distinct users.
func (t *Tree) planIngest(ops []BatchOp) (ingestPlan, bool) {
	var plan ingestPlan
	nUpsert := 0
	for i := range ops {
		switch ops[i].Kind {
		case OpSetSV:
		case OpUpsert:
			nUpsert++
		default:
			return plan, false
		}
	}

	svs := make(map[motion.UserID]uint64, len(ops)-nUpsert)
	for i := range ops {
		if ops[i].Kind == OpSetSV {
			plan.svOps = append(plan.svOps, ops[i])
			if enc, err := t.cfg.SV.Encode(ops[i].SV); err == nil {
				svs[ops[i].UID] = enc
			}
		}
	}

	// Last upsert per user wins.
	lastIdx := make(map[motion.UserID]int, nUpsert)
	for i := range ops {
		if ops[i].Kind == OpUpsert {
			lastIdx[ops[i].Obj.UID] = i
		}
	}
	plan.items = make([]ingestItem, 0, len(lastIdx))
	for uid, i := range lastIdx {
		o := ops[i].Obj
		sv, ok := svs[uid]
		if !ok {
			if sv, ok = t.svEnc[uid]; !ok {
				return ingestPlan{}, false
			}
		}
		li := t.cfg.Base.LabelIndex(o.T)
		x, y := o.PositionAt(t.cfg.Base.LabelTime(li))
		zv := t.cfg.Base.CurveValue(x, y)
		key := t.cfg.Key(t.cfg.Base.PartitionOf(li), sv, zv)
		plan.items = append(plan.items, ingestItem{
			obj: o,
			kv:  btree.KV{Key: key, UID: uint32(uid)},
			li:  li,
		})
	}
	// The keys are unique (each carries its user), so the order is total.
	slices.SortFunc(plan.items, func(a, b ingestItem) int { return a.kv.Compare(b.kv) })
	return plan, true
}

// ordered flattens the plan back into an op list (SetSVs first, then the
// key-sorted upserts) for the general, per-entry application path.
func (p ingestPlan) ordered() []BatchOp {
	out := make([]BatchOp, 0, len(p.svOps)+len(p.items))
	out = append(out, p.svOps...)
	for i := range p.items {
		out = append(out, BatchOp{Kind: OpUpsert, Obj: p.items[i].obj})
	}
	return out
}

// applyBulk loads a pure-ingest plan into an empty index bottom-up: staged
// sequence values are registered, then the key-sorted entries build the
// B+-tree directly (btree.BulkLoad) — every page written exactly once at a
// controlled fill — and the per-user tables are populated from the plan.
// Runs inside the caller's txn/undo bracket like the general path.
func (t *Tree) applyBulk(plan ingestPlan) error {
	for i := range plan.svOps {
		if err := t.SetSV(plan.svOps[i].UID, plan.svOps[i].SV); err != nil {
			return err
		}
	}
	items := make([]btree.Item, len(plan.items))
	for i := range plan.items {
		items[i] = btree.Item{KV: plan.items[i].kv, Payload: motion.EncodePayload(plan.items[i].obj)}
	}
	if err := t.tree.BulkLoad(items); err != nil {
		return err
	}
	for i := range plan.items {
		it := &plan.items[i]
		uid := it.obj.UID
		t.touch(uid)
		t.cur[uid] = it.kv
		t.parts.Set(uid, it.li)
	}
	return nil
}

// userState is one user's complete in-memory bookkeeping: sequence value,
// current key, and partition label. The undo log snapshots it on first
// touch.
type userState struct {
	sv      uint64
	hasSV   bool
	kv      btree.KV
	hasKV   bool
	label   int64
	hasPart bool
}

// batchUndo records the prior userState of every user the batch touches.
type batchUndo struct {
	prior map[motion.UserID]userState
}

// touch snapshots uid's state on its first mutation within a batch. It is
// a no-op outside ApplyBatch.
func (t *Tree) touch(uid motion.UserID) {
	if t.undo == nil {
		return
	}
	if _, done := t.undo.prior[uid]; done {
		return
	}
	var s userState
	s.sv, s.hasSV = t.svEnc[uid]
	s.kv, s.hasKV = t.cur[uid]
	s.label, s.hasPart = t.parts.Label(uid)
	t.undo.prior[uid] = s
}

// revert restores every touched user's state.
func (u *batchUndo) revert(t *Tree) {
	for uid, s := range u.prior {
		if s.hasSV {
			t.svEnc[uid] = s.sv
		} else {
			delete(t.svEnc, uid)
		}
		if s.hasKV {
			t.cur[uid] = s.kv
		} else {
			delete(t.cur, uid)
		}
		if s.hasPart {
			t.parts.Set(uid, s.label)
		} else {
			t.parts.Remove(uid)
		}
	}
}

// ApplyBatch applies ops atomically: on the first error the tree is rolled
// back to its pre-batch state and that error is returned. On success the
// superseded pages are left in the retired list for the owner to collect
// (TakeRetired). The caller must hold exclusive access, exactly as for
// Insert/Delete.
//
// Pure-ingest batches (SetSV and Upsert only) are reordered for buffer
// locality before application — see orderForIngest; mixed batches apply in
// staging order.
func (t *Tree) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	if t.undo != nil {
		return fmt.Errorf("core: nested ApplyBatch")
	}
	plan, pureIngest := t.planIngest(ops)
	bulk := pureIngest && t.tree.Size() == 0
	if pureIngest && !bulk {
		ops = plan.ordered()
	}

	txn := t.tree.Begin()
	t.undo = &batchUndo{prior: make(map[motion.UserID]userState)}
	var err error
	if bulk {
		err = t.applyBulk(plan)
	} else {
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case OpSetSV:
				err = t.SetSV(op.UID, op.SV)
			case OpUpsert:
				err = t.Insert(op.Obj)
			case OpRemove:
				err = t.Delete(op.UID)
			default:
				err = fmt.Errorf("core: unknown batch op kind %d", op.Kind)
			}
			if err != nil {
				err = fmt.Errorf("core: batch op %d: %w", i, err)
				break
			}
		}
	}
	undo := t.undo
	t.undo = nil
	if err != nil {
		undo.revert(t)
		if rerr := txn.Rollback(); rerr != nil {
			return fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		return err
	}
	txn.Commit()
	return nil
}
