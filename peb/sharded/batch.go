package sharded

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/peb"
)

// Batch stages mutations for atomic cross-shard application by DB.Apply.
// Like peb.Batch, staging never touches the database; unlike it, the
// staged operations may end up owned by several shards, and Apply then
// commits them as one record in one shard's log, so the whole batch is
// all-or-nothing — in memory and across a crash — even though every shard
// logs independently. A Batch is not safe for concurrent use.
type Batch struct {
	// ops are the movement updates and removals, routed at Apply time (a
	// removal sets only obj.UID); pol holds the policy operations, all
	// bound for the policy engine.
	ops []batchOp
	pol peb.Batch
}

type batchOp struct {
	obj    Object
	remove bool
}

// NewBatch returns an empty staging buffer.
func (db *DB) NewBatch() *Batch { return &Batch{} }

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) + b.pol.Len() }

// Upsert stages a movement update.
func (b *Batch) Upsert(o Object) {
	b.ops = append(b.ops, batchOp{obj: o})
}

// Remove stages deletion of a user's index entry. Removing a user with no
// index entry fails the whole batch at Apply time.
func (b *Batch) Remove(uid UserID) {
	b.ops = append(b.ops, batchOp{obj: Object{UID: uid}, remove: true})
}

// DefineRelation stages a role relation (committed on the policy engine).
func (b *Batch) DefineRelation(owner, peer UserID, role Role) {
	b.pol.DefineRelation(owner, peer, role)
}

// Grant stages a location-privacy policy (committed on the policy engine).
func (b *Batch) Grant(owner UserID, role Role, locr Region, tint TimeInterval) {
	b.pol.Grant(owner, role, locr, tint)
}

// ownerTombstone marks a user the batch removes in the pending owner-map
// delta.
const ownerTombstone = -1

// policiesID is the policy engine's participant id in coordinator
// records: no shard's, since the manifest holds ids below it.
const policiesID = math.MaxInt32

// part is one participant of a router commit: a shard, or the policy
// engine (slot -1), with its stable id and the sub-batch staged for it.
type part struct {
	eng  *peb.DB
	id   int
	slot int
	b    *peb.Batch
}

// String names the participant in errors.
func (p part) String() string {
	if p.slot < 0 {
		return "policy engine"
	}
	return fmt.Sprintf("shard %d", p.slot)
}

// participants lists every engine a commit can involve, each with an
// empty sub-batch: the shards in slot order, then the policy engine.
func (db *DB) participants() []part {
	all := make([]part, 0, len(db.shards)+1)
	for i, s := range db.shards {
		all = append(all, part{eng: s, id: db.metas[i].id, slot: i, b: s.NewBatch()})
	}
	return append(all, part{eng: db.pe, id: policiesID, slot: -1, b: db.pe.NewBatch()})
}

// staged keeps the participants whose sub-batch holds operations.
func staged(all []part) []part {
	var parts []part
	for _, p := range all {
		if p.b.Len() > 0 {
			parts = append(parts, p)
		}
	}
	return parts
}

// Apply applies the batch atomically. The batch is split by participant —
// movement updates go to the shard owning the new position (plus an
// eviction from the previous owner when the user moves across a boundary),
// policy operations go to the policy engine — and then:
//
//   - a batch with a single participant stages through that engine's
//     atomic Apply (a policy-only batch is one commit on the policy
//     engine) and waits for its durability after releasing the barrier;
//   - a batch with several commits as one record: every participant
//     validates its part (peb.DB.Prepare), so a refused batch writes
//     nothing and the error names the lowest failing shard slot (the
//     policy engine counts after every shard); the coordinator — the
//     lowest participating slot — logs every part in one record, and that
//     record's single fsync, taken under the barrier, is the commit point;
//     every participant applies its part while the record is written and
//     holds it until then, and only then logs a sub-record that its
//     shard's next sync makes durable (peb.Prepared.Commit).
//
// Either way the batch becomes visible under the write barrier, all at
// once, and Apply returns once it is durable. Apply holds its users' locks
// from before it prepares to its return, so it waits for any of their
// routed writes still in their fsync, and a routed write of theirs waits
// for it.
//
// After a crash, Open redoes each part a participant lacks from the
// coordinator's record (finishRecovered), so the batch is all-or-nothing
// across shards. A failure after the coordinator's record is appended
// fail-stops the router (ErrFailStop). Without durability the same
// protocol runs without logs: atomicity holds in memory.
func (db *DB) Apply(b *Batch) error {
	db.smu.Lock()
	if db.closed {
		db.smu.Unlock()
		return ErrClosed
	}
	if b == nil || b.Len() == 0 {
		db.smu.Unlock()
		return nil
	}
	var users userSet
	for i := range b.ops {
		users.add(b.ops[i].obj.UID)
	}
	db.lockUsers(users)
	defer db.unlockUsers(users)
	s, err := db.applyLocked(b)
	db.smu.Unlock()
	if err != nil {
		return err
	}
	return s.Wait()
}

// applyLocked routes and commits a batch (see Apply). The caller holds the
// write barrier and the batch's user locks.
func (db *DB) applyLocked(b *Batch) (peb.Staged, error) {
	// Split by participant. ownerDelta tracks the routing consequences in
	// batch order, so multi-step sequences on one user (upsert here, then
	// there) stage the right inserts and evictions.
	all := db.participants()
	all[len(all)-1].b = &b.pol
	ownerDelta := make(map[UserID]int)
	ownerOf := func(uid UserID) (int, bool) {
		if d, ok := ownerDelta[uid]; ok {
			if d == ownerTombstone {
				return 0, false
			}
			return d, true
		}
		db.ownMu.Lock()
		idx, ok := db.owner[uid]
		db.ownMu.Unlock()
		return idx, ok
	}
	for i := range b.ops {
		op := &b.ops[i]
		uid := op.obj.UID
		cur, had := ownerOf(uid)
		if op.remove {
			if !had {
				return peb.Staged{}, fmt.Errorf("sharded: apply: remove of unindexed user %d", uid)
			}
			all[cur].b.Remove(uid)
			ownerDelta[uid] = ownerTombstone
			continue
		}
		target := db.shardOf(op.obj.X, op.obj.Y)
		all[target].b.Upsert(op.obj)
		if had && cur != target {
			all[cur].b.Remove(uid)
		}
		ownerDelta[uid] = target
	}
	s, committed, err := db.commitParts(staged(all))
	if committed {
		db.applyOwnerDelta(ownerDelta)
	}
	return s, err
}

// commitParts atomically commits the participants' staged sub-batches: a
// single participant stages through its own atomic Apply, several commit
// as one coordinator record (see Apply). Shared by Apply — a re-homing
// Upsert among its callers — and the resharding migration loop
// (reshard.go), so every move of a user between shards has the same
// all-or-nothing guarantees.
// The caller holds the write barrier and the user locks of every user the
// parts touch.
//
// The returned handle is the single participant's commit, for the caller
// to wait on once it has released the barrier; a cross-shard commit is
// durable at its commit point and returns the zero handle. committed
// reports whether the transaction is committed (it can be true alongside
// a non-nil error: the policy engine's part committed but the shards could
// not be pointed at its store). A cross-shard commit that fails
// fail-stops the router, and the reopen decides it.
func (db *DB) commitParts(parts []part) (s peb.Staged, committed bool, err error) {
	if len(parts) == 0 {
		return s, true, nil
	}

	// Single participant: its own atomic Apply is all the protocol needed.
	if len(parts) == 1 {
		if s, err = parts[0].eng.StageApply(parts[0].b); err != nil {
			return s, false, err
		}
		return s, true, db.noteCommitted(parts)
	}

	// Cross-shard. Every participant validates its part before anything is
	// logged; slot order makes the lowest failing slot name the failure.
	prepared := make([]*peb.Prepared, len(parts))
	for j, p := range parts {
		if prepared[j], err = p.eng.Prepare(p.b, p.id); err != nil {
			return s, false, fmt.Errorf("sharded: apply: %s: %w", p, err)
		}
	}
	// Release the holds whose parts became durable since the last commit.
	db.settle(false)
	txnID := db.allocTxn()
	// The participants apply their parts one after another while the
	// coordinator's record is on its way to the disk: a part costs tens
	// of microseconds, less than handing it to another goroutine and
	// waking a processor for it on a small machine.
	if err := prepared[0].Commit(txnID, prepared[1:]); err != nil {
		return s, false, db.failStop(txnID, err)
	}
	db.txnMu.Lock()
	db.unsettled = append(db.unsettled, prepared)
	backlog := len(db.unsettled)
	db.txnMu.Unlock()
	if backlog > maxUnsettled {
		// Participants that take no commit of their own never sync their
		// parts, and the coordinators would hold their logs for good: sync
		// the backlog, one fsync per lagging engine. A failed sync
		// poisoned that engine's log; its next commit reports it.
		_ = db.settle(true)
	}
	return s, true, db.noteCommitted(parts)
}

// maxUnsettled bounds how many committed transactions may wait for their
// parts to become durable before a commit syncs them. The bound caps both
// the log a coordinator holds and settle's scan, which every cross-shard
// commit pays; the forced sync costs at most one fsync per engine, shared
// by the whole backlog. A participant that commits on its own keeps the
// backlog near zero and the sync never fires (TestUnsettledBacklogBounded
// pins the case where none does).
const maxUnsettled = 64

// failStop closes the router on a cross-shard commit it cannot finish: the
// coordinator's record may or may not be durable, or a participant could
// not apply or log its part. The error names the participant. Every engine
// is closed, later calls get ErrClosed, and the reopen decides the
// transaction by the coordinator's log alone. The caller holds the write
// barrier.
func (db *DB) failStop(txnID uint64, cause error) error {
	db.events.Record("txn.failstop", "cross-shard commit failed; router fail-stopped",
		"txn", txnID, "err", cause)
	_ = db.closeLocked()
	return fmt.Errorf("%w: transaction %d: %v", ErrFailStop, txnID, cause)
}

// noteCommitted records a committed transaction's writes on its shards
// (noteWrite) and, when the policy engine took part, points every shard
// at its store again (syncPolicies).
func (db *DB) noteCommitted(parts []part) error {
	for _, p := range parts {
		if p.slot < 0 {
			return db.syncPolicies() // the policy engine is the last participant
		}
		db.noteWrite(p.slot)
	}
	return nil
}

// allocTxn hands out the next transaction id (above every participant's
// watermark).
func (db *DB) allocTxn() uint64 {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	id := db.nextTxn
	db.nextTxn++
	return id
}

// settle releases the coordinators' holds on their logs for every
// committed transaction whose other parts are all durable: no participant
// can then recover without its part, so the coordinator's record is no
// longer needed. Lazily (force false) it only reads durability, at no
// fsync cost; force syncs the parts first, stopping at the first sync
// error, which it returns with the transactions left unsettled.
func (db *DB) settle(force bool) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	var firstErr error
	kept := db.unsettled[:0]
	for _, txn := range db.unsettled {
		settled := true
		for _, p := range txn[1:] {
			if force && firstErr == nil && !p.Durable() {
				firstErr = p.Sync()
			}
			settled = settled && p.Durable()
		}
		if !settled {
			kept = append(kept, txn)
			continue
		}
		txn[0].Release()
	}
	clear(db.unsettled[len(kept):])
	db.unsettled = kept
	return firstErr
}

// finishRecovered redoes, on every participant that lacks it, its part of
// each transaction whose coordinator record recovery found. A participant
// holds transaction T if and only if its watermark (MaxTxnID) is at least
// T: the router commits one transaction at a time, and every log and
// checkpoint is a prefix of its engine's history. Parts are redone in
// transaction order, each durable before the next. A participant the
// manifest no longer lists lacks nothing: Merge settled every transaction
// its source took part in before dropping it.
func (db *DB) finishRecovered() error {
	all := db.participants()
	byID := make(map[int]part, len(all))
	var parts []*peb.Prepared
	for _, p := range all {
		byID[p.id] = p
		parts = append(parts, p.eng.Coordinated()...)
	}
	slices.SortStableFunc(parts, func(a, b *peb.Prepared) int {
		ta, _ := a.Txn()
		tb, _ := b.Txn()
		return cmp.Compare(ta, tb)
	})
	for _, p := range parts {
		txnID, id := p.Txn()
		e, listed := byID[id]
		if !listed || e.eng.MaxTxnID() >= txnID {
			continue
		}
		if err := e.eng.Redo(p); err != nil {
			return fmt.Errorf("sharded: redo transaction %d on %s: %w", txnID, e, err)
		}
		db.events.Record("txn.recover", "cross-shard part redone from its coordinator's record",
			"txn", txnID, "shard", id)
	}
	return nil
}

// applyOwnerDelta folds a committed batch's routing changes into the owner
// map.
func (db *DB) applyOwnerDelta(delta map[UserID]int) {
	db.ownMu.Lock()
	defer db.ownMu.Unlock()
	for uid, d := range delta {
		if d == ownerTombstone {
			delete(db.owner, uid)
		} else {
			db.owner[uid] = d
		}
	}
}
