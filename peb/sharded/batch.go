package sharded

import (
	"fmt"
	"math"

	"repro/peb"
)

// Batch stages mutations for atomic cross-shard application by DB.Apply.
// Like peb.Batch, staging never touches the database; unlike it, the
// staged operations may end up owned by several shards, and Apply then
// commits them with a prepare/commit protocol so the whole batch is
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

// policiesID is the policy engine's participant id in prepared records:
// no shard's, since the manifest holds ids below it.
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
//   - a batch with a single participant commits directly through that
//     engine's atomic Apply (a policy-only batch is one commit on the
//     policy engine);
//   - a batch with several commits via two-phase commit: the
//     participants prepare concurrently (each validates and logs a
//     prepared record naming every participant, one fsync per
//     participant), and once every prepare is durable the transaction is
//     committed — the shards' logs carry the verdict, the router writes
//     nothing. The participants then apply their sub-batches and log
//     commit markers, which become durable with each shard's next sync. A
//     prepare failure aborts every participant that prepared, leaving no
//     trace of the batch, and the error names the lowest failing shard
//     slot (the policy engine counts after every shard).
//
// After a crash anywhere in the protocol, Open finishes every prepared
// record a shard recovered without a marker by one rule — committed if and
// only if every participant holds the record durably with no abort marker
// (see peb.Prepared) — so the batch is all-or-nothing across shards.
// Without durability the same protocol runs without logs: atomicity holds
// in memory.
func (db *DB) Apply(b *Batch) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if b == nil || b.Len() == 0 {
		return nil
	}

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
				return fmt.Errorf("sharded: apply: remove of unindexed user %d", uid)
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
	committed, err := db.commitParts(staged(all))
	if committed {
		db.applyOwnerDelta(ownerDelta)
	}
	return err
}

// commitParts atomically commits the participants' staged sub-batches: a
// single participant commits through its own atomic Apply, several commit
// via two-phase commit. Shared by Apply and the resharding migration loop
// (reshard.go), which moves objects between shards with exactly the same
// all-or-nothing guarantees as a user batch. The caller holds the write
// barrier.
//
// committed reports whether the transaction is committed (it can be true
// alongside a non-nil error: a participant's failed Commit fail-stops that
// engine's log, and its recovery commits the part again).
func (db *DB) commitParts(parts []part) (committed bool, err error) {
	if len(parts) == 0 {
		return true, nil
	}

	// Single participant: its own atomic Apply is all the protocol needed.
	if len(parts) == 1 {
		if err := parts[0].eng.Apply(parts[0].b); err != nil {
			return false, err
		}
		return true, db.noteCommitted(parts)
	}

	// Cross-shard: two-phase commit. The participants prepare
	// concurrently: under the write barrier they share nothing but each
	// shard's own log, so the round costs the slowest prepare, not the sum.
	txnID := db.allocTxn()
	ids := make([]int, len(parts))
	for j, p := range parts {
		ids[j] = p.id
	}
	prepared := make([]*peb.Prepared, len(parts))
	errs := make([]error, len(parts))
	scatter(len(parts), func(j int) {
		prepared[j], errs[j] = parts[j].eng.PrepareApply(parts[j].b, txnID, ids)
	})
	for j, err := range errs {
		if err == nil {
			continue
		}
		// The lowest failing slot names the failure, whichever prepare
		// finished first.
		if decided, aerr := abortAll(prepared); !decided {
			// A record may be on disk and no abort marker is durable, so
			// recovery may find every prepared record and commit. Fail
			// stop; restarting resolves every shard to the same verdict.
			db.closed = true
			db.events.Record("txn.indoubt", "abort marker unsynced; router fail-stopped",
				"txn", txnID, "parts", len(parts), "prepare_err", err, "abort_err", aerr)
			return false, fmt.Errorf("sharded: transaction %d in doubt (%s prepare: %v; abort: %v) — restart to resolve", txnID, parts[j], err, aerr)
		}
		db.events.Record("txn.abort", "cross-shard transaction aborted at prepare",
			"txn", txnID, "parts", len(parts), "shard", parts[j].id, "err", err)
		return false, fmt.Errorf("sharded: apply: %s: %w", parts[j], err)
	}

	// Every prepare is durable: the transaction is committed. The prepare
	// fsyncs carried the participants' earlier markers too, so settle first.
	db.settle(false)
	var firstErr error
	for _, p := range prepared {
		if err := p.Commit(); err != nil && firstErr == nil {
			// The transaction IS committed; the failure only fail-stops
			// that shard's log.
			firstErr = fmt.Errorf("sharded: apply: commit marker: %w", err)
		}
	}
	db.txnMu.Lock()
	db.unsettled = append(db.unsettled, prepared)
	db.txnMu.Unlock()
	if err := db.noteCommitted(parts); firstErr == nil {
		firstErr = err
	}
	return true, firstErr
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

// abortAll aborts every participant that may hold the prepared record (a
// nil slot logged nothing) and reports whether the abort is decided:
// nothing was logged, or some participant's abort marker is durable —
// each Abort waits for its own. It returns the first Abort error.
func abortAll(prepared []*peb.Prepared) (decided bool, firstErr error) {
	held, aborted := 0, 0
	for _, p := range prepared {
		if p == nil {
			continue
		}
		held++
		if err := p.Abort(); err == nil {
			aborted++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return held == 0 || aborted > 0, firstErr
}

// allocTxn hands out the next transaction id (above every id any
// participant could still hold a record for).
func (db *DB) allocTxn() uint64 {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	id := db.nextTxn
	db.nextTxn++
	return id
}

// settle releases the participants' holds on their logs for every
// committed transaction whose markers are all durable: no participant can
// then recover it markerless, so none will ask a peer whose checkpoint has
// dropped the record. Lazily (force false) it only reads durability, at
// no fsync cost; force syncs the markers first, stopping at the first
// sync error, which it returns with the transactions left unsettled.
func (db *DB) settle(force bool) error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	var firstErr error
	kept := db.unsettled[:0]
	for _, txn := range db.unsettled {
		settled := true
		for _, p := range txn {
			if force && firstErr == nil && !p.Durable() {
				firstErr = p.Sync()
			}
			settled = settled && p.Durable()
		}
		if !settled {
			kept = append(kept, txn)
			continue
		}
		for _, p := range txn {
			p.Release()
		}
	}
	clear(db.unsettled[len(kept):])
	db.unsettled = kept
	return firstErr
}

// finishRecovered decides every transaction a participant's recovery left
// pending by the commit rule: committed if and only if every participant
// holds its prepared record with no abort marker. A participant the
// manifest no longer lists holds nothing — Merge settled every transaction
// its source took part in before dropping it. Every verdict is taken
// before any handle finishes (a finished handle no longer counts as
// held), and each marker is durable before Open goes on, so no hold
// outlives recovery.
func (db *DB) finishRecovered() error {
	all := db.participants()
	byID := make(map[int]*peb.DB, len(all))
	for _, p := range all {
		byID[p.id] = p.eng
	}
	pending := make([]*peb.Prepared, len(all))
	commit := make([]bool, len(all))
	for i, e := range all {
		p := e.eng.Pending()
		if p == nil {
			continue
		}
		pending[i], commit[i] = p, true
		txnID, parts := p.Txn()
		for _, id := range parts {
			if e := byID[id]; e == nil || !e.HoldsTxn(txnID) {
				commit[i] = false
				break
			}
		}
	}
	for i, p := range pending {
		if p == nil {
			continue
		}
		txnID, _ := p.Txn()
		finish := p.Abort
		if commit[i] {
			finish = p.Commit
		}
		err := finish()
		if err == nil {
			err = p.Sync() // Abort synced already; Commit did not
		}
		p.Release()
		if err != nil {
			return fmt.Errorf("sharded: finish recovered transaction %d on %s: %w", txnID, all[i], err)
		}
		db.events.Record("txn.recover", "recovered cross-shard transaction finished",
			"txn", txnID, "shard", all[i].id, "commit", commit[i])
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
