package peb

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/store"
)

// Logical write-ahead logging.
//
// Every committed mutation appends one walRecord describing the operation
// with all nondeterminism resolved: fresh sequence values are logged as
// explicit SetSV operations, and EncodePolicies logs the computed
// assignment rather than its inputs, so replay reproduces the committed
// state exactly without re-running the assignment algorithm.
//
// Commit protocol (commit.go): the mutation is applied in memory first
// (validating it), the record is appended under the write lock (so log
// order equals apply order), and the commit waits for the WAL sync *after*
// releasing the lock — which is what lets concurrent commits share one
// fsync (group commit). The published query view may therefore briefly
// show a commit that is not yet durable; a crash in that window loses only
// unacknowledged commits.
//
// Replay never double-applies: the meta file — the checkpoint's atomic
// commit point — names the exact policies snapshot and page image it
// pairs with (each checkpoint writes its policies under a fresh name), so
// recovery always starts from one checkpoint's complete state and applies
// only records past its WAL horizon. Policy operations are idempotent
// anyway (SetRelation by construction, AddPolicy deduplicates exact
// duplicates, load/encode replace state wholesale) as defense in depth.

// polOpKind enumerates the operations that write the policy store or
// rebuild the whole tree. The values are the record format's kind bytes;
// 0–2 belong to the index operations (core.OpSetSV, core.OpUpsert,
// core.OpRemove), which travel as core.BatchOp.
type polOpKind uint8

const (
	polOpRelation polOpKind = iota + 3
	polOpGrant
	polOpEncode
	polOpLoadPolicies
)

// assignRec is one user's entry of a logged sequence-value assignment.
type assignRec struct {
	UID UserID
	SV  float64
}

// polOp is one policy or rebuild operation. Exactly the fields for Kind
// are populated.
type polOp struct {
	Kind polOpKind

	Own  UserID       // polOpRelation, polOpGrant
	Peer UserID       // polOpRelation
	Role Role         // polOpRelation, polOpGrant
	Locr Region       // polOpGrant
	Tint TimeInterval // polOpGrant

	// polOpEncode: the assignment the index is rebuilt under. A nil Assign
	// handed to commit means "compute it" (EncodePolicies, LoadPolicies);
	// the resolved — logged — operation always carries one.
	Assign []assignRec
	MaxSV  float64
	Groups int

	// polOpLoadPolicies: the policy snapshot (policy.Store.Save format).
	Blob []byte
}

// opList is the unit a Batch stages, commit applies and a record logs:
// the policy and rebuild operations in staging order, and the index
// operations in staging order. The two groups are independent — policy
// changes influence queries, not the staged index keys — so their
// relative interleaving carries no meaning and is not kept.
type opList struct {
	Pol []polOp
	Idx []core.BatchOp
}

func (l opList) len() int { return len(l.Pol) + len(l.Idx) }

// Transaction states a record can carry (cross-shard two-phase commit;
// see prepared.go). Ordinary single-DB commits log txnNone records.
const (
	txnNone uint8 = iota
	// txnPrepared: the record's operations wait on a coordinator's
	// decision, in memory as on replay: they apply only once a later
	// txnCommitted marker (or the coordinator's resolver) confirms the
	// transaction.
	txnPrepared
	// txnCommitted / txnAborted: marker records (no operations) sealing a
	// prepared transaction's fate in this participant's log.
	txnCommitted
	txnAborted
)

// walRecord is one commit: a batch of operations applied atomically, plus
// the post-commit nextSV so replay restores the sequence-value cursor.
// TxnID/TxnState tie the record into a cross-shard transaction: zero for
// ordinary commits, the coordinator's transaction id for prepared records
// and their commit/abort markers.
type walRecord struct {
	Seq      uint64
	NextSV   float64
	Ops      opList
	TxnID    uint64
	TxnState uint8
}

// encodeAssignment flattens an assignment into deterministic (sorted)
// records for logging.
func encodeAssignment(a policy.Assignment) ([]assignRec, float64, int) {
	recs := make([]assignRec, 0, len(a.SV))
	for uid, sv := range a.SV {
		recs = append(recs, assignRec{UID: UserID(uid), SV: sv})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].UID < recs[j].UID })
	return recs, a.MaxSV, a.Groups
}

// decodeAssignment rebuilds the assignment a polOpEncode logged.
func decodeAssignment(op *polOp) policy.Assignment {
	a := policy.Assignment{
		SV:     make(map[policy.UserID]float64, len(op.Assign)),
		MaxSV:  op.MaxSV,
		Groups: op.Groups,
	}
	for _, r := range op.Assign {
		a.SV[policy.UserID(r.UID)] = r.SV
	}
	return a
}

// walAppendTxn logs one record: the resolved operations with the
// sequence-value cursor they leave, and for a cross-shard transaction its
// id and state (prepared records and their commit/abort markers). The
// caller holds the write lock and has already applied the operations in
// memory successfully — or, for a prepared record, checked that they
// apply. The returned token is passed to walSync after the lock is
// released. A nil WAL logs nothing.
//
// An append failure poisons the WAL: the in-memory state is ahead of the
// log, and accepting any later record would persist a history with a hole.
// All subsequent commits fail until the DB is reopened; reads and the
// already-applied mutation remain visible in memory.
func (db *DB) walAppendTxn(ops opList, nextSV float64, txnID uint64, txnState uint8) (store.WALToken, error) {
	if txnID > db.maxTxn {
		db.maxTxn = txnID
	}
	if db.wal == nil {
		return 0, nil
	}
	db.walSeq++
	rec := walRecord{Seq: db.walSeq, NextSV: nextSV, Ops: ops, TxnID: txnID, TxnState: txnState}
	// Encode into the DB's reusable buffer: the caller holds the write
	// lock, and Append copies the payload into the frame before returning,
	// so the buffer is free again by the next commit. After the first few
	// commits warm it up, encoding allocates nothing.
	db.encBuf = appendRecord(db.encBuf[:0], &rec)
	tok, err := db.wal.Append(db.encBuf)
	if err != nil {
		return 0, fmt.Errorf("peb: wal append: %w", err)
	}
	// The commit may have pushed the log over an AutoCheckpoint threshold;
	// nudge the maintainer (non-blocking).
	db.maybeAutoCheckpoint()
	return tok, nil
}

// walSync completes a commit: it blocks until the record is durable
// according to the configured durability level. Called without the write
// lock (that is the point — waiters here share fsyncs with concurrent
// committers). The WAL pointer is re-read under the read lock because a
// concurrent Close may detach it; Close syncs the log first, so a commit
// that finds the WAL gone is already durable.
func (db *DB) walSync(tok store.WALToken) error {
	if tok == 0 {
		return nil
	}
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w == nil {
		return nil
	}
	if err := w.Commit(tok); err != nil {
		return fmt.Errorf("peb: wal commit: %w", err)
	}
	return nil
}

// replayRecord re-applies one committed record — recovery and replicas.
// It is the commit pipeline's apply stage plus the record's cursors;
// nothing re-logs, no hook fires, and the caller publishes the view
// afterwards.
func (db *DB) replayRecord(rec walRecord) error {
	if err := db.applyOps(rec.Ops); err != nil {
		return err
	}
	db.nextSV = rec.NextSV
	if db.nextSV < 2 {
		db.nextSV = 2
	}
	db.walSeq = rec.Seq
	return nil
}

// txnReplay replays a log that may hold prepared records, for recovery
// (which has the whole log) and for a replica (which sees it arrive). A
// prepared record's fate is its marker's, wherever in the log that sits:
// committed, it applies at its own position; aborted, it is skipped with
// its sequence number consumed — the live participant never applied it, so
// the log minus the record replays to the same history, and the marker
// carries the unchanged sequence-value cursor.
type txnReplay struct {
	pending  []walRecord      // decoded, not yet replayed, in log order
	outcomes map[uint64]uint8 // transaction id → txnCommitted or txnAborted
}

// add decodes log frames onto the queue and notes the markers among them.
func (q *txnReplay) add(frames [][]byte) error {
	if q.outcomes == nil {
		q.outcomes = make(map[uint64]uint8)
	}
	for i, payload := range frames {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if rec.TxnState == txnCommitted || rec.TxnState == txnAborted {
			q.outcomes[rec.TxnID] = rec.TxnState
		}
		q.pending = append(q.pending, rec)
	}
	return nil
}

// drain replays the queue into db, taking the write lock record by record
// (a replica's readers run in between), and reports how many records it
// applied. A prepared record with no marker queued is decided by resolve
// — the coordinator's verdict, commit or abort; given no resolve, drain
// stops there and the record waits for its marker. Records at or below
// db.walSeq are already part of db's state and only pass through. Every
// transaction id seen raises db.maxTxn, so a coordinator never recycles
// it.
func (q *txnReplay) drain(db *DB, resolve func(txnID uint64) bool) (applied int, err error) {
	for len(q.pending) > 0 {
		rec := q.pending[0]
		commit := true
		if rec.TxnState == txnPrepared {
			state, decided := q.outcomes[rec.TxnID]
			if !decided {
				if resolve == nil {
					break
				}
				state = txnAborted
				if resolve(rec.TxnID) {
					state = txnCommitted
				}
				q.outcomes[rec.TxnID] = state
			}
			commit = state == txnCommitted
		}
		db.mu.Lock()
		if rec.TxnID > db.maxTxn {
			db.maxTxn = rec.TxnID
		}
		switch {
		case rec.Seq <= db.walSeq:
		case !commit:
			db.walSeq = rec.Seq
		default:
			err = db.replayRecord(rec)
			applied++
		}
		db.mu.Unlock()
		if err != nil {
			return applied, fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		q.pending = q.pending[1:]
	}
	return applied, nil
}
