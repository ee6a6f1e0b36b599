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
// duplicates, encode replaces state wholesale) as defense in depth.

// polOpKind enumerates the operations that write the policy store or
// rebuild the whole tree. The values are the record format's kind bytes;
// 0–2 belong to the index operations (core.OpSetSV, core.OpUpsert,
// core.OpRemove), which travel as core.BatchOp. Kind 6 was a whole-store
// policy load; it is not reused, and decodeRecord refuses it as an unknown
// kind.
type polOpKind uint8

const (
	polOpRelation polOpKind = iota + 3
	polOpGrant
	polOpEncode
)

// assignRec is one user's entry of a logged sequence-value assignment.
type assignRec struct {
	UID UserID
	SV  float64
}

// polOp is one policy or rebuild operation. Exactly the fields for Kind
// are populated. A batch stages relations and grants by the hundred
// thousand, so the rare rebuild payload sits behind one pointer: a staged
// op is 88 bytes, not 144.
type polOp struct {
	Kind polOpKind

	Own  UserID       // polOpRelation, polOpGrant
	Peer UserID       // polOpRelation
	Role Role         // polOpRelation, polOpGrant
	Locr Region       // polOpGrant
	Tint TimeInterval // polOpGrant

	// Rebuild is the payload of polOpEncode. A polOpEncode without one
	// handed to commit means "compute the assignment" (EncodePolicies);
	// the resolved — logged — operation always carries one.
	Rebuild *rebuildOp
}

// rebuildOp is a polOpEncode's payload: the assignment the index is
// rebuilt under.
type rebuildOp struct {
	Assign []assignRec
	MaxSV  float64
	Groups int
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

// walRecord is one commit: a batch of operations applied atomically, plus
// the post-commit nextSV so replay restores the sequence-value cursor.
// TxnID ties the record into a cross-shard transaction (prepared.go): zero
// for ordinary commits, else the transaction's id — on a participant's
// sub-record, and on the coordinator's record, which alone carries Parts:
// every other participant's share of the transaction.
type walRecord struct {
	Seq    uint64
	NextSV float64
	Ops    opList
	TxnID  uint64
	Parts  []txnPart
}

// encodeAssignment flattens an assignment into the polOpEncode payload
// that logs it, its records sorted by user.
func encodeAssignment(a policy.Assignment) *rebuildOp {
	recs := make([]assignRec, 0, len(a.SV))
	for uid, sv := range a.SV {
		recs = append(recs, assignRec{UID: UserID(uid), SV: sv})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].UID < recs[j].UID })
	return &rebuildOp{Assign: recs, MaxSV: a.MaxSV, Groups: a.Groups}
}

// decodeAssignment rebuilds the assignment a polOpEncode logged.
func decodeAssignment(op *rebuildOp) policy.Assignment {
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

// walAppend logs one record: the resolved operations with the
// sequence-value cursor they leave, and for a cross-shard transaction its
// id and — on the coordinator's record — the other participants' parts.
// The caller holds the write lock and has already applied the operations
// in memory successfully — or, for a coordinator's record, checked that
// they apply; it fills every field but Seq. The returned token goes into a
// Staged, whose Wait syncs it after the lock is released. A nil WAL logs
// nothing.
//
// An append failure poisons the WAL: the in-memory state is ahead of the
// log, and accepting any later record would persist a history with a hole.
// All subsequent commits fail until the DB is reopened; reads and the
// already-applied mutation remain visible in memory.
func (db *DB) walAppend(rec walRecord) (store.WALToken, error) {
	if rec.TxnID > db.maxTxn {
		db.maxTxn = rec.TxnID
	}
	if db.wal == nil {
		return 0, nil
	}
	db.walSeq++
	rec.Seq = db.walSeq
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

// replayRecord re-applies one committed record during recovery.
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
