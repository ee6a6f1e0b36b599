package sharded

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/codec"
	"repro/internal/store"
)

// marshalManifest serializes the router's identity record.
func marshalManifest(m manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("sharded: marshal manifest: %w", err)
	}
	return data, nil
}

func unmarshalManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("sharded: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("sharded: %w: manifest version %d (want %d)",
			codec.ErrUnsupportedFormat, m.Version, manifestVersion)
	}
	return m, nil
}

// The decision log is the cross-shard commit point: a commit record for a
// transaction id, durably appended here, commits it; an id with no commit
// record is aborted. Each record is the 8-byte big-endian id followed by
// a verdict byte; a later record for the same id overrides an earlier one
// — which is what lets the router durably RETRACT a commit decision whose
// fsync failed (the bytes may have reached disk anyway, so simply not
// having acked it is not enough). The log is a store.SegmentedWAL like
// every shard log; a full checkpoint pass compacts it to a single
// watermark record (see compactDecisionLog).

const (
	verdictAbort  byte = 0
	verdictCommit byte = 1
)

// openDecisionLog opens the router's transaction decision log and returns
// it with the committed-id set (after overrides) and the largest id
// recorded.
func openDecisionLog(fsys store.VFS, path string) (*store.SegmentedWAL, map[uint64]bool, uint64, error) {
	log, records, err := store.OpenSegmentedWAL(fsys, path, store.WALSyncAlways, 0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sharded: open decision log: %w", err)
	}
	committed := make(map[uint64]bool, len(records))
	var max uint64
	for i, rec := range records {
		if len(rec) != 9 {
			log.Close()
			return nil, nil, 0, fmt.Errorf("sharded: decision log record %d has %d bytes, want 9", i, len(rec))
		}
		id := binary.BigEndian.Uint64(rec)
		if rec[8] == verdictCommit {
			committed[id] = true
		} else {
			delete(committed, id) // a durable retraction overrides
		}
		if id > max {
			max = id
		}
	}
	return log, committed, max, nil
}

// logDecision durably records a verdict for txnID. A commit verdict that
// returns nil is THE commit point of a cross-shard transaction: every
// participant's recovery resolves it as committed (via its own marker or
// the router's resolver). An abort verdict that returns nil durably
// retracts a possibly-persisted commit record, making an abort safe to
// act on.
func (db *DB) logDecision(txnID uint64, commit bool) error {
	var buf [9]byte
	binary.BigEndian.PutUint64(buf[:8], txnID)
	if commit {
		buf[8] = verdictCommit
	}
	tok, err := db.txnLog.Append(buf[:])
	if err != nil {
		return fmt.Errorf("sharded: decision log append: %w", err)
	}
	if err := db.txnLog.Commit(tok); err != nil {
		return fmt.Errorf("sharded: decision log sync: %w", err)
	}
	db.txnMu.Lock()
	db.txnDecisions++
	db.txnMu.Unlock()
	return nil
}

// compactDecisionLog reduces the decision log to a single watermark
// record. Safe only when every recorded verdict has become unreachable,
// which is exactly the state after a full successful checkpoint pass:
// the caller (Checkpoint) holds the router's read barrier, so no
// cross-shard transaction is in flight — every recorded transaction was
// decided before the shards' checkpoints cut, its prepared and marker
// records fell to the shards' log truncations, and no future recovery can
// ever ask the decision log about it again.
//
// What must survive is id monotonicity: recovery seeds the id allocator
// from the largest id in this log and the shard logs, and the shard logs
// were just truncated. The single surviving record carries the highest id
// handed out so far, with an abort verdict — for an id no participant
// holds a record of, abort and absent mean the same thing.
//
// Order: seal the verdicts into their own segment, make the watermark
// durable in the fresh one, and only then drop the sealed segments — at
// every crash point the log still holds a record carrying the highest id.
func (db *DB) compactDecisionLog() error {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if db.txnLog == nil || db.txnDecisions == 0 {
		return nil
	}
	if err := db.txnLog.Seal(); err != nil {
		return fmt.Errorf("sharded: compact decision log: seal: %w", err)
	}
	verdictsEnd := db.txnLog.Mark()
	var buf [9]byte
	binary.BigEndian.PutUint64(buf[:8], db.nextTxn-1)
	buf[8] = verdictAbort
	tok, err := db.txnLog.Append(buf[:])
	if err != nil {
		return fmt.Errorf("sharded: compact decision log: watermark append: %w", err)
	}
	if err := db.txnLog.Commit(tok); err != nil {
		return fmt.Errorf("sharded: compact decision log: watermark sync: %w", err)
	}
	if _, _, err := db.txnLog.DropThrough(verdictsEnd); err != nil {
		return fmt.Errorf("sharded: compact decision log: %w", err)
	}
	db.txnDecisions = 0
	return nil
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
