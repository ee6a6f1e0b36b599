package peb

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/store"
)

// The write path.
//
// Every mutation — Upsert, Remove, DefineRelation, Grant, EncodePolicies,
// InstallEncoding, Apply — is an opList handed to stage, which runs six
// stages under the write lock:
//
//	1 validate  closed DB, invalid grant regions, an encoding that misses
//	            an indexed user — nothing has been touched when one of
//	            these fails
//	2 resolve   make the list deterministic: an upsert of a user the tree
//	            holds no sequence value for gets an explicit core.OpSetSV
//	            (δ = 2 spacing, Fig. 5 of the paper), EncodePolicies gets
//	            its computed polOpEncode. The resolved list is what is
//	            applied, what is logged, and therefore what recovery
//	            replays
//	3 capture   first-touch index states, for the commit hooks
//	4 apply     applyOps, the single state-transition function
//	5 publish   republish the query view, collect garbage, fire the
//	            commit hooks
//	6 log       append the record (log order equals apply order)
//
// That is stage (exported as StageUpsert, StageRemove and StageApply). It
// returns a handle, Staged, whose Wait blocks outside the lock until the
// record is durable — which is what lets concurrent commits share one
// fsync — and observes the commit latency from the call to durability. A
// commit is visible once staged and acknowledged once Wait returns; every
// mutation is stage then Wait, and the router (peb/sharded) releases its
// own locks between the two. A cross-shard participant splits the stages
// at the decision (prepared.go): Prepare runs 1–2 and a dry run of 4,
// logging nothing; Prepared.Commit runs 3–5 but the hooks on every part
// before the coordinator's record is durable, and the hooks and stage 6
// after, and a part's handle is a Staged too. Recovery
// (replayWAL) runs stage 4 on decoded records, so live commit and replay
// execute the same code.

// Staged is a commit that is applied — visible to every later query and
// commit on its DB — but not yet known durable. It is a value: it holds no
// lock and needs no cleanup, and a handle that is never waited on leaves
// its record to the DB's next sync. The zero value is a commit that needs
// no wait.
type Staged struct {
	db    *DB
	wal   *store.SegmentedWAL // the log the record went to; nil: nothing to sync
	tok   store.WALToken
	start time.Time // the call's start; zero when the latency is observed elsewhere
}

// Wait blocks until the staged record is durable, then observes
// peb_commit_seconds from the call that staged it. It is the commit's
// acknowledgement: an error means the record's fate is unknown and the
// log is poisoned. The handle keeps the log it was appended to, so a
// commit whose DB closed meanwhile learns what Close's final sync did.
func (s Staged) Wait() error {
	if s.wal != nil {
		if err := s.wal.Commit(s.tok); err != nil {
			return fmt.Errorf("peb: wal commit: %w", err)
		}
	}
	if !s.start.IsZero() {
		s.db.met.commit.ObserveDuration(time.Since(s.start))
	}
	return nil
}

// Durable reports, without syncing, whether the staged record is durable.
func (s Staged) Durable() bool { return s.wal == nil || s.wal.Durable(s.tok) }

// commit applies ops atomically as one logged commit and waits until it
// is durable. An empty list commits nothing.
func (db *DB) commit(ops opList) error { return acknowledge(db.stage(ops)) }

// acknowledge waits for a commit stage returned: the second half of the
// one commit path.
func acknowledge(s Staged, err error) error {
	if err != nil {
		return err
	}
	return s.Wait()
}

// stage runs stages 1–6 of ops under the write lock and returns the
// commit's durability handle. An empty list stages nothing.
func (db *DB) stage(ops opList) (Staged, error) {
	start := time.Now()
	policyChange, rebuild := opClasses(ops.Pol)
	if rebuild {
		// A rebuild swaps the tree and its backing disk — state an in-flight
		// checkpoint's build phase reads without the write lock — so it
		// first drains any pipeline via ckptMu (always taken before mu).
		db.ckptMu.Lock()
	}
	db.mu.Lock()
	tok, err := db.commitLocked(ops, policyChange, rebuild)
	s := Staged{db: db, wal: db.wal, tok: tok, start: start}
	db.mu.Unlock()
	if rebuild {
		db.ckptMu.Unlock()
	}
	if err != nil || ops.len() == 0 {
		return Staged{}, err
	}
	return s, nil
}

// commitLocked is stages 1–6; the caller holds the write lock and passes
// what opClasses says of ops (resolution adds and fills in operations but
// never changes their classes).
func (db *DB) commitLocked(ops opList, policyChange, rebuild bool) (store.WALToken, error) {
	if db.closed {
		return 0, ErrClosed
	}
	if ops.len() == 0 {
		return 0, nil
	}
	resolved, err := db.resolveOps(ops)
	if err != nil {
		return 0, err
	}
	if err := db.applyLocked(resolved, policyChange, rebuild); err != nil {
		return 0, err
	}
	return db.walAppend(walRecord{NextSV: db.nextSV, Ops: resolved})
}

// applyLocked is stages 3–5 on a resolved list. On error nothing is
// published: applyOps has rolled the index back.
func (db *DB) applyLocked(ops opList, policyChange, rebuild bool) error {
	touched, err := db.applyQuietLocked(ops)
	if err != nil {
		return err
	}
	db.fireCommitLocked(touched, policyChange, rebuild)
	return nil
}

// applyQuietLocked is stages 3–5 but the hooks: it returns the touched
// set for the caller to fire them with.
func (db *DB) applyQuietLocked(ops opList) ([]CommitTouch, error) {
	var touched []CommitTouch
	if db.hooksActive() {
		var err error
		if touched, err = db.captureTouched(ops.Idx); err != nil {
			return nil, err
		}
	}
	if err := db.applyOps(ops); err != nil {
		db.collectGarbage()
		return nil, err
	}
	db.refreshView()
	db.collectGarbage()
	return touched, nil
}

// opClasses reports whether ops change the policy store (the commit hooks'
// PolicyChange) and whether they rebuild the index (Rebuild).
func opClasses(ops []polOp) (policyChange, rebuild bool) {
	for i := range ops {
		switch ops[i].Kind {
		case polOpRelation, polOpGrant:
			policyChange = true
		case polOpEncode:
			rebuild = true
		}
	}
	return policyChange, rebuild
}

// resolveOps is stages 1 and 2: it validates ops against the current state
// and returns the list to apply and log, each group resolved on its own. A
// group that is already in that form — the steady state: updates of known
// users, relations and grants — is returned as it is, never copied or
// written; a resolved index group lives in db.opScratch when it fits, so a
// one-shot commit allocates no list either way.
func (db *DB) resolveOps(ops opList) (opList, error) {
	pol, err := db.resolvePolicyOps(ops.Pol)
	return opList{Pol: pol, Idx: db.resolveIndexOps(ops.Idx)}, err
}

// resolvePolicyOps validates the policy group and fills in its rebuild
// operations: an encode without an assignment gets the computed one.
func (db *DB) resolvePolicyOps(ops []polOp) ([]polOp, error) {
	resolved := true
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case polOpGrant:
			if !op.Locr.Valid() {
				return nil, &InvalidRegionError{Region: op.Locr}
			}
		case polOpRelation:
		default: // an encode: computed or checked below
			resolved = false
		}
		if db.borrowed && ops[i].Kind != polOpEncode {
			return nil, errBorrowedPolicies
		}
	}
	if resolved {
		return ops, nil
	}

	out := make([]polOp, 0, len(ops))
	for i := range ops {
		op := ops[i]
		if op.Kind == polOpEncode {
			if op.Rebuild == nil {
				// EncodePolicies: compute the assignment here, under the
				// lock, over the population the rebuild will see.
				assignment, err := db.assignLocked(nil)
				if err != nil {
					return nil, err
				}
				op.Rebuild = encodeAssignment(assignment)
			} else if err := db.checkCoverage(op.Rebuild.Assign); err != nil {
				return nil, err
			}
		}
		out = append(out, op)
	}
	return out, nil
}

// resolveIndexOps gives every upsert of a user the tree holds no sequence
// value for an explicit core.OpSetSV ahead of it. The caller's list is
// left alone: the first such user moves the result to db.opScratch.
func (db *DB) resolveIndexOps(ops []core.BatchOp) []core.BatchOp {
	out, nextSV := ops, db.nextSV
	var staged map[UserID]bool
	for i := range ops {
		if op := &ops[i]; op.Kind == core.OpUpsert {
			uid := op.Obj.UID
			if _, ok := db.tree.SV(uid); !ok && !staged[uid] {
				if staged == nil {
					staged = make(map[UserID]bool)
					out = append(db.opScratch[:0], ops[:i]...)
				}
				nextSV += 2 // δ spacing, a fresh singleton anchor (Fig. 5)
				out = append(out, core.BatchOp{Kind: core.OpSetSV, UID: uid, SV: nextSV})
				staged[uid] = true
			}
		}
		if staged != nil {
			out = append(out, ops[i])
		}
	}
	return out
}

// assignLocked runs the offline policy-encoding phase (Sec. 5.1) over the
// DB's population plus extra: one band of sequence values per community
// of the relation graph, sized to the key's sequence-value field. Caller
// holds mu (either side).
func (db *DB) assignLocked(extra []UserID) (policy.Assignment, error) {
	return policy.AssignCommunities(db.policies, db.population(extra), db.opts.coreConfig().SV)
}

// population is the user set the encoding phase covers, derived from what
// the DB holds anyway: every user with a sequence value (each user ever
// indexed has one), every user the policy store names, and extra. A user
// may appear more than once. Caller holds mu (either side).
func (db *DB) population(extra []UserID) []policy.UserID {
	users := db.policies.AppendUsers(nil)
	db.tree.ForEachSV(func(u UserID, _ uint64) { users = append(users, policy.UserID(u)) })
	for _, u := range extra {
		users = append(users, policy.UserID(u))
	}
	return users
}

// checkCoverage verifies that a precomputed assignment (sorted by user, as
// encodeAssignment leaves it) covers every indexed user: an indexed user
// without a sequence value would fail re-insertion halfway through the
// rebuild, after the old tree is gone.
func (db *DB) checkCoverage(assign []assignRec) error {
	for _, u := range db.tree.View().UserIDs() {
		i := sort.Search(len(assign), func(i int) bool { return assign[i].UID >= u })
		if i == len(assign) || assign[i].UID != u {
			return fmt.Errorf("peb: encoding does not cover indexed user %d", u)
		}
	}
	return nil
}

// captureTouched is stage 3: one CommitTouch per user the index operations
// write, in first-appearance order — Prev read from the tree before
// anything is applied, Cur the state the list leaves the user in.
func (db *DB) captureTouched(ops []core.BatchOp) ([]CommitTouch, error) {
	var touched []CommitTouch
	at := make(map[UserID]int)
	for i := range ops {
		op := &ops[i]
		var uid UserID
		var cur *Object
		switch op.Kind {
		case core.OpUpsert:
			o := op.Obj
			uid, cur = o.UID, &o
		case core.OpRemove:
			uid = op.UID
		default:
			continue
		}
		j, seen := at[uid]
		if !seen {
			prev, ok, err := db.tree.Get(uid)
			if err != nil {
				return nil, err
			}
			j = len(touched)
			at[uid] = j
			touched = append(touched, CommitTouch{UID: uid})
			if ok {
				p := prev
				touched[j].Prev = &p
			}
		}
		touched[j].Cur = cur
	}
	return touched, nil
}

// applyOps is stage 4, the state transition of a resolved op list: the
// index group through the tree, advancing the sequence-value cursor, then
// — in list order — the policy and rebuild operations. Commit and recovery
// both run it; the caller holds the write lock (or is still
// opening the DB) and publishes the view afterwards.
//
// The index phase goes first because it is the only one that can fail on
// valid input (a remove of an unindexed user, an I/O error) and it rolls
// itself back: on error nothing has changed. After validation the policy
// phase cannot fail — AddPolicy's only error is an invalid region — so the
// store is mutated in place and copied only while something pins it
// (policyHandle); a one-shot Grant stays O(1). Relations and grants
// committed to an empty store — a bulk load of the policies — are built
// whole by policy.Bulk instead of one op at a time. The writer never mixes
// index and rebuild operations in one record.
func (db *DB) applyOps(ops opList) error {
	if err := db.applyIndexOps(ops.Idx); err != nil {
		return err
	}
	for i := range ops.Idx {
		switch op := &ops.Idx[i]; op.Kind {
		case core.OpSetSV:
			if op.SV > db.nextSV {
				db.nextSV = op.SV
			}
		}
	}
	pol := ops.Pol
	if n := grantRun(pol); n > 1 && db.policies.Empty() {
		if err := db.bulkApply(pol[:n]); err != nil {
			return err
		}
		pol = pol[n:]
	}
	for i := range pol {
		op := &pol[i]
		if op.Kind != polOpEncode {
			db.polOps++
		}
		switch op.Kind {
		case polOpRelation:
			_ = db.mutatePolicies(func(ps *policy.Store) error {
				ps.SetRelation(policy.UserID(op.Own), policy.UserID(op.Peer), op.Role)
				return nil
			})
		case polOpGrant:
			p := policy.Policy{Role: op.Role, Locr: op.Locr, Tint: op.Tint}
			if err := db.mutatePolicies(func(ps *policy.Store) error {
				return ps.AddPolicy(policy.UserID(op.Own), p)
			}); err != nil {
				return fmt.Errorf("peb: grant: %w", err)
			}
		case polOpEncode:
			if err := db.rebuildLocked(decodeAssignment(op.Rebuild)); err != nil {
				return fmt.Errorf("peb: rebuild: %w", err)
			}
		default:
			return fmt.Errorf("peb: unknown wal op kind %d", op.Kind)
		}
	}
	return nil
}

// grantRun returns the length of the run of relations and grants that
// opens ops.
func grantRun(ops []polOp) int {
	for i := range ops {
		if k := ops[i].Kind; k != polOpRelation && k != polOpGrant {
			return i
		}
	}
	return len(ops)
}

// bulkApply applies relations and grants to the empty policy store in one
// build.
func (db *DB) bulkApply(ops []polOp) error {
	rels := 0
	for i := range ops {
		if ops[i].Kind == polOpRelation {
			rels++
		}
	}
	bulk := policy.NewBulk(rels, len(ops)-rels)
	for i := range ops {
		op := &ops[i]
		if op.Kind == polOpRelation {
			bulk.SetRelation(policy.UserID(op.Own), policy.UserID(op.Peer), op.Role)
		} else {
			bulk.AddPolicy(policy.UserID(op.Own), policy.Policy{Role: op.Role, Locr: op.Locr, Tint: op.Tint})
		}
	}
	if err := db.mutatePolicies(bulk.ApplyTo); err != nil {
		return fmt.Errorf("peb: grant: %w", err)
	}
	db.polOps += uint64(len(ops))
	return nil
}

// applyIndexOps applies the index group atomically. A single operation
// goes straight to the tree: core.Tree.ApplyBatch's plan, copy-on-write
// transaction and undo map cost about ten allocations a durable Upsert
// does not need.
func (db *DB) applyIndexOps(ops []core.BatchOp) error {
	if len(ops) != 1 {
		// On error the tree rolled itself back; the published view still
		// describes the (unchanged) committed state and is NOT republished.
		return db.tree.ApplyBatch(ops)
	}
	var err error
	switch op := &ops[0]; op.Kind {
	case core.OpSetSV:
		err = db.tree.SetSV(op.UID, op.SV)
	case core.OpUpsert:
		err = db.tree.Insert(op.Obj)
	case core.OpRemove:
		err = db.tree.Delete(op.UID)
	}
	if err != nil {
		// Insert and Delete are not transactional: publish whatever an
		// I/O failure left, so queries read the tree's actual state.
		db.refreshView()
	}
	return err
}

// rebuildLocked swaps in a fresh index under assignment and bulk-loads the
// current population into it, so a re-encoded tree is packed like a fresh
// load rather than grown one insert at a time. Caller holds the write lock.
func (db *DB) rebuildLocked(assignment policy.Assignment) error {
	uids := db.tree.View().UserIDs()
	ops := make([]core.BatchOp, 0, len(uids))
	for _, u := range uids {
		o, _, err := db.tree.Get(u)
		if err != nil {
			return err
		}
		ops = append(ops, core.BatchOp{Kind: core.OpUpsert, Obj: o})
	}
	if err := db.newTree(assignment); err != nil {
		return err
	}
	// Republish the snapshot on every exit below, so even a failed rebuild
	// leaves queries reading the tree's actual state.
	defer db.refreshView()
	return db.tree.ApplyBatch(ops)
}
