package peb

import (
	"bytes"
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
// InstallEncoding, LoadPolicies, Apply — is an opList handed to commit.
// commit runs six stages under the write lock:
//
//	1 validate  closed DB, a pending prepared transaction, invalid grant
//	            regions, an encoding that misses an indexed user, a policy
//	            snapshot of another domain — nothing has been touched when
//	            one of these fails
//	2 resolve   make the list deterministic: an upsert of a user the tree
//	            holds no sequence value for gets an explicit core.OpSetSV
//	            (δ = 2 spacing, Fig. 5 of the paper), EncodePolicies and
//	            LoadPolicies get their computed polOpEncode. The resolved
//	            list is what is applied, what is logged, and therefore
//	            what recovery and replicas replay
//	3 capture   first-touch index states, for the commit hooks
//	4 apply     applyOps, the single state-transition function
//	5 publish   republish the query view, collect garbage, fire the
//	            commit hooks
//	6 log       append the record (log order equals apply order)
//
// and then, outside the lock, waits for the record to be durable — which
// is what lets concurrent commits share one fsync — and observes the
// commit latency. A cross-shard participant splits the stages at the
// decision (prepared.go): PrepareApply runs 1–2 and logs, Prepared.Commit
// runs 3–5 and logs its marker. Recovery (replayWAL) and
// Replica.ingestLocked run stage 4 on decoded records, so live commit,
// replay and follower apply execute the same code.

// commit applies ops atomically as one logged commit. An empty list
// commits nothing.
func (db *DB) commit(ops opList) error {
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
	db.mu.Unlock()
	if rebuild {
		db.ckptMu.Unlock()
	}
	if err != nil || ops.len() == 0 {
		return err
	}
	if err := db.walSync(tok); err != nil {
		return err
	}
	db.met.commit.ObserveDuration(time.Since(start))
	return nil
}

// commitLocked is stages 1–6; the caller holds the write lock and passes
// what opClasses says of ops (resolution adds and fills in operations but
// never changes their classes).
func (db *DB) commitLocked(ops opList, policyChange, rebuild bool) (store.WALToken, error) {
	if err := db.writable(); err != nil {
		return 0, err
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

// writable reports why the DB takes no commit now: it is closed, or a
// prepared transaction holds it until Commit or Abort. The caller holds
// the write lock.
func (db *DB) writable() error {
	if db.closed {
		return ErrClosed
	}
	if p := db.prepared; p != nil {
		return fmt.Errorf("peb: transaction %d is prepared; commit or abort it first", p.txnID)
	}
	return nil
}

// applyLocked is stages 3–5 on a resolved list. On error nothing is
// published: applyOps has rolled the index back.
func (db *DB) applyLocked(ops opList, policyChange, rebuild bool) error {
	var touched []CommitTouch
	if db.hooksActive() {
		var err error
		if touched, err = db.captureTouched(ops.Idx); err != nil {
			return err
		}
	}
	if err := db.applyOps(ops); err != nil {
		db.collectGarbage()
		return err
	}
	db.refreshView()
	db.collectGarbage()
	db.fireCommitLocked(touched, policyChange, rebuild)
	return nil
}

// opClasses reports whether ops change the policy store (the commit hooks'
// PolicyChange) and whether they rebuild the index (Rebuild). A
// polOpLoadPolicies always travels with the polOpEncode it implies.
func opClasses(ops []polOp) (policyChange, rebuild bool) {
	for i := range ops {
		switch ops[i].Kind {
		case polOpRelation, polOpGrant, polOpLoadPolicies:
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
// operations: a policy snapshot is re-serialized in canonical form, an
// encode without an assignment gets the computed one.
func (db *DB) resolvePolicyOps(ops []polOp) ([]polOp, error) {
	resolved := true
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case polOpGrant:
			if !op.Locr.Valid() {
				return nil, &InvalidRegionError{Region: op.Locr}
			}
		case polOpRelation:
		default: // a rebuild operation: computed or checked below
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
	// A polOpLoadPolicies sets these for the polOpEncode that follows it:
	// the incoming store and the users it names.
	ps, named := db.policies, []UserID(nil)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case polOpRelation, polOpGrant:
			out = append(out, *op)
		case polOpLoadPolicies:
			loaded, err := policy.Load(bytes.NewReader(op.Rebuild.Blob))
			if err != nil {
				return nil, err
			}
			if loaded.Space() != db.policies.Space() || loaded.DayLength() != db.policies.DayLength() {
				return nil, fmt.Errorf("peb: snapshot domain %v/%g does not match DB %v/%g",
					loaded.Space(), loaded.DayLength(), db.policies.Space(), db.policies.DayLength())
			}
			// Logged in canonical serialized form, whatever the input's.
			var blob bytes.Buffer
			if err := loaded.Save(&blob); err != nil {
				return nil, fmt.Errorf("peb: serialize policies: %w", err)
			}
			out = append(out, polOp{Kind: polOpLoadPolicies, Rebuild: &rebuildOp{Blob: blob.Bytes()}})
			ps = loaded
			loaded.ForEachGrant(func(owner, viewer policy.UserID, _ policy.Policy) bool {
				named = append(named, UserID(owner), UserID(viewer))
				return true
			})
		case polOpEncode:
			enc := *op
			if enc.Rebuild == nil {
				// EncodePolicies, LoadPolicies: compute the assignment here,
				// under the lock, over the population the rebuild will see.
				assignment, err := db.assignLocked(ps, named)
				if err != nil {
					return nil, err
				}
				enc.Rebuild = encodeAssignment(assignment)
			} else if err := db.checkCoverage(enc.Rebuild.Assign); err != nil {
				return nil, err
			}
			out = append(out, enc)
		}
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

// assignLocked runs the offline policy-encoding phase (Sec. 5.1) against
// ps over the DB's known users plus extra: one band of sequence values per
// community of the relation graph, sized to the key's sequence-value field.
// Caller holds mu (either side).
func (db *DB) assignLocked(ps *policy.Store, extra []UserID) (policy.Assignment, error) {
	users := make([]policy.UserID, 0, len(db.users)+len(extra))
	for u := range db.users {
		users = append(users, policy.UserID(u))
	}
	for _, u := range extra {
		users = append(users, policy.UserID(u))
	}
	return policy.AssignCommunities(ps, users, db.opts.coreConfig().SV)
}

// checkCoverage verifies that a precomputed assignment (sorted by user, as
// encodeAssignment leaves it) covers every indexed user: an indexed user
// without a sequence value would fail re-insertion halfway through the
// rebuild, after the old tree is gone.
func (db *DB) checkCoverage(assign []assignRec) error {
	for u := range db.users {
		i := sort.Search(len(assign), func(i int) bool { return assign[i].UID >= u })
		if i < len(assign) && assign[i].UID == u {
			continue
		}
		if _, indexed, err := db.tree.Get(u); err != nil {
			return err
		} else if indexed {
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
// index group through the tree with the bookkeeping its operations carry
// (the user population, the sequence-value cursor), then — in list order —
// the policy and rebuild operations with theirs (the population). Commit,
// recovery and replicas all run it; the caller holds the write lock and
// publishes the view afterwards.
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
		case core.OpUpsert:
			db.noteUser(op.Obj.UID)
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
			db.noteUser(op.Own)
			db.noteUser(op.Peer)
		case polOpGrant:
			p := policy.Policy{Role: op.Role, Locr: op.Locr, Tint: op.Tint}
			if err := db.mutatePolicies(func(ps *policy.Store) error {
				return ps.AddPolicy(policy.UserID(op.Own), p)
			}); err != nil {
				return fmt.Errorf("peb: grant: %w", err)
			}
			db.noteUser(op.Own)
		case polOpLoadPolicies:
			loaded, err := policy.Load(bytes.NewReader(op.Rebuild.Blob))
			if err != nil {
				return fmt.Errorf("peb: load policies: %w", err)
			}
			// A fresh store on a handle of its own: open snapshots keep
			// their pinned store and nothing pins the new one. DBs that
			// borrow this one's store follow at their next borrow.
			db.pol, db.policies = newPolicyHandle(loaded), loaded
			_ = db.tree.SetPolicies(loaded) // loaded is never nil here
			loaded.ForEachGrant(func(owner, viewer policy.UserID, _ policy.Policy) bool {
				db.noteUser(UserID(owner))
				db.noteUser(UserID(viewer))
				return true
			})
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
// build, with the bookkeeping each carries.
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
		db.noteUser(op.Own)
		if op.Kind == polOpRelation {
			bulk.SetRelation(policy.UserID(op.Own), policy.UserID(op.Peer), op.Role)
			db.noteUser(op.Peer)
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
	ops := make([]core.BatchOp, 0, db.tree.Size())
	for u := range db.users {
		o, ok, err := db.tree.Get(u)
		if err != nil {
			return err
		}
		if ok {
			ops = append(ops, core.BatchOp{Kind: core.OpUpsert, Obj: o})
		}
	}
	if err := db.newTree(assignment); err != nil {
		return err
	}
	// Republish the snapshot on every exit below, so even a failed rebuild
	// leaves queries reading the tree's actual state.
	defer db.refreshView()
	return db.tree.ApplyBatch(ops)
}
