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
// InstallEncoding, LoadPolicies, Apply, PrepareApply — is a list of walOp
// handed to commit, the only function that takes the write lock to mutate.
// commit runs six stages under the lock:
//
//	1 validate  closed DB, invalid grant regions, an encoding that misses
//	            an indexed user, a policy snapshot of another domain —
//	            nothing has been touched when one of these fails
//	2 resolve   make the list deterministic: an upsert of a user the tree
//	            holds no sequence value for gets an explicit walOpSetSV
//	            (δ = 2 spacing, Fig. 5 of the paper), EncodePolicies and
//	            LoadPolicies get their computed walOpEncode. The resolved
//	            list is what is applied, what is logged, and therefore
//	            what recovery and replicas replay
//	3 capture   first-touch index states, for commit hooks and for a
//	            prepared transaction's undo
//	4 apply     applyOps, the single state-transition function
//	5 publish   republish the query view, collect garbage, fire the
//	            commit hooks
//	6 log       append the record (log order equals apply order)
//
// and then, outside the lock, waits for the record to be durable — which
// is what lets concurrent commits share one fsync — and observes the
// commit latency. Recovery (attachWAL) and Replica.ingestLocked run stage 4
// on decoded records, so live commit, replay and follower apply execute
// the same code.

// commit applies ops atomically as one logged commit. txnID, when non-zero,
// logs the record as the prepared participant of that cross-shard
// transaction and undo captures what Prepared.Abort needs to reverse it.
// An empty list commits nothing.
func (db *DB) commit(ops []walOp, txnID uint64, undo *txnUndo) error {
	start := time.Now()
	policyChange, rebuild := opClasses(ops)
	if rebuild {
		// A rebuild swaps the tree and its backing disk — state an in-flight
		// checkpoint's build phase reads without the write lock — so it
		// first drains any pipeline via ckptMu (always taken before mu).
		db.ckptMu.Lock()
	}
	db.mu.Lock()
	tok, err := db.commitLocked(ops, txnID, undo, policyChange, rebuild)
	db.mu.Unlock()
	if rebuild {
		db.ckptMu.Unlock()
	}
	if err != nil || len(ops) == 0 {
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
func (db *DB) commitLocked(ops []walOp, txnID uint64, undo *txnUndo, policyChange, rebuild bool) (store.WALToken, error) {
	if db.closed {
		return 0, ErrClosed
	}
	if len(ops) == 0 {
		return 0, nil
	}
	resolved, err := db.resolveOps(ops)
	// The scratch may now reference a policy blob or an assignment.
	defer clear(db.opScratch[:])
	if err != nil {
		return 0, err
	}

	var touched []CommitTouch
	if undo != nil || db.hooksActive() {
		if touched, err = db.captureTouched(resolved); err != nil {
			return 0, err
		}
	}
	if undo != nil {
		undo.capture(db, resolved, touched, policyChange)
	}

	if err := db.applyOps(resolved); err != nil {
		if undo != nil && policyChange {
			db.policiesPinned = undo.prevPoliciesPinned
		}
		db.collectGarbage()
		return 0, err
	}
	if undo != nil {
		undo.applied = true
	}

	db.refreshView()
	db.collectGarbage()
	db.fireCommitLocked(touched, policyChange, rebuild)

	state := txnNone
	if txnID != 0 {
		state = txnPrepared
	}
	return db.walAppendTxn(resolved, txnID, state)
}

// opClasses reports whether ops change the policy store (the commit hooks'
// PolicyChange) and whether they rebuild the index (Rebuild). A
// walOpLoadPolicies always travels with the walOpEncode it implies.
func opClasses(ops []walOp) (policyChange, rebuild bool) {
	for i := range ops {
		switch ops[i].Kind {
		case walOpRelation, walOpGrant, walOpLoadPolicies:
			policyChange = true
		case walOpEncode:
			rebuild = true
		}
	}
	return policyChange, rebuild
}

// resolveOps is stages 1 and 2: it validates ops against the current state
// and returns the list to apply and log — policy and rebuild operations in
// staging order, then the index operations in staging order with their
// sequence values resolved. (The two groups are independent: policy
// changes influence queries, not the staged index keys.) A list that is
// already in that form — the steady state: updates of known users, policy
// loads — is returned as it is, never copied or written; otherwise the
// result lives in db.opScratch when it fits, so a one-shot commit
// allocates no list either way.
func (db *DB) resolveOps(ops []walOp) ([]walOp, error) {
	resolved, indexSeen := true, false
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case walOpGrant:
			if !op.Locr.Valid() {
				return nil, &InvalidRegionError{Region: op.Locr}
			}
			resolved = resolved && !indexSeen
		case walOpRelation:
			resolved = resolved && !indexSeen
		case walOpUpsert:
			_, known := db.tree.SV(op.Obj.UID)
			resolved, indexSeen = resolved && known, true
		case walOpRemove:
			indexSeen = true
		default: // a rebuild operation: computed or checked below
			resolved = false
		}
	}
	if resolved {
		return ops, nil
	}

	out := db.opScratch[:0]
	// A walOpLoadPolicies sets these for the walOpEncode that follows it:
	// the incoming store and the users it names.
	ps, named := db.policies, []UserID(nil)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case walOpRelation, walOpGrant:
			out = append(out, *op)
		case walOpLoadPolicies:
			loaded, err := policy.Load(bytes.NewReader(op.Blob))
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
			out = append(out, walOp{Kind: walOpLoadPolicies, Blob: blob.Bytes()})
			ps = loaded
			loaded.ForEachGrant(func(owner, viewer policy.UserID, _ policy.Policy) bool {
				named = append(named, UserID(owner), UserID(viewer))
				return true
			})
		case walOpEncode:
			enc := *op
			if enc.Assign == nil {
				// EncodePolicies, LoadPolicies: compute the assignment here,
				// under the lock, over the population the rebuild will see.
				assignment, err := db.assignLocked(ps, named)
				if err != nil {
					return nil, err
				}
				enc.Assign, enc.MaxSV, enc.Groups = encodeAssignment(assignment)
			} else if err := db.checkCoverage(enc.Assign); err != nil {
				return nil, err
			}
			out = append(out, enc)
		}
	}

	nextSV := db.nextSV
	var staged map[UserID]bool
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case walOpUpsert:
			uid := op.Obj.UID
			if _, ok := db.tree.SV(uid); !ok && !staged[uid] {
				nextSV += 2 // δ spacing, a fresh singleton anchor (Fig. 5)
				out = append(out, walOp{Kind: walOpSetSV, UID: uid, SV: nextSV})
				if staged == nil {
					staged = make(map[UserID]bool)
				}
				staged[uid] = true
			}
			out = append(out, *op)
		case walOpRemove:
			out = append(out, *op)
		}
	}
	return out, nil
}

// assignLocked runs the offline policy-encoding phase (Sec. 5.1) against
// ps over the DB's known users plus extra. Caller holds mu (either side).
func (db *DB) assignLocked(ps *policy.Store, extra []UserID) (policy.Assignment, error) {
	seen := make(map[UserID]bool, len(db.users)+len(extra))
	users := make([]policy.UserID, 0, len(db.users)+len(extra))
	add := func(u UserID) {
		if !seen[u] {
			seen[u] = true
			users = append(users, policy.UserID(u))
		}
	}
	for u := range db.users {
		add(u)
	}
	for _, u := range extra {
		add(u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return policy.AssignSequenceValues(ps, users, policy.AssignOptions{})
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
func (db *DB) captureTouched(ops []walOp) ([]CommitTouch, error) {
	var touched []CommitTouch
	at := make(map[UserID]int)
	for i := range ops {
		op := &ops[i]
		var uid UserID
		var cur *Object
		switch op.Kind {
		case walOpUpsert:
			o := op.Obj
			uid, cur = o.UID, &o
		case walOpRemove:
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
// index operations through the tree, then — in list order — the policy
// operations, the rebuild operations, and the bookkeeping every operation
// carries (the user population, the sequence-value cursor, the encoded
// flag). Commit, recovery and replicas all run it; the caller holds the
// write lock and publishes the view afterwards.
//
// The index phase goes first because it is the only one that can fail on
// valid input (a remove of an unindexed user, an I/O error) and it rolls
// itself back: on error nothing has changed. After validation the policy
// phase cannot fail — AddPolicy's only error is an invalid region — so the
// store is mutated in place and copied only when something still reads it
// (writablePolicies); a one-shot Grant stays O(1). A record never mixes
// index and rebuild operations.
func (db *DB) applyOps(ops []walOp) error {
	if err := db.applyIndexOps(ops); err != nil {
		return err
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case walOpSetSV:
			if op.SV > db.nextSV {
				db.nextSV = op.SV
			}
		case walOpUpsert:
			db.noteUser(op.Obj.UID)
		case walOpRemove:
		case walOpRelation:
			db.writablePolicies().SetRelation(policy.UserID(op.Own), policy.UserID(op.Peer), op.Role)
			db.noteUser(op.Own)
			db.noteUser(op.Peer)
			db.encoded = false
		case walOpGrant:
			p := policy.Policy{Role: op.Role, Locr: op.Locr, Tint: op.Tint}
			if err := db.writablePolicies().AddPolicy(policy.UserID(op.Own), p); err != nil {
				return fmt.Errorf("peb: grant: %w", err)
			}
			db.noteUser(op.Own)
			db.encoded = false
		case walOpLoadPolicies:
			loaded, err := policy.Load(bytes.NewReader(op.Blob))
			if err != nil {
				return fmt.Errorf("peb: load policies: %w", err)
			}
			// A fresh store object: open snapshots keep their pinned store,
			// and nothing pins the new one.
			db.policies = loaded
			_ = db.tree.SetPolicies(loaded) // loaded is never nil here
			db.policiesPinned = false
			loaded.ForEachGrant(func(owner, viewer policy.UserID, _ policy.Policy) bool {
				db.noteUser(UserID(owner))
				db.noteUser(UserID(viewer))
				return true
			})
			db.encoded = false
		case walOpEncode:
			if err := db.rebuildLocked(decodeAssignment(*op)); err != nil {
				return fmt.Errorf("peb: rebuild: %w", err)
			}
		default:
			return fmt.Errorf("peb: unknown wal op kind %d", op.Kind)
		}
	}
	return nil
}

// applyIndexOps applies the index operations of ops (walOpSetSV,
// walOpUpsert, walOpRemove) atomically. A single operation goes straight
// to the tree: core.Tree.ApplyBatch's plan, copy-on-write transaction and
// undo map cost about ten allocations a durable Upsert does not need.
func (db *DB) applyIndexOps(ops []walOp) error {
	n, last := 0, 0
	for i := range ops {
		if ops[i].Kind.isIndex() {
			n, last = n+1, i
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		var err error
		switch op := &ops[last]; op.Kind {
		case walOpSetSV:
			err = db.tree.SetSV(op.UID, op.SV)
		case walOpUpsert:
			err = db.tree.Insert(op.Obj)
		case walOpRemove:
			err = db.tree.Delete(op.UID)
		}
		if err != nil {
			// Insert and Delete are not transactional: publish whatever an
			// I/O failure left, so queries read the tree's actual state.
			db.refreshView()
		}
		return err
	}
	batch := make([]core.BatchOp, 0, n)
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case walOpSetSV:
			batch = append(batch, core.BatchOp{Kind: core.OpSetSV, UID: op.UID, SV: op.SV})
		case walOpUpsert:
			batch = append(batch, core.BatchOp{Kind: core.OpUpsert, Obj: op.Obj})
		case walOpRemove:
			batch = append(batch, core.BatchOp{Kind: core.OpRemove, UID: op.UID})
		}
	}
	// On error the tree rolled itself back; the published view still
	// describes the (unchanged) committed state and is NOT republished.
	return db.tree.ApplyBatch(batch)
}

// writablePolicies returns the policy store for in-place mutation, first
// replacing it with a copy when a snapshot, a checkpoint build or a
// prepared transaction's undo still reads the current one: they keep
// evaluating the policies in force when they pinned it, without any
// locking on their read path. The caller holds the write lock and
// republishes the view (it carries a policy-store reference).
func (db *DB) writablePolicies() *policy.Store {
	if db.policiesPinned {
		db.policies = db.policies.Clone()
		_ = db.tree.SetPolicies(db.policies) // never nil
		db.policiesPinned = false
	}
	return db.policies
}

// rebuildLocked swaps in a fresh index under assignment and re-inserts the
// current population. Caller holds the write lock.
func (db *DB) rebuildLocked(assignment policy.Assignment) error {
	objs := make([]Object, 0, db.tree.Size())
	for u := range db.users {
		o, ok, err := db.tree.Get(u)
		if err != nil {
			return err
		}
		if ok {
			objs = append(objs, o)
		}
	}
	if err := db.newTree(assignment); err != nil {
		return err
	}
	// Republish the snapshot on every exit below, so even a failed partial
	// rebuild leaves queries reading the tree's actual state.
	defer db.refreshView()
	for _, o := range objs {
		if err := db.tree.Insert(o); err != nil {
			return err
		}
	}
	db.encoded = true
	return nil
}
