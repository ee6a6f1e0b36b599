package peb

import (
	"repro/internal/bxtree"
	"repro/internal/policy"
)

// Commit notifications: the hook point continuous-query engines (peb/cq)
// build on. Every committed mutation — a single Upsert/Remove, an Apply
// batch, a cross-shard sub-batch at its Prepared.Commit (an aborted one
// fires nothing), a policy change, an index rebuild — fires the
// registered hooks exactly once, synchronously, under
// the write lock, immediately after the new query view is published. The
// hook therefore observes every commit in order, with no commit able to
// land between the view swap and the notification.
//
// Because hooks run inside the commit critical section they must be fast
// and must never block: a hook that waits on a channel or takes a lock a
// query path can hold wedges every writer. peb/cq keeps this contract by
// evaluating subscriptions against only the touched set and delivering
// deltas with non-blocking sends.
//
// Hooks never fire during recovery. Open installs Options.OnCommit only
// after WAL replay completes, and AddCommitHook requires an opened DB, so
// the first notification a hook can observe is the first post-recovery
// commit.

// CommitTouch records one object's index transition within a commit: the
// stored movement state before (nil if the user was not indexed) and after
// (nil if the commit removed the entry). A batch that writes the same user
// several times reports one CommitTouch with the first-touch Prev and the
// final Cur.
type CommitTouch struct {
	UID  UserID
	Prev *Object
	Cur  *Object
}

// CommitInfo describes one committed mutation to a commit hook.
type CommitInfo struct {
	// Seq numbers hook notifications 1, 2, 3, ... in commit order — the
	// stream position a subscription engine tags deltas with.
	Seq uint64
	// Touched lists the index transitions this commit performed. Empty for
	// pure policy commits and rebuilds.
	Touched []CommitTouch
	// PolicyChange reports that the commit changed the policy store
	// (Grant, DefineRelation, LoadPolicies, or a batch staging either):
	// visibility may have flipped for objects the commit never touched, so
	// incremental evaluation over Touched alone is not sound.
	PolicyChange bool
	// Rebuild reports that the commit swapped in a freshly built index
	// (EncodePolicies, LoadPolicies, InstallEncoding). Sequence values
	// changed; query results did not (encoding affects clustering only),
	// but engines that cache anything keyed on the index should resync.
	Rebuild bool
}

// CommitHook is a commit notification callback. It runs under the DB
// write lock; the CommitView is valid only for the duration of the call.
type CommitHook func(info CommitInfo, cv *CommitView)

// commitHookEntry pairs a hook with a registration id so removal is exact
// even when the same function value is registered twice.
type commitHookEntry struct {
	id uint64
	fn CommitHook
}

// CommitView is a query surface over the exact state a commit published,
// usable only while the write lock is held on the caller's behalf: inside
// a CommitHook invocation, or inside a DB.WithCommitView callback. Its
// methods take no locks (the caller already excludes every writer), so a
// hook can evaluate membership predicates or re-run full queries against
// precisely the post-commit state with no torn reads.
//
// A CommitView must not escape the call that provided it; every method
// returns ErrClosed once that call returns.
type CommitView struct {
	db    *DB
	valid bool
}

// Seq returns the notification sequence number of the most recent commit
// (the Seq the next hook firing would carry is Seq()+1).
func (cv *CommitView) Seq() uint64 {
	if !cv.valid {
		return 0
	}
	return cv.db.commitSeq
}

// RangeQuery answers the paper's PRQ against the published state (see
// DB.RangeQuery).
func (cv *CommitView) RangeQuery(issuer UserID, r Region, t float64) ([]Object, error) {
	if !cv.valid {
		return nil, ErrClosed
	}
	if !r.Valid() {
		return nil, &InvalidRegionError{Region: r}
	}
	w := bxtree.Window{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
	return cv.db.view.PRQ(issuer, w, t)
}

// NearestNeighbors answers the paper's PkNN against the published state
// (see DB.NearestNeighbors).
func (cv *CommitView) NearestNeighbors(issuer UserID, x, y float64, k int, t float64) ([]Neighbor, error) {
	if !cv.valid {
		return nil, ErrClosed
	}
	return cv.db.view.PKNN(issuer, x, y, k, t)
}

// Lookup returns a user's stored movement state.
func (cv *CommitView) Lookup(uid UserID) (Object, bool, error) {
	if !cv.valid {
		return Object{}, false, ErrClosed
	}
	return cv.db.view.Get(uid)
}

// Grantors returns every user who has granted viewer at least one policy —
// the complete candidate set of any query viewer issues. A subscription
// engine prunes by it: an object outside the issuer's grantor set can
// never appear in the issuer's results, whatever it does.
func (cv *CommitView) Grantors(viewer UserID) []UserID {
	if !cv.valid {
		return nil
	}
	src := cv.db.policies.Grantors(policy.UserID(viewer))
	out := make([]UserID, len(src))
	for i, u := range src {
		out[i] = UserID(u)
	}
	return out
}

// Member reports whether object o belongs to issuer's range query over r
// at time t — exactly the predicate DB.RangeQuery applies to every
// candidate: o is not the issuer, o's extrapolated position at t lies in r
// (closed bounds), and o's policies let issuer see it there and then. This
// is the incremental-evaluation primitive: for an object the commit
// touched, Member on the before and after states decides enter/leave/update
// without any index scan.
func (cv *CommitView) Member(issuer UserID, r Region, o Object, t float64) bool {
	if !cv.valid || o.UID == issuer {
		return false
	}
	x, y := o.PositionAt(t)
	if x < r.MinX || x > r.MaxX || y < r.MinY || y > r.MaxY {
		return false
	}
	return cv.db.policies.Allows(policy.UserID(o.UID), policy.UserID(issuer), x, y, t)
}

// Bounds returns the service space (see DB.Bounds).
func (cv *CommitView) Bounds() Region {
	if !cv.valid {
		return Region{}
	}
	return cv.db.policies.Space()
}

// GridOrder returns the space-filling-curve grid order (see DB.GridOrder).
func (cv *CommitView) GridOrder() int {
	if !cv.valid {
		return 0
	}
	return cv.db.tree.Config().Base.Grid.Order
}

// MaxSpeed returns the configured speed bound.
func (cv *CommitView) MaxSpeed() float64 {
	if !cv.valid {
		return 0
	}
	return cv.db.opts.MaxSpeed
}

// MaxUpdateInterval returns the configured ∆tmu: the longest a stored
// state may go without a refresh.
func (cv *CommitView) MaxUpdateInterval() float64 {
	if !cv.valid {
		return 0
	}
	return cv.db.opts.MaxUpdateInterval
}

// AddHook registers fn from inside a WithCommitView callback (the caller
// already holds the write lock, so DB.AddCommitHook would deadlock). The
// returned remove function must be called outside the callback.
func (cv *CommitView) AddHook(fn CommitHook) (remove func()) {
	if !cv.valid {
		return func() {}
	}
	return cv.db.addHookLocked(fn)
}

// AddCommitHook registers fn to be called on every subsequent commit, and
// returns a function that unregisters it. Multiple hooks fire in
// registration order. See the package comment on commit notifications for
// the contract hooks must honor.
func (db *DB) AddCommitHook(fn CommitHook) (remove func()) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.addHookLocked(fn)
}

func (db *DB) addHookLocked(fn CommitHook) (remove func()) {
	db.nextHookID++
	id := db.nextHookID
	db.hooks = append(db.hooks, commitHookEntry{id: id, fn: fn})
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		for i := range db.hooks {
			if db.hooks[i].id == id {
				db.hooks = append(db.hooks[:i], db.hooks[i+1:]...)
				return
			}
		}
	}
}

// WithCommitView runs fn with the commit stream frozen: the write lock is
// held for the duration, so no commit lands while fn executes and the
// CommitView answers queries against exactly the state the latest commit
// published. Subscription engines use it to evaluate an initial result and
// register a hook atomically — no commit can slip between the two, so the
// delta stream continues the initial result gap-free.
//
// fn must not call DB methods (they would self-deadlock on the write
// lock); the CommitView provides the query surface.
func (db *DB) WithCommitView(fn func(cv *CommitView) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	cv := &CommitView{db: db, valid: true}
	defer func() { cv.valid = false }()
	return fn(cv)
}

// hooksActive reports whether any commit hook is registered — commit paths
// skip touched-set capture entirely when none is. Caller holds the write
// lock.
func (db *DB) hooksActive() bool { return len(db.hooks) > 0 }

// fireCommitLocked delivers one commit notification to every registered
// hook. Caller holds the write lock and has already republished the view.
func (db *DB) fireCommitLocked(touched []CommitTouch, policyChange, rebuild bool) {
	if len(db.hooks) == 0 {
		return
	}
	db.commitSeq++
	info := CommitInfo{
		Seq:          db.commitSeq,
		Touched:      touched,
		PolicyChange: policyChange,
		Rebuild:      rebuild,
	}
	cv := &CommitView{db: db, valid: true}
	for i := range db.hooks {
		db.hooks[i].fn(info, cv)
	}
	cv.valid = false
}
