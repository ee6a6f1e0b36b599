// Package cq turns the PEB-tree's one-shot queries into standing ones: a
// caller registers a privacy-aware range query (PRQ) or k-nearest-neighbor
// query (PkNN) as a continuous query and receives enter/leave/update deltas
// — over a channel, or through a callback inside the commit — instead of
// polling.
//
// # Incremental evaluation
//
// The engine hooks the DB's commit notifications (peb.CommitHook): every
// commit delivers the exact set of objects it touched, and each live
// subscription is re-evaluated against only those objects, pruned twice
// before any exact check runs:
//
//   - policy dimension — an inverted index from grantor to subscription:
//     an object that has granted the subscriber nothing can never appear
//     in the subscriber's results, so its movement is never evaluated.
//     This is the subscription-side analogue of the index's SV-band scan.
//   - space dimension — the query region enlarged by the motion slack
//     (MaxSpeed × MaxUpdateInterval), the window the one-shot PRQ scans:
//     a touched state whose stored position lies outside it (and that
//     honors the speed and update-interval bounds the slack assumes)
//     provably cannot be a member, before and after alike, so no exact
//     check runs. The test is four comparisons and costs registration
//     nothing.
//
// What survives both prunes gets the exact membership predicate
// (peb.CommitView.Member — identical to what RangeQuery applies per
// candidate), and a delta is pushed iff membership or state changed. The
// steady path therefore does work proportional to the touched set, not
// the population and not the result size.
//
// Policy-changing commits (Grant, DefineRelation) can flip
// visibility for objects the commit never touched, so they fall back to a
// full rescan: recompute the grantor set, re-run the query once via the
// commit view, and emit the diff. Index rebuilds (EncodePolicies) rescan
// too — sequence values do not change results, so the diff is empty, but
// the rescan re-anchors the engine cheaply and unconditionally.
//
// PkNN subscriptions are incremental in their trigger, not their
// evaluation: a touched grantor that is in the current result, or could
// beat the current k'th distance, triggers one full re-run through the
// index (charged at the grantor-set size); any other touch is dismissed
// with a single distance comparison.
//
// # Delivery and slow consumers
//
// There is one delivery path, and it runs to its end inside the commit:
//
//	commit → prune → exact evaluation → Result diff → deliver callback
//
// Watch registers a query with a callback that is called, under the DB's
// write lock and the engine's mutex, for every delta of the tracked
// result; it must not block. SubscribeRange and SubscribePkNN are Watch
// plus one sink, an Outbox: a bounded channel with a non-blocking sender.
// When the consumer falls behind, the subscription's overflow policy
// decides: DropOldest (the default) discards the oldest undelivered delta
// and counts the loss in the next delivered Delta.Dropped, so the consumer
// knows its view has gaps it must repair (resubscribe, or treat the next
// rescan as truth); Cancel closes the subscription with ErrSlowConsumer.
// Either way the engine's own state stays exact — only the consumer's copy
// degrades. The sharded router (peb/sharded) registers its per-shard legs
// through Watch and sends its merged result through an Outbox of its own:
// the same path with a merge step in it.
//
// # Correctness contract
//
// For every commit sequence number, the deltas a subscription receives
// equal the diff of two consecutive full re-runs of the underlying query
// around that commit (the oracle the test suite enforces), provided
// objects honor the DB's MaxSpeed. Registration is atomic with respect to
// commits — Watch evaluates the initial result and installs the
// subscription under the DB's write lock — so the delta stream continues
// the initial result with no gap and no overlap.
package cq

import (
	"errors"
	"fmt"
	"sync"

	"repro/peb"
)

// Errors reported by Subscription.Err after the delta channel closes.
var (
	// ErrSlowConsumer: the subscription used OverflowCancel and its
	// consumer fell behind the commit stream.
	ErrSlowConsumer = errors.New("cq: subscription canceled: consumer too slow")
	// ErrEngineClosed: the engine detached from the DB.
	ErrEngineClosed = errors.New("cq: engine closed")
)

// OverflowPolicy selects what the engine does when a subscription's
// channel is full at delivery time.
type OverflowPolicy uint8

const (
	// DropOldest discards the oldest undelivered delta to make room; the
	// loss is reported in the next delivered Delta.Dropped.
	DropOldest OverflowPolicy = iota
	// Cancel closes the subscription with ErrSlowConsumer.
	Cancel
)

// SubOptions configures one subscription. The zero value selects a
// 256-delta buffer with DropOldest.
type SubOptions struct {
	// Buffer is the delta channel capacity.
	Buffer int
	// Overflow is the slow-consumer policy.
	Overflow OverflowPolicy
}

func (o SubOptions) buffer() int {
	if o.Buffer <= 0 {
		return 256
	}
	return o.Buffer
}

// Stats are the engine's cumulative counters since Attach. The headline
// ratio is Naive / Evaluated: how much work incremental evaluation saved
// over re-running every subscription on every commit.
type Stats struct {
	// Commits is the number of commit notifications processed.
	Commits uint64
	// Evaluated counts exact checks: range membership predicates plus
	// kNN affected-checks and re-run candidate evaluations.
	Evaluated uint64
	// Pruned counts touched (subscription, object) pairs dismissed by the
	// enlarged-region prune without an exact check.
	Pruned uint64
	// Naive counts the candidate evaluations a full per-commit re-run of
	// every subscription would have performed (Σ grantor-set sizes, per
	// commit) — the baseline Evaluated is measured against.
	Naive uint64
	// Rescans counts full re-runs forced by policy changes or rebuilds.
	Rescans uint64
	// Deltas counts deltas delivered; Dropped counts deltas discarded or
	// subscriptions canceled by overflow.
	Deltas  uint64
	Dropped uint64
	// Live is the current number of registered subscriptions.
	Live int
}

// Engine evaluates continuous queries against one peb.DB. Create it with
// Attach, register standing queries with SubscribeRange/SubscribePkNN (or
// Watch, their callback form), and Close it to detach from the DB. All methods are safe for concurrent
// use.
type Engine struct {
	db     *peb.DB
	detach func()

	maxSpeed float64
	maxUI    float64
	slack    float64

	mu           sync.Mutex
	subs         map[uint64]*sub
	byGrantor    map[peb.UserID]map[uint64]*sub
	grantorLinks int
	nextID       uint64
	closed       bool
	stats        Stats
	reap         []*sub
}

// Query is a standing query's definition. K selects the form: zero for a
// PRQ over Region, positive for a PkNN of result size K centered at
// (X, Y). T is the evaluation time, fixed for the subscription's lifetime
// like a one-shot query's timestamp: the result tracks commits (movement
// updates, policy changes), not the passage of time. Subscribers watching
// "now" resubscribe on their own clock or pick T at the window of
// interest.
type Query struct {
	Issuer peb.UserID
	T      float64
	Region peb.Region
	X, Y   float64
	K      int
}

// sub is the engine-internal state of one subscription.
type sub struct {
	Query
	id uint64

	grantors map[peb.UserID]struct{}
	cur      Result

	// emit hands one delta of the tracked result to deliver and applies
	// its verdict; built once at registration. end reports an ending the
	// engine decided on.
	emit     func(Delta)
	end      func(error)
	canceled bool
}

// Subscription is a caller's handle on one standing query: receive deltas
// from Deltas, stop with Close. After the channel closes, Err reports why
// (nil for a caller-initiated Close).
type Subscription struct {
	eng  *Engine
	box  *Outbox
	stop func()
	err  error // under eng.mu
}

// Deltas returns the delta channel. It is closed when the subscription
// ends — by Close, by engine shutdown, or by the overflow policy.
func (s *Subscription) Deltas() <-chan Delta { return s.box.C() }

// Err returns the terminal error, if any: ErrSlowConsumer, ErrEngineClosed,
// or a query error hit during a rescan. Nil while live or after a plain
// Close.
func (s *Subscription) Err() error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	return s.err
}

// Close unregisters the subscription and closes its channel. Idempotent;
// safe to call concurrently with commits.
func (s *Subscription) Close() {
	s.stop()
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	s.box.Close()
}

// Attach builds an engine over db and registers it for commit
// notifications. The engine adds no overhead to commits until the first
// subscription exists (beyond the DB's touched-set capture, which is
// enabled by any registered hook).
func Attach(db *peb.DB) (*Engine, error) {
	e := &Engine{
		db:        db,
		subs:      make(map[uint64]*sub),
		byGrantor: make(map[peb.UserID]map[uint64]*sub),
	}
	err := db.WithCommitView(func(cv *peb.CommitView) error {
		e.maxSpeed = cv.MaxSpeed()
		e.maxUI = cv.MaxUpdateInterval()
		e.slack = e.maxSpeed * e.maxUI
		e.detach = cv.AddHook(e.onCommit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Close cancels every subscription (their Err reports ErrEngineClosed),
// detaches from the DB, and makes further Subscribe calls fail.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, s := range e.subs {
		if !s.canceled {
			s.canceled = true
			s.end(ErrEngineClosed)
		}
	}
	e.subs = make(map[uint64]*sub)
	e.byGrantor = make(map[peb.UserID]map[uint64]*sub)
	e.grantorLinks = 0
	detach := e.detach
	e.detach = nil
	e.mu.Unlock()
	// Outside e.mu: detaching takes the DB write lock, and the commit
	// path acquires db.mu before e.mu — never invert that order.
	if detach != nil {
		detach()
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Live = len(e.subs)
	return st
}

// Watch registers q as a continuous query that delivers to a callback. It
// is the engine's one registration: the channel form below is a sink built
// on it, and so is each shard leg of a sharded subscription.
//
//   - The current result arrives first, as Enter deltas with Seq 0 (commit
//     sequences start at 1), from inside the registration critical section
//     (DB.WithCommitView): no commit can slip between the initial result
//     and the first commit's deltas.
//   - Every later call is made from inside a commit on this DB, in commit
//     order, holding the DB's write lock and the engine's mutex. deliver
//     must not block and must not call into the engine or the DB.
//   - deliver returning false cancels the subscription — the only safe way
//     to end one from inside a delivery. end is not called for it.
//   - end is called once, under the engine's mutex, when the engine itself
//     ends the subscription: ErrEngineClosed on Close, or the query error
//     that failed a re-evaluation. Never after stop has returned.
//
// stop unregisters the subscription; it takes the engine's mutex, so it
// must not be called from a delivery. Idempotent.
func (e *Engine) Watch(q Query, deliver func(Delta) bool, end func(error)) (stop func(), err error) {
	if q.K < 0 {
		return nil, fmt.Errorf("cq: k must not be negative, got %d", q.K)
	}
	s := &sub{Query: q, cur: Result{}, end: end}
	s.emit = func(d Delta) {
		switch {
		case s.canceled:
		case !deliver(d):
			e.cancelLocked(s, nil)
		case d.Seq != 0:
			e.stats.Deltas++
		}
	}
	err = e.db.WithCommitView(func(cv *peb.CommitView) error {
		res, err := s.run(cv)
		if err != nil {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.closed {
			return ErrEngineClosed
		}
		e.nextID++
		s.id = e.nextID
		e.subs[s.id] = s
		e.setGrantorsLocked(s, cv.Grantors(s.Issuer))
		s.cur.Replace(res, 0, s.emit)
		e.reapLocked()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		s.canceled = true
		e.removeLocked(s)
	}, nil
}

// subscribe is Watch with the channel sink: the initial result is handed
// back instead of queued, every later delta goes through the outbox.
func (e *Engine) subscribe(q Query, opt SubOptions) (*Subscription, []peb.Neighbor, error) {
	s := &Subscription{eng: e, box: NewOutbox(opt)}
	var initial []peb.Neighbor
	stop, err := e.Watch(q, func(d Delta) bool {
		if d.Seq == 0 {
			initial = append(initial, peb.Neighbor{Object: d.Object, Dist: d.Dist})
			return true
		}
		lost, ok := s.box.Send(d)
		e.stats.Dropped += uint64(lost)
		if !ok {
			s.err = ErrSlowConsumer
		}
		return ok
	}, func(err error) {
		s.err = err
		s.box.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	s.stop = stop
	res := initial
	initial = nil // the sink outlives this call; it must not pin the result
	return s, res, nil
}

// SubscribeRange registers issuer's PRQ over region r at evaluation time t
// as a continuous query. It returns the subscription and the query's
// current result; every subsequent commit that changes the result pushes
// a delta, starting exactly after the returned state (registration is
// atomic with respect to commits).
func (e *Engine) SubscribeRange(issuer peb.UserID, r peb.Region, t float64, opt SubOptions) (*Subscription, []peb.Object, error) {
	s, res, err := e.subscribe(Query{Issuer: issuer, Region: r, T: t}, opt)
	if err != nil {
		return nil, nil, err
	}
	initial := make([]peb.Object, len(res))
	for i, nb := range res {
		initial[i] = nb.Object
	}
	return s, initial, nil
}

// SubscribePkNN registers issuer's PkNN centered at (x, y) with result
// size k, evaluated at time t, as a continuous query. Semantics mirror
// SubscribeRange; deltas carry the neighbor distance in Delta.Dist.
func (e *Engine) SubscribePkNN(issuer peb.UserID, x, y float64, k int, t float64, opt SubOptions) (*Subscription, []peb.Neighbor, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("cq: k must be positive, got %d", k)
	}
	return e.subscribe(Query{Issuer: issuer, X: x, Y: y, K: k, T: t}, opt)
}

// setGrantorsLocked replaces a subscription's grantor set and reindexes
// it. Caller holds e.mu.
func (e *Engine) setGrantorsLocked(s *sub, grantors []peb.UserID) {
	for uid := range s.grantors {
		if m := e.byGrantor[uid]; m != nil {
			delete(m, s.id)
			if len(m) == 0 {
				delete(e.byGrantor, uid)
			}
		}
	}
	e.grantorLinks -= len(s.grantors)
	s.grantors = make(map[peb.UserID]struct{}, len(grantors))
	for _, g := range grantors {
		if g == s.Issuer {
			continue
		}
		if _, dup := s.grantors[g]; dup {
			continue
		}
		s.grantors[g] = struct{}{}
		m := e.byGrantor[g]
		if m == nil {
			m = make(map[uint64]*sub)
			e.byGrantor[g] = m
		}
		m[s.id] = s
	}
	e.grantorLinks += len(s.grantors)
}

// removeLocked unregisters a subscription. Idempotent; caller holds e.mu.
func (e *Engine) removeLocked(s *sub) {
	if _, ok := e.subs[s.id]; !ok {
		return
	}
	delete(e.subs, s.id)
	e.setGrantorsLocked(s, nil)
}
