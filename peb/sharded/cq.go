package sharded

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/zcurve"
	"repro/peb"
	"repro/peb/cq"
)

// Continuous queries over the sharded engine: one delta pipeline, run to
// the end inside the commit that caused the delta.
//
//	shard commit (db.mu)
//	  └─ cq.Engine hook (e.mu): grantor/Hilbert prune, exact evaluation
//	       └─ leg deliver (Subscription.mu): the leg's slice ← delta
//	            └─ merged result: newest T per user / global top k
//	                 └─ cq.Outbox: bounded, non-blocking ─→ consumer channel
//
// A CQ attaches one cq.Engine to every shard and routes a standing query
// the way the router routes a one-shot one: a range subscription gets a
// leg on each shard whose Hilbert-value cover intersects the query region
// enlarged by the motion slack (MaxSpeed × MaxUpdateInterval), a PkNN
// subscription a leg on every shard, since any shard can hold a nearest
// neighbor.
//
// A leg is state, not a stream: the shard's id, the stop function of a
// cq.Engine.Watch registration, and the slice of the result that shard
// last reported. The registration's callback runs inside the shard's
// commit; it applies the delta to the slice and recomputes the merged
// result on the spot, from the slices, as the one-shot queries do: a user
// two shards report at once (caught mid-re-homing or mid-migration) counts
// once and the newer state wins; PkNN keeps the global (Dist, UID) top k.
// The recomputation goes through the same cq.Result diff the engines use,
// so a delta is emitted only when the merged result changes, and it goes
// to the consumer through the same cq.Outbox. The subscription owns no
// goroutine and no channel but the consumer's; when Upsert returns, the
// deltas it caused are in that channel.
//
// Subscribing registers the legs one after another under the router's
// read barrier, while one-shot writes go on. Until the last leg is in,
// deliveries only fill slices; then the merged initial result is computed
// from the slices under Subscription.mu and the subscription starts. A
// commit is therefore either in the initial result or in the stream, never
// both and never neither.
//
// Topology changes use the same two steps and no protocol of their own.
// The router calls in under the write barrier that commits the change, so
// no commit can land on any shard meanwhile. A split's new shard, or a
// merge target's widened cover, gets a leg added to every subscription it
// now concerns; the leg's seeding Enters run through the ordinary merge
// (normally emitting nothing: migration moves objects with their
// timestamps intact). A merge-drained shard's leg is removed and the
// merged result recomputed without it. A subscription lives across any
// number of splits and merges; one whose new leg cannot register ends with
// that error.
//
// Per shard: deltas are in commit order, and the engine's result is exact.
// Merged: the stream is well-formed (Enter only for absent users, Leave
// and Update only for present ones) and a mirror of it converges to the
// one-shot answer once commits stop — the contract the sharded oracle
// enforces. There is no order across shards: the two halves of a
// re-homing or a cross-shard batch are two commits, so the merged stream
// may report Leave then Enter where a single tree reports Update.
//
// Lock order: router barrier (db.smu) → shard db.mu → engine e.mu →
// Subscription.mu. Subscription.mu is a leaf: nothing runs under it but
// map work and the outbox's non-blocking send. A leg is never stopped, and
// no engine is called, while holding it or from inside a delivery — a
// delivery that finds the subscription ended (a Cancel overflow, an engine
// closing, a caller's Close) returns false and the delivering engine
// drops that leg itself. The other legs of a subscription that ended on
// its own go the same way on their next delivery, or when Close, CQ.Close
// or a topology change releases them from outside every engine lock.
// CQ.mu is a leaf of its own beside these: it guards the maps below and is
// never taken inside a delivery.

// CQ is the standing-query router over a sharded DB: one incremental
// engine per shard plus the merged subscriptions over them. Create it
// with AttachCQ; all methods are safe for concurrent use.
type CQ struct {
	db    *DB
	slack float64
	// dropped counts the deltas lost at the merged consumer channels.
	dropped atomic.Uint64

	mu      sync.Mutex
	closed  bool
	engines map[int]*cq.Engine // by shard id
	subs    map[*Subscription]struct{}
}

// AttachCQ builds the continuous-query layer over db, attaching an
// incremental evaluation engine to every shard. The CQ follows the
// topology from then on: shards created by splits get engines (and legs)
// automatically, shards drained by merges release theirs.
func AttachCQ(db *DB) (*CQ, error) {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	c := &CQ{
		db:      db,
		slack:   db.shards[0].MaxSpeed() * db.shards[0].MaxUpdateInterval(),
		engines: make(map[int]*cq.Engine, len(db.shards)),
		subs:    make(map[*Subscription]struct{}),
	}
	for i, s := range db.shards {
		e, err := cq.Attach(s)
		if err != nil {
			for _, prev := range c.engines {
				prev.Close()
			}
			return nil, err
		}
		c.engines[db.metas[i].id] = e
	}
	db.cqRegister(c)
	return c, nil
}

// Close detaches every per-shard engine. Every live subscription's channel
// closes and its Err reports cq.ErrEngineClosed.
func (c *CQ) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	engines := c.enginesLocked()
	c.mu.Unlock()
	c.db.cqUnregister(c)
	for _, e := range engines {
		e.Close()
	}
}

// Stats returns the per-shard engines' counters summed — the sharded
// deployment's aggregate incremental-evaluation picture. Deltas counts
// what the shards reported to the merge (a callback never drops); Dropped
// counts the deltas lost at the merged consumer channels; Live is the
// number of subscriptions, not of their legs.
func (c *CQ) Stats() cq.Stats {
	c.mu.Lock()
	engines := c.enginesLocked()
	out := cq.Stats{Live: len(c.subs), Dropped: c.dropped.Load()}
	c.mu.Unlock()
	for _, e := range engines {
		st := e.Stats()
		out.Commits += st.Commits
		out.Evaluated += st.Evaluated
		out.Pruned += st.Pruned
		out.Naive += st.Naive
		out.Rescans += st.Rescans
		out.Deltas += st.Deltas
	}
	return out
}

func (c *CQ) enginesLocked() []*cq.Engine {
	out := make([]*cq.Engine, 0, len(c.engines))
	for _, e := range c.engines {
		out = append(out, e)
	}
	return out
}

func (c *CQ) subsLocked() []*Subscription {
	out := make([]*Subscription, 0, len(c.subs))
	for s := range c.subs {
		out = append(out, s)
	}
	return out
}

// cqRegister / cqUnregister maintain the DB's set of attached CQ layers
// (the recipients of topology notifications).
func (db *DB) cqRegister(c *CQ) {
	db.cqMu.Lock()
	db.cqs[c] = struct{}{}
	db.cqMu.Unlock()
}

func (db *DB) cqUnregister(c *CQ) {
	db.cqMu.Lock()
	delete(db.cqs, c)
	db.cqMu.Unlock()
}

// cqSnapshot returns the attached CQ layers.
func (db *DB) cqSnapshot() []*CQ {
	db.cqMu.Lock()
	out := make([]*CQ, 0, len(db.cqs))
	for c := range db.cqs {
		out = append(out, c)
	}
	db.cqMu.Unlock()
	return out
}

// cqTopologyChanged tells every attached CQ that routes or covers just
// changed. Called under the write barrier (db.smu held exclusively), so
// no commit can land on any shard between the topology change and the
// CQ's re-fan-out — a new shard's legs register before the shard's first
// commit, which is what makes "no missed deltas across a split" hold.
func (db *DB) cqTopologyChanged() {
	for _, c := range db.cqSnapshot() {
		c.topologyChanged()
	}
}

// cqShardRemoving tells every attached CQ that the shard with the given
// id is about to be closed (merge finalization). Called under the write
// barrier; the shard is already drained, so its legs' slices hold only
// what the target shard's legs report too.
func (db *DB) cqShardRemoving(id int) {
	for _, c := range db.cqSnapshot() {
		c.shardRemoving(id)
	}
}

// topologyChanged attaches an engine to every new shard and gives every
// subscription a leg on each shard it must now cover. A subscription
// whose new leg cannot register — the shard's engine failed to attach, or
// the leg's initial query failed — ends with that error: it would
// otherwise silently never see that shard. Caller holds db.smu
// exclusively.
func (c *CQ) topologyChanged() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	failed := make(map[int]error)
	for i, sm := range c.db.metas {
		if _, ok := c.engines[sm.id]; !ok {
			e, err := cq.Attach(c.db.shards[i])
			if err != nil {
				failed[sm.id] = err
				continue
			}
			c.engines[sm.id] = e
		}
	}
	subs := c.subsLocked()
	c.mu.Unlock()

	for _, s := range subs {
		err := c.refan(s, failed)
		if err != nil {
			c.db.events.Record("cq.refan", "standing query ended: a shard it must cover cannot be watched",
				"issuer", s.q.Issuer, "err", err)
		}
		if err != nil || s.isClosing() {
			s.shutdown(err)
		}
	}
}

// refan adds a leg for every shard the subscription must now cover but
// does not. Caller holds db.smu exclusively (so no commit races the new
// legs' seeding) and must not hold c.mu.
func (c *CQ) refan(s *Subscription, failed map[int]error) error {
	for _, id := range c.desiredShards(s.q) {
		err := failed[id]
		if err == nil {
			err = s.addLeg(id)
		}
		if err != nil {
			return fmt.Errorf("sharded: cq: shard %d: %w", id, err)
		}
	}
	return nil
}

// shardRemoving takes the shard's leg out of every subscription and
// releases the shard's engine. Caller holds db.smu exclusively.
func (c *CQ) shardRemoving(id int) {
	c.mu.Lock()
	e := c.engines[id]
	delete(c.engines, id)
	subs := c.subsLocked()
	c.mu.Unlock()
	for _, s := range subs {
		s.dropLeg(id)
	}
	if e != nil {
		e.Close()
	}
}

// desiredShards returns the ids of the shards a query must fan out to
// under the current topology: every shard for PkNN, the shards whose
// cover intersects the slack-enlarged region for a range query. Caller
// holds db.smu (either side).
func (c *CQ) desiredShards(q cq.Query) []int {
	var out []int
	if q.K > 0 {
		for _, sm := range c.db.metas {
			out = append(out, sm.id)
		}
		return out
	}
	ew := enlarge(q.Region, c.slack)
	rect, ok := c.db.grid.RectOf(ew.MinX, ew.MinY, ew.MaxX, ew.MaxY)
	if !ok {
		return nil // the enlarged region misses the space entirely
	}
	for _, sm := range c.db.metas {
		if zcurve.HilbertRangeIntersectsRect(rect, sm.cover, c.db.grid.Order) {
			out = append(out, sm.id)
		}
	}
	return out
}

// leg is one shard's part of a merged subscription: the shard's stable
// id, the stop function of the registration on that shard's engine (nil
// until the registration returns), and the slice of the result the shard
// last reported. All under Subscription.mu.
type leg struct {
	id    int
	stop  func()
	slice cq.Result
}

// Subscription is a caller's handle on one merged standing query.
// Semantics mirror cq.Subscription: receive from Deltas, stop with Close,
// inspect Err once the channel closes. A subscription that ended on its
// own (its Err is not nil) still holds its handle's resources until
// Close.
type Subscription struct {
	c *CQ
	q cq.Query

	mu     sync.Mutex
	legs   []*leg
	merged cq.Result // what the consumer holds, had it applied every delta
	box    *cq.Outbox
	seq    uint64
	// started: the merged initial result is taken; deliveries before it
	// only fill slices.
	started bool
	closing bool
	err     error
}

// Deltas returns the merged delta channel. It closes when the subscription
// ends — by Close, by CQ.Close, or by the overflow policy.
func (s *Subscription) Deltas() <-chan cq.Delta { return s.box.C() }

// Err reports why the channel closed: nil after a plain Close,
// cq.ErrSlowConsumer, cq.ErrEngineClosed, or a per-shard evaluation error.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the subscription: the merged channel closes (deltas already
// buffered stay readable) and the per-shard legs are unregistered.
// Idempotent.
func (s *Subscription) Close() { s.shutdown(nil) }

// shutdown ends the subscription with err, unless it has ended already,
// and releases its legs. It calls into the engines, so never from a
// delivery.
func (s *Subscription) shutdown(err error) {
	s.mu.Lock()
	s.endLocked(err)
	legs := s.legs
	s.legs = nil
	s.mu.Unlock()
	for _, l := range legs {
		if l.stop != nil { // nil: addLeg is still registering it and stops it itself
			l.stop()
		}
	}
	s.c.mu.Lock()
	delete(s.c.subs, s)
	s.c.mu.Unlock()
}

// endLocked marks the subscription ended and closes the consumer channel;
// every later delivery returns false. The first cause wins.
func (s *Subscription) endLocked(err error) {
	if !s.closing {
		s.closing = true
		s.err = err
		s.box.Close()
	}
}

// end is the legs' engine-side ending (cq.Engine.Watch): the engine closed
// or a re-evaluation failed. Runs under that engine's mutex.
func (s *Subscription) end(err error) {
	s.mu.Lock()
	s.endLocked(err)
	s.mu.Unlock()
}

func (s *Subscription) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// legLocked returns the subscription's leg on shard id, nil when it has
// none.
func (s *Subscription) legLocked(id int) *leg {
	for _, l := range s.legs {
		if l.id == id {
			return l
		}
	}
	return nil
}

func (s *Subscription) removeLegLocked(l *leg) {
	for i, cur := range s.legs {
		if cur == l {
			s.legs = append(s.legs[:i], s.legs[i+1:]...)
			return
		}
	}
}

// addLeg registers the subscription's query on shard id's engine, unless
// it has a leg there already. The shard's current result arrives as Enter
// deltas before the registration returns; from then on every commit on
// the shard that changes its slice calls deliver from inside the commit.
// Caller holds db.smu (either side) and no other lock.
func (s *Subscription) addLeg(id int) error {
	e := s.c.engineOf(id)
	if e == nil {
		return cq.ErrEngineClosed
	}
	l := &leg{id: id, slice: cq.Result{}}
	s.mu.Lock()
	if s.closing || s.legLocked(id) != nil {
		s.mu.Unlock()
		return nil
	}
	s.legs = append(s.legs, l)
	s.mu.Unlock()
	stop, err := e.Watch(s.q, func(d cq.Delta) bool { return s.deliver(l, d) }, s.end)
	s.mu.Lock()
	if err == nil && !s.closing {
		l.stop = stop
		s.mu.Unlock()
		return nil
	}
	s.removeLegLocked(l)
	s.mu.Unlock()
	if err == nil {
		stop() // ended while registering
	}
	return err
}

// dropLeg removes the leg on a shard that is being merged away and
// recomputes the merged result without it: a user only that leg reported
// leaves (the migrated copy, if any, is in the target shard's slice
// already, and then nothing is emitted at all). Caller holds db.smu
// exclusively.
func (s *Subscription) dropLeg(id int) {
	s.mu.Lock()
	l := s.legLocked(id)
	if l == nil {
		s.mu.Unlock()
		return
	}
	s.removeLegLocked(l)
	if !s.closing {
		s.seq++
		s.merged.Replace(s.mergeLocked(), s.seq, s.emit)
	}
	s.mu.Unlock()
	l.stop()
}

// deliver is a leg's callback: it runs inside a commit on the leg's shard
// (or inside the leg's registration), under that shard's db.mu and e.mu.
// It applies the delta to the leg's slice and brings the merged result up
// to date. False tells the engine to drop the leg.
func (s *Subscription) deliver(l *leg, d cq.Delta) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	uid := d.Object.UID
	if d.Kind == cq.Leave {
		delete(l.slice, uid)
	} else {
		l.slice[uid] = Neighbor{Object: d.Object, Dist: d.Dist}
	}
	if !s.started {
		return true
	}
	s.seq++
	if s.q.K > 0 {
		s.merged.Replace(s.mergeLocked(), s.seq, s.emit)
	} else {
		s.refreshLocked(uid)
	}
	return !s.closing // a Cancel overflow ends the subscription mid-merge
}

// refreshLocked recomputes one user's merged state across the legs — the
// newest state any shard reports — and emits iff the consumer-visible
// state changed.
func (s *Subscription) refreshLocked(uid UserID) {
	var cur Neighbor
	in := false
	for _, l := range s.legs {
		if nb, ok := l.slice[uid]; ok && (!in || nb.Object.T > cur.Object.T) {
			cur, in = nb, true
		}
	}
	s.merged.Set(uid, cur, in, s.seq, s.emit)
}

// mergeLocked derives the whole merged result from the legs' slices the
// way the router's one-shot PkNN merges shard answers, through the same
// mergeNeighbor: a user several shards report counts once, newest state
// wins; order is (Dist, UID) — user id alone for a range query, whose
// distances are zero — and a PkNN result is cut to k.
func (s *Subscription) mergeLocked() []Neighbor {
	var out []Neighbor
	for _, l := range s.legs {
		for _, nb := range l.slice {
			out = mergeNeighbor(out, nb)
		}
	}
	if s.q.K > 0 && len(out) > s.q.K {
		out = out[:s.q.K]
	}
	return out
}

// emit sends one merged delta to the consumer under the caller's overflow
// policy. A Cancel overflow ends the subscription; the rest of the diff
// in progress is swallowed.
func (s *Subscription) emit(d cq.Delta) {
	lost, ok := s.box.Send(d)
	s.c.dropped.Add(uint64(lost))
	if !ok {
		s.endLocked(cq.ErrSlowConsumer)
	}
}

// subscribe registers q as a merged continuous query and returns its
// current merged result. It holds the router's read barrier, so it is
// atomic with respect to cross-shard operations and topology changes;
// each leg registers atomically against its own shard's commits, and what
// commits between two legs' registrations is folded into the slices
// before the initial result is taken.
func (c *CQ) subscribe(q cq.Query, opt cq.SubOptions) (*Subscription, []Neighbor, error) {
	c.db.smu.RLock()
	defer c.db.smu.RUnlock()
	if err := c.usable(); err != nil {
		return nil, nil, err
	}
	s := &Subscription{c: c, q: q, box: cq.NewOutbox(opt), merged: cq.Result{}}
	for _, id := range c.desiredShards(q) {
		if err := s.addLeg(id); err != nil {
			s.Close()
			return nil, nil, err
		}
	}
	s.mu.Lock()
	if s.closing { // an engine closed under the registration
		err := s.err
		s.mu.Unlock()
		s.Close()
		return nil, nil, err
	}
	initial := s.mergeLocked()
	for _, nb := range initial {
		s.merged[nb.Object.UID] = nb
	}
	s.started = true
	s.mu.Unlock()
	c.mu.Lock()
	c.subs[s] = struct{}{}
	c.mu.Unlock()
	return s, initial, nil
}

// SubscribeRange registers issuer's PRQ over region r at evaluation time t
// as a merged continuous query and returns the current merged result,
// ordered by user id like one-shot RangeQuery's.
func (c *CQ) SubscribeRange(issuer UserID, r Region, t float64, opt cq.SubOptions) (*Subscription, []Object, error) {
	if !r.Valid() {
		return nil, nil, &peb.InvalidRegionError{Region: r}
	}
	s, res, err := c.subscribe(cq.Query{Issuer: issuer, Region: r, T: t}, opt)
	if err != nil {
		return nil, nil, err
	}
	initial := make([]Object, len(res))
	for i, nb := range res {
		initial[i] = nb.Object
	}
	return s, initial, nil
}

// SubscribePkNN registers issuer's PkNN centered at (x, y) with result
// size k at evaluation time t as a merged continuous query. Every shard
// gets a leg — any shard can hold a nearest neighbor — and the merge
// keeps the global (Dist, UID)-ordered top k of the per-shard results,
// exactly like the router's one-shot NearestNeighbors.
func (c *CQ) SubscribePkNN(issuer UserID, x, y float64, k int, t float64, opt cq.SubOptions) (*Subscription, []Neighbor, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("cq: k must be positive, got %d", k)
	}
	return c.subscribe(cq.Query{Issuer: issuer, X: x, Y: y, K: k, T: t}, opt)
}

// engineOf returns the engine for shard id (nil when none is attached).
func (c *CQ) engineOf(id int) *cq.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engines[id]
}

// usable reports whether the CQ and its DB still accept subscriptions.
// Caller holds db.smu (either side).
func (c *CQ) usable() error {
	if c.db.closed {
		return ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return cq.ErrEngineClosed
	}
	return nil
}
