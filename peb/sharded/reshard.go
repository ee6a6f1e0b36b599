package sharded

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/store"
	"repro/internal/zcurve"
	"repro/peb"
)

// Online resharding. A hot shard serializes every commit to its range
// behind one write lock and one log; splitting the range in two puts the
// halves on independent locks, logs, and checkpoint pipelines. The split
// (and its inverse, the merge) happens while the database serves:
//
//  1. Route flip (one write-barrier acquisition). For a split: sample the
//     source's population, pick the split point at the population median
//     of its route (zcurve.SplitByDensity), create the new shard's engine,
//     borrowing the policy engine's store, and persist a manifest in
//     which the source routes only the lower half, the new shard routes
//     the upper half, and a pendingOp records the migration. The manifest
//     rename is the atomic commit point: before it the split does not
//     exist; after it the split always completes, even across a crash.
//     The source's COVER still spans both halves, so queries keep finding
//     the not-yet-moved objects; only new writes route to the new shard.
//     For a merge: the source's route is absorbed by an adjacent
//     neighbor (covers widen accordingly) and the source stops routing.
//  2. Migration. Objects whose position no longer routes to the shard
//     holding them are moved in bounded batches through the same
//     one-record commit as a cross-shard user batch (commitParts),
//     releasing the barrier between batches so reads and writes keep
//     serving. The route flip already happened, so no new object joins
//     the moving set and the loop terminates.
//  3. Finalize (one more barrier acquisition). Covers contract to routes
//     (split), or the drained source is dropped from the manifest, closed,
//     and its files deleted (merge). Another manifest write commits it.
//
// A crash anywhere in the middle leaves the manifest either without the
// pendingOp (the change never happened) or with it (recovery rolls the
// migration forward before serving — Open calls completePendingLocked).
// Object moves themselves are crash-atomic cross-shard transactions, so no
// fault point loses or duplicates an object. A merge settles every such
// transaction before it drops its source from the manifest: the source's
// parts are durable, so recovery never needs to redo a part on a shard the
// manifest no longer lists, and skips it.
//
// Live CQ subscriptions are notified under the same barrier as each route
// flip (cqTopologyChanged / cqShardRemoving), so standing queries follow
// the topology without missing a delta — see cq.go.

// migrateBatch bounds how many objects one migration step moves (and so
// how long the write barrier is held at a stretch).
const migrateBatch = 256

// AutoReshardPolicy configures the background maintainer that keeps the
// topology matched to the observed load. The zero value disables it.
type AutoReshardPolicy struct {
	// Interval is how often the maintainer examines the per-shard EWMA
	// commit rates; zero or negative disables automatic resharding
	// (explicit Split and Merge still work).
	Interval time.Duration
	// SplitCommitRate is the per-second commit rate above which a shard is
	// considered hot and split (subject to MaxShards). Zero disables
	// automatic splits.
	SplitCommitRate float64
	// MergeCommitRate is the per-second commit rate below which two
	// route-adjacent shards are considered cold and merged (subject to
	// MinShards). Zero disables automatic merges.
	MergeCommitRate float64
	// MaxShards caps automatic splits (default 64); MinShards floors
	// automatic merges (default 1).
	MaxShards int
	MinShards int
}

func (p AutoReshardPolicy) validate() error {
	if p.Interval <= 0 {
		return nil // disabled; the other fields are ignored
	}
	if p.SplitCommitRate < 0 || p.MergeCommitRate < 0 {
		return fmt.Errorf("%w: AutoReshard rates must be non-negative", peb.ErrBadOptions)
	}
	if p.SplitCommitRate > 0 && p.MergeCommitRate >= p.SplitCommitRate {
		return fmt.Errorf("%w: AutoReshard.MergeCommitRate %g must stay below SplitCommitRate %g (or the topology oscillates)",
			peb.ErrBadOptions, p.MergeCommitRate, p.SplitCommitRate)
	}
	if p.MaxShards < 0 || p.MinShards < 0 {
		return fmt.Errorf("%w: AutoReshard shard bounds must be non-negative", peb.ErrBadOptions)
	}
	if p.MaxShards > 0 && p.MinShards > p.MaxShards {
		return fmt.Errorf("%w: AutoReshard.MinShards %d exceeds MaxShards %d", peb.ErrBadOptions, p.MinShards, p.MaxShards)
	}
	return nil
}

func (p AutoReshardPolicy) maxShards() int {
	if p.MaxShards <= 0 {
		return 64
	}
	return p.MaxShards
}

func (p AutoReshardPolicy) minShards() int {
	if p.MinShards <= 0 {
		return 1
	}
	return p.MinShards
}

// Split divides the identified shard's Hilbert range in two at its
// population median, migrates the upper half's objects to a freshly
// created shard, and contracts the source — all online: reads and writes
// keep serving throughout (queries consult both halves until the
// migration drains). Split returns once the topology change is complete
// and durable. It fails if another split or merge is in flight or if the
// shard's range is too narrow to divide.
func (db *DB) Split(id int) error {
	if err := db.beginSplit(id); err != nil {
		return err
	}
	return db.finishPending()
}

// Merge drains the identified shard into a route-adjacent neighbor and
// removes it, reclaiming its directory — the inverse of Split, with the
// same online guarantees. The neighbor's range absorbs the source's.
func (db *DB) Merge(id int) error {
	if err := db.beginMerge(id); err != nil {
		return err
	}
	return db.finishPending()
}

// beginSplit performs a split's route flip: everything up to and including
// the manifest write that makes the split exist.
func (db *DB) beginSplit(id int) error {
	// The new shard's index starts under an encoding of the policies. It
	// starts empty, so any encoding covers it: computed before the barrier
	// is taken, the label propagation stalls no routed read or write.
	enc, err := db.pe.ComputeEncoding(nil)
	if err != nil {
		return fmt.Errorf("sharded: split shard %d: encode policies: %w", id, err)
	}
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.pending != nil {
		return fmt.Errorf("sharded: split shard %d: a %s is already in flight", id, db.pending.Kind)
	}
	slot, ok := db.slotOf(id)
	if !ok {
		return fmt.Errorf("sharded: split: no shard %d", id)
	}
	sm := db.metas[slot]
	if sm.noRoute {
		return fmt.Errorf("sharded: split: shard %d is being merged away", id)
	}

	// Pick the split point where the population actually sits: the median
	// Hilbert value of the source's objects, so each half inherits about
	// half the load even under a skewed distribution. An empty shard
	// splits at the geometric midpoint.
	objs, err := db.shards[slot].Objects()
	if err != nil {
		return fmt.Errorf("sharded: split: sample shard %d: %w", id, err)
	}
	values := make([]uint64, len(objs))
	for i, o := range objs {
		values[i] = db.grid.HilbertValue(o.X, o.Y)
	}
	at, ok := zcurve.SplitByDensity(sm.route, values)
	if !ok {
		return fmt.Errorf("sharded: split: shard %d route %v is too narrow to divide", id, sm.route)
	}

	newID := db.nextID
	eng, err := db.newShardEngine(newID, enc)
	if err != nil {
		return fmt.Errorf("sharded: split: create shard %d: %w", newID, err)
	}
	upper := zcurve.Interval{Lo: at + 1, Hi: sm.route.Hi}

	// Stage the flipped topology, then persist: the manifest rename is the
	// split's commit point. On failure, revert the staging and discard the
	// engine — nothing observable happened.
	db.metas[slot].route = zcurve.Interval{Lo: sm.route.Lo, Hi: at}
	db.metas = append(db.metas, shardMeta{id: newID, route: upper, cover: upper, load: newLoadMeter()})
	db.shards = append(db.shards, eng)
	db.nextID++
	db.epoch++
	db.pending = &pendingOp{Kind: pendingSplit, Src: id, Dst: newID, SplitAt: at}
	if err := db.writeManifest(); err != nil {
		db.metas[slot].route = sm.route
		db.metas = db.metas[:len(db.metas)-1]
		db.shards = db.shards[:len(db.shards)-1]
		db.nextID--
		db.epoch--
		db.pending = nil
		eng.Close()
		db.removeShardFiles(newID)
		return err
	}
	db.rebuildRoutes()
	db.cqTopologyChanged()
	return nil
}

// beginMerge performs a merge's route flip: the source stops routing, a
// route-adjacent neighbor absorbs its range, and the manifest write makes
// the merge exist.
func (db *DB) beginMerge(id int) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.pending != nil {
		return fmt.Errorf("sharded: merge shard %d: a %s is already in flight", id, db.pending.Kind)
	}
	if len(db.metas) < 2 {
		return fmt.Errorf("sharded: merge: only one shard left")
	}
	srcSlot, ok := db.slotOf(id)
	if !ok {
		return fmt.Errorf("sharded: merge: no shard %d", id)
	}
	src := db.metas[srcSlot]
	if src.noRoute {
		return fmt.Errorf("sharded: merge: shard %d is already being merged away", id)
	}

	// The absorbing neighbor must be route-adjacent so the union is one
	// contiguous interval: prefer the right neighbor, fall back to the
	// left (one of the two exists for every shard but a sole survivor).
	dstSlot := -1
	for i, sm := range db.metas {
		if sm.noRoute || i == srcSlot {
			continue
		}
		if sm.route.Lo == src.route.Hi+1 {
			dstSlot = i
			break
		}
		if sm.route.Hi+1 == src.route.Lo && dstSlot < 0 {
			dstSlot = i
		}
	}
	if dstSlot < 0 {
		return fmt.Errorf("sharded: merge: shard %d has no route-adjacent neighbor", id)
	}
	dst := db.metas[dstSlot]
	union := zcurve.Interval{Lo: minU64(src.route.Lo, dst.route.Lo), Hi: maxU64(src.route.Hi, dst.route.Hi)}

	db.metas[srcSlot].noRoute = true
	db.metas[dstSlot].route = union
	db.metas[dstSlot].cover = union
	db.epoch++
	db.pending = &pendingOp{Kind: pendingMerge, Src: src.id, Dst: dst.id}
	if err := db.writeManifest(); err != nil {
		db.metas[srcSlot].noRoute = false
		db.metas[dstSlot].route = dst.route
		db.metas[dstSlot].cover = dst.cover
		db.epoch--
		db.pending = nil
		return err
	}
	db.rebuildRoutes()
	// The destination's cover just widened over the source's range: legs
	// for it are injected into every subscription watching that range
	// BEFORE any commit can land there, so the migrated objects' arrival
	// deltas are never missed.
	db.cqTopologyChanged()
	return nil
}

// newShardEngine creates a fresh engine for a split's new shard. Like every
// shard it borrows the policy engine's store, and its index starts under
// enc, an encoding of the policies, so the objects the split moves in
// cluster by them rather than as singletons.
func (db *DB) newShardEngine(id int, enc *peb.PolicyEncoding) (*peb.DB, error) {
	po := db.opts.DB
	po.FS = db.fs
	po.MetricsLabel = shardLabel(id)
	if db.opts.Dir != "" {
		dir := shardDir(db.opts.Dir, id)
		if _, isOS := db.fs.(store.OSFS); isOS {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		// A crash between engine creation and the manifest write orphans
		// the directory; ids are never reused until nextID wraps back here
		// through a NEW allocation, so stale files from such an attempt
		// must be swept before the engine initializes over them.
		db.removeShardFiles(id)
		po.Path = filepath.Join(dir, "peb.idx")
	}
	eng, err := peb.Open(po)
	if err != nil {
		return nil, err
	}
	if err := eng.BorrowPolicies(db.pe); err != nil {
		eng.Close()
		return nil, fmt.Errorf("borrow policies: %w", err)
	}
	if err := eng.InstallEncoding(enc); err != nil {
		eng.Close()
		return nil, fmt.Errorf("seed policy encoding: %w", err)
	}
	return eng, nil
}

// removeShardFiles best-effort deletes every file in a shard's directory
// (merge reclamation, or sweeping a crash-orphaned split target).
func (db *DB) removeShardFiles(id int) {
	if db.opts.Dir == "" {
		return
	}
	names, err := db.fs.ListDir(shardDir(db.opts.Dir, id))
	if err != nil {
		return
	}
	for _, name := range names {
		_ = db.fs.Remove(name)
	}
}

// finishPending drives the in-flight migration to completion in bounded
// batches, releasing the barrier between batches so reads and writes keep
// serving — the online half of Split and Merge.
func (db *DB) finishPending() error {
	for {
		db.smu.Lock()
		if db.closed {
			db.smu.Unlock()
			return ErrClosed
		}
		if db.pending == nil {
			db.smu.Unlock()
			return nil
		}
		moved, err := db.migrateStepLocked()
		if err == nil && moved == 0 {
			err = db.finalizePendingLocked()
		}
		db.smu.Unlock()
		if err != nil {
			return err
		}
	}
}

// completePendingLocked rolls a recovered in-flight migration forward to
// completion. Called from Open before the DB is shared, so no locking.
func (db *DB) completePendingLocked() error {
	for db.pending != nil {
		moved, err := db.migrateStepLocked()
		if err != nil {
			return err
		}
		if moved == 0 {
			if err := db.finalizePendingLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrateStepLocked moves one bounded batch of objects out of the pending
// operation's source shard, through the same atomic cross-shard commit as
// a user batch. It returns how many objects moved; zero means the source
// is drained. Caller holds the write barrier.
func (db *DB) migrateStepLocked() (int, error) {
	p := db.pending
	srcSlot, ok := db.slotOf(p.Src)
	if !ok {
		return 0, fmt.Errorf("sharded: migrate: source shard %d vanished", p.Src)
	}
	objs, err := db.shards[srcSlot].Objects()
	if err != nil {
		return 0, fmt.Errorf("sharded: migrate: enumerate shard %d: %w", p.Src, err)
	}
	all := db.participants()
	delta := make(map[UserID]int)
	var users userSet
	moved := 0
	for _, o := range objs {
		target := db.shardOf(o.X, o.Y)
		if target == srcSlot {
			continue // still routed here (a split source keeps its lower half)
		}
		all[target].b.Upsert(o)
		all[srcSlot].b.Remove(o.UID)
		delta[o.UID] = target
		users.add(o.UID)
		moved++
		if moved >= migrateBatch {
			break
		}
	}
	if moved == 0 {
		return 0, nil
	}
	// The moved users' routed writes still in their fsync finish first: a
	// part must not read a commit a power cut could still lose.
	// A move has two participants, so it is durable at its commit point.
	db.lockUsers(users)
	_, committed, err := db.commitParts(staged(all))
	db.unlockUsers(users)
	if committed {
		db.applyOwnerDelta(delta)
	}
	if err != nil {
		return moved, fmt.Errorf("sharded: migrate batch out of shard %d: %w", p.Src, err)
	}
	return moved, nil
}

// finalizePendingLocked commits the end of a drained migration: covers
// contract (split) or the source shard is dropped (merge). The manifest
// write is, as always, the durable commit point — for a merge it happens
// BEFORE the in-memory removal, because closing the source engine and
// deleting its files cannot be rolled back. Caller holds the write
// barrier.
func (db *DB) finalizePendingLocked() error {
	p := db.pending
	switch p.Kind {
	case pendingSplit:
		slot, ok := db.slotOf(p.Src)
		if !ok {
			return fmt.Errorf("sharded: finalize split: shard %d vanished", p.Src)
		}
		oldCover := db.metas[slot].cover
		db.metas[slot].cover = db.metas[slot].route
		db.pending = nil
		db.epoch++
		if err := db.writeManifest(); err != nil {
			db.metas[slot].cover = oldCover
			db.pending = p
			db.epoch--
			return err
		}
		db.rebuildRoutes()
		db.splits.Add(1)
		db.cqTopologyChanged()
		return nil

	case pendingMerge:
		srcSlot, ok := db.slotOf(p.Src)
		if !ok {
			return fmt.Errorf("sharded: finalize merge: shard %d vanished", p.Src)
		}
		dstSlot, ok := db.slotOf(p.Dst)
		if !ok {
			return fmt.Errorf("sharded: finalize merge: shard %d vanished", p.Dst)
		}
		// Make every committed transaction's parts durable, the source's
		// migration batches among them: once the manifest drops the source,
		// recovery could not redo a part the source lacked, and a part it
		// coordinated needs its log.
		if err := db.settle(true); err != nil {
			return fmt.Errorf("sharded: finalize merge: settle: %w", err)
		}
		// Persist the post-merge topology first; only then mutate memory.
		ts := topoState{epoch: db.epoch + 1, nextID: db.nextID}
		for i, sm := range db.metas {
			if i == srcSlot {
				continue
			}
			if i == dstSlot {
				sm.cover = sm.route
			}
			ts.metas = append(ts.metas, sm)
		}
		if err := db.persistTopo(ts); err != nil {
			return err
		}
		// Drop the source's CQ legs before its engine closes, so the close
		// ends no subscription.
		db.cqShardRemoving(p.Src)
		src := db.shards[srcSlot]
		db.metas[dstSlot].cover = db.metas[dstSlot].route
		db.shards = append(db.shards[:srcSlot], db.shards[srcSlot+1:]...)
		db.metas = append(db.metas[:srcSlot], db.metas[srcSlot+1:]...)
		db.epoch++
		db.pending = nil
		// The source was drained, so no user routes to it; owners in later
		// slots shift down by one.
		db.ownMu.Lock()
		for uid, s := range db.owner {
			if s > srcSlot {
				db.owner[uid] = s - 1
			}
		}
		db.ownMu.Unlock()
		if err := src.Close(); err != nil {
			// The merge is durably committed; a close error only leaks the
			// source's resources until process exit.
			_ = err
		}
		db.removeShardFiles(p.Src)
		db.rebuildRoutes()
		db.merges.Add(1)
		db.cqTopologyChanged()
		return nil
	}
	return fmt.Errorf("sharded: unknown pending operation %q", p.Kind)
}

// startMaintainer launches the AutoReshard loop (no-op when disabled).
func (db *DB) startMaintainer() {
	if db.opts.AutoReshard.Interval <= 0 {
		return
	}
	db.reshardStop = make(chan struct{})
	db.reshardDone = make(chan struct{})
	go db.maintainLoop()
}

// stopMaintainer stops the AutoReshard loop and waits for it to exit;
// idempotent, called by Close before it takes the barrier (the maintainer
// acquires the barrier itself).
func (db *DB) stopMaintainer() {
	if db.reshardStop == nil {
		return
	}
	db.reshardOnce.Do(func() { close(db.reshardStop) })
	<-db.reshardDone
}

func (db *DB) maintainLoop() {
	defer close(db.reshardDone)
	t := time.NewTicker(db.opts.AutoReshard.Interval)
	defer t.Stop()
	for {
		select {
		case <-db.reshardStop:
			return
		case <-t.C:
			db.reshardTick()
		}
	}
}

// reshardTick examines the EWMA commit rates and performs at most one
// topology change: split the hottest shard past the split threshold, or
// else merge the coldest adjacent pair under the merge threshold. Errors
// are swallowed — the maintainer is best-effort and the next tick retries
// (a shard too narrow to split simply stays hot).
func (db *DB) reshardTick() {
	pol := db.opts.AutoReshard
	st := db.Stats()
	if len(st.Shards) == 0 {
		return // closed (or closing)
	}
	hot, hotRate := -1, 0.0
	for _, ss := range st.Shards {
		if ss.NoRoute {
			return // a migration is still in flight; let it drain
		}
		if ss.CommitRate > hotRate {
			hot, hotRate = ss.ID, ss.CommitRate
		}
	}
	if pol.SplitCommitRate > 0 && hot >= 0 &&
		hotRate >= pol.SplitCommitRate && len(st.Shards) < pol.maxShards() {
		err := db.Split(hot)
		db.events.Record("reshard.split", "hot shard split by the AutoReshard maintainer",
			"shard", hot, "commit_rate", hotRate, "threshold", pol.SplitCommitRate,
			"shards", len(st.Shards), "err", err)
		return
	}
	if pol.MergeCommitRate <= 0 || len(st.Shards) <= pol.minShards() {
		return
	}
	// Coldest route-adjacent pair, both under the merge threshold.
	byRoute := append([]ShardStats(nil), st.Shards...)
	sort.Slice(byRoute, func(a, b int) bool { return byRoute[a].Route.Lo < byRoute[b].Route.Lo })
	bestID, bestRate := -1, 0.0
	for i := 0; i+1 < len(byRoute); i++ {
		a, b := byRoute[i], byRoute[i+1]
		if a.CommitRate > pol.MergeCommitRate || b.CommitRate > pol.MergeCommitRate {
			continue
		}
		if pair := a.CommitRate + b.CommitRate; bestID < 0 || pair < bestRate {
			bestID, bestRate = a.ID, pair
		}
	}
	if bestID >= 0 {
		err := db.Merge(bestID)
		db.events.Record("reshard.merge", "cold adjacent shards merged by the AutoReshard maintainer",
			"shard", bestID, "pair_rate", bestRate, "threshold", pol.MergeCommitRate,
			"shards", len(st.Shards), "err", err)
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
