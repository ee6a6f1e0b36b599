package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/btree"
	"repro/internal/bxtree"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/motion"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/zcurve"
	"repro/peb"
)

// The ladder measures the layers that offer no seam to trace through. It
// replays one fixed sample of the run's own ops — updates, PRQ, PkNN — at
// seven depths of the stack, each over the same population behind the
// workload's buffer size:
//
//	1  zcurve / policy / the log-record codec   (the leaf computations)
//	2  btree                                    (one descent, one insert)
//	3  core.Tree                                (the paper's algorithms)
//	4  peb.DB, DurabilityNone, memory-backed
//	5  peb.DB, DurabilitySync, file-backed
//	6  sharded.DB, one shard, DurabilitySync
//	7  sharded.DB, four shards, DurabilitySync
//
// A layer's self time is its rung's p50 minus the p50 of the rung below.
// The ladder builds its own targets, so it reads the same on every
// workload except through the buffer size; what a workload's conditions
// add on top (a second client, checkpoints, standing queries) is what
// trace.*_unattributed_share reports.

// rungs holds the p50, in microseconds, of one op kind at rungs 1 to 7.
type rungs [7]float64

// ladderReport is the ladder's section of the trace file.
type ladderReport struct {
	Rungs  []string             `json:"rungs"`
	P50US  map[string]rungs     `json:"p50_us"`
	SelfUS map[string][]float64 `json:"self_us"`
}

var rungNames = []string{"leaf", "btree", "core", "peb_nodur", "peb_sync", "sharded_1", "sharded_4"}

// topRung is the index of the rung that matches each workload's own target.
var topRung = map[string]int{"paper_queries": 3, "sharded_queries": 6, "durable_updates": 6, "geofence_mixed": 6}

type ladder struct {
	e   *env
	r   *result
	w   *world
	buf int

	upd []peb.Object
	prq []workload.PRQuery
	knn []workload.KNNQuery

	commit, prqP50, knnP50 rungs
}

// runLadder measures every rung and sets the per-layer metrics they feed.
// bufferPages is the workload's buffer size; name picks its top rung.
func runLadder(e *env, r *result, w *world, name string, bufferPages int) error {
	l := &ladder{
		e: e, r: r, w: w, buf: bufferPages,
		upd: w.updates[len(w.updates)-e.sz.ladderUpdates:],
		prq: w.prq[:e.sz.ladderPRQ],
		knn: w.knn[:e.sz.ladderKNN],
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"leaf", l.leaf}, {"store", l.store}, {"btree", l.btree}, {"core", l.core},
		{"peb_nodur", l.pebNone}, {"peb_sync", l.pebSync},
		{"sharded_1", func() error { return l.sharded(5, 1) }},
		{"sharded_4", func() error { return l.sharded(6, 4) }},
	}
	for _, s := range steps {
		start := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("ladder %s: %w", s.name, err)
		}
		e.logf("ladder %-9s %.1fs", s.name, time.Since(start).Seconds())
	}
	m := r.m
	m.set("btree.insert_us_p50", "us", l.commit[1])
	m.set("btree.get_us_p50", "us", l.prqP50[1])
	m.set("core.insert_us_p50", "us", l.commit[2])
	m.set("core.prq_us_p50", "us", l.prqP50[2])
	m.set("core.pknn_us_p50", "us", l.knnP50[2])
	m.set("peb.commit_us_p50_nodur", "us", l.commit[3])
	m.set("peb.commit_us_p50_sync", "us", l.commit[4])
	// Everything the router adds to a file-backed peb.DB: dispatch plus
	// the four-way scatter-gather.
	m.set("sharded.router_overhead_us_prq", "us", l.prqP50[6]-l.prqP50[4])
	m.set("sharded.router_overhead_us_pknn", "us", l.knnP50[6]-l.knnP50[4])

	e.logf("ladder p50 us, rungs %v:\n  commit %.1f\n  prq    %.1f\n  pknn   %.1f", rungNames, l.commit, l.prqP50, l.knnP50)
	top := topRung[name] + 1
	m.set("trace.commit_unattributed_share", "share", unattributedShare(m.value("commit_p50_us"), l.commit[:top]))
	m.set("trace.prq_unattributed_share", "share", unattributedShare(m.value("prq_p50_us"), l.prqP50[:top]))
	r.ladder = &ladderReport{
		Rungs:  rungNames,
		P50US:  map[string]rungs{"commit": l.commit, "prq": l.prqP50, "pknn": l.knnP50},
		SelfUS: map[string][]float64{"commit": ladderSelf(l.commit[:]), "prq": ladderSelf(l.prqP50[:]), "pknn": ladderSelf(l.knnP50[:])},
	}
	return nil
}

// p50 times fn over n calls and returns the median in microseconds.
func p50(n int, fn func(i int) error) (float64, error) {
	d, err := timeEach(n, fn)
	return quantileUS(d, 0.50), err
}

// perCallNS times n calls of fn as one block: for calls too short to time
// one at a time.
func perCallNS(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// appendUpsertRecord encodes a one-Upsert log record the way
// peb/walcodec.go lays it out, on the same internal/codec primitives.
func appendUpsertRecord(b []byte, seq uint64, o peb.Object) []byte {
	b = append(b, codec.MagicWALRecord, 1)
	b = codec.AppendUvarint(b, seq)
	b = codec.AppendFloat(b, 0) // nextSV
	b = codec.AppendUvarint(b, 0)
	b = append(b, 0) // txnState
	b = codec.AppendUvarint(b, 1)
	b = append(b, 1) // op kind: upsert
	b = codec.AppendUvarint(b, uint64(o.UID))
	for _, f := range [...]float64{o.X, o.Y, o.VX, o.VY, o.T} {
		b = codec.AppendFloat(b, f)
	}
	return b
}

func decodeUpsertRecord(data []byte) (peb.Object, error) {
	rd := codec.NewReader(data, 1)
	rd.TakeByte("version")
	rd.TakeUvarint("seq")
	rd.TakeFloat("nextSV")
	rd.TakeUvarint("txnID")
	rd.TakeByte("txnState")
	rd.TakeCount("op count", 1)
	rd.TakeByte("op kind")
	o := peb.Object{UID: peb.UserID(rd.TakeUvarint("uid"))}
	o.X, o.Y = rd.TakeFloat("x"), rd.TakeFloat("y")
	o.VX, o.VY = rd.TakeFloat("vx"), rd.TakeFloat("vy")
	o.T = rd.TakeFloat("t")
	rd.ExpectEnd()
	return o, rd.Err()
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

// leaf is rung 1: the computations at the bottom of each op. Each is
// timed as a block over several rounds of the sample, being too short to
// time call by call.
func (l *ladder) leaf() error {
	m := l.r.m
	const rounds = 20

	// The log-record codec, over the update sample.
	n := len(l.upd)
	var buf []byte
	bytes := 0
	encode := perCallNS(rounds*n, func(i int) {
		buf = appendUpsertRecord(buf[:0], uint64(i), l.upd[i%n])
		bytes += len(buf)
	})
	records := make([][]byte, n)
	for i, o := range l.upd {
		records[i] = appendUpsertRecord(nil, uint64(i), o)
	}
	var derr error
	decode := perCallNS(rounds*n, func(i int) {
		o, err := decodeUpsertRecord(records[i%n])
		if err != nil || o != l.upd[i%n] {
			derr = fmt.Errorf("record %d did not round-trip: %v", i%n, err)
		}
	})
	if derr != nil {
		return derr
	}
	m.set("codec.encode_ns_per_record", "ns", encode)
	m.set("codec.decode_ns_per_record", "ns", decode)
	m.set("codec.bytes_per_record", "B", float64(bytes)/float64(rounds*n))
	l.commit[0] = encode / 1e3

	// The window decomposition a PRQ starts with, over the PRQ sample.
	cfg := bxtree.DefaultConfig()
	intervals := 0
	decompose := perCallNS(rounds*len(l.prq), func(i int) {
		q := l.prq[i%len(l.prq)].W
		if rect, ok := cfg.Grid.RectOf(q.MinX, q.MinY, q.MaxX, q.MaxY); ok {
			ivs, _ := zcurve.Decompose(rect, cfg.Grid.Order, cfg.MaxIntervals)
			intervals += len(ivs)
		}
	})
	m.set("zcurve.decompose_us_per_window", "us", decompose/1e3)
	m.set("zcurve.intervals_per_window", "count", float64(intervals)/float64(rounds*len(l.prq)))
	l.prqP50[0] = decompose / 1e3
	l.knnP50[0] = decompose / 1e3

	// The privacy predicate, over every (grantor, issuer) pair of the PRQ
	// sample: the pairs a query actually evaluates.
	pol := l.w.ds.Policies
	type pair struct {
		owner, viewer policy.UserID
		x, y, t       float64
	}
	var pairs []pair
	grantors := 0
	for _, q := range l.prq {
		gs := pol.Grantors(policy.UserID(q.Issuer))
		grantors += len(gs)
		for _, g := range gs {
			x, y := l.w.model[g-1].PositionAt(q.T)
			pairs = append(pairs, pair{g, policy.UserID(q.Issuer), x, y, q.T})
		}
	}
	m.set("policy.grantors_per_issuer", "count", float64(grantors)/float64(len(l.prq)))
	if len(pairs) > 0 {
		m.set("policy.allows_ns_per_call", "ns", perCallNS(rounds*len(pairs), func(i int) {
			p := pairs[i%len(pairs)]
			if pol.Allows(p.owner, p.viewer, p.x, p.y, p.t) {
				sink++
			}
		}))
	}
	return nil
}

// store times the buffer pool's two fetch paths over a memory disk: a
// page that is resident, and a cycle of pages four times the pool's size,
// where LRU misses every time.
func (l *ladder) store() error {
	const capacity = store.DefaultBufferPages
	pool := store.NewBufferPool(store.NewMemDisk(), capacity)
	ids := make([]store.PageID, 4*capacity)
	for i := range ids {
		p, err := pool.NewPage()
		if err != nil {
			return err
		}
		ids[i] = p.ID()
		if err := pool.Unpin(p.ID(), true); err != nil {
			return err
		}
	}
	var ferr error
	fetch := func(id store.PageID) {
		if _, err := pool.Fetch(id); err != nil {
			ferr = err
		} else if err := pool.Unpin(id, false); err != nil {
			ferr = err
		}
	}
	fetch(ids[0])
	hit := perCallNS(20000, func(int) { fetch(ids[0]) })
	miss := perCallNS(20000, func(i int) { fetch(ids[i%len(ids)]) })
	l.r.m.set("store.fetch_hit_ns", "ns", hit)
	l.r.m.set("store.fetch_miss_ns", "ns", miss)
	return ferr
}

// zkey is the ladder's B+-tree key for an object: its Z-curve value, the
// location half of a PEB key.
func zkey(g zcurve.Grid, o peb.Object) btree.KV {
	return btree.KV{Key: g.ZValue(o.X, o.Y), UID: uint32(o.UID)}
}

// btree is rung 2: the population in a bare B+-tree behind the workload's
// buffer size. A commit costs one insert, a query at least one descent.
func (l *ladder) btree() error {
	m := l.r.m
	grid := bxtree.DefaultConfig().Grid
	pool := store.NewBufferPool(store.NewMemDisk(), l.buf)
	t, err := btree.New(pool)
	if err != nil {
		return err
	}
	cur := make(map[peb.UserID]btree.KV, len(l.w.model))
	for _, o := range l.w.model {
		cur[o.UID] = zkey(grid, o)
		if err := t.Insert(cur[o.UID], motion.EncodePayload(o)); err != nil {
			return err
		}
	}
	m.set("btree.entries_per_leaf", "count", float64(t.Size())/float64(t.LeafCount()))

	pool.ResetStats()
	if l.prqP50[1], err = p50(len(l.upd), func(i int) error {
		_, _, err := t.Get(cur[l.upd[i].UID])
		return err
	}); err != nil {
		return err
	}
	m.set("btree.pages_per_lookup", "pages", float64(pool.Stats().Accesses())/float64(len(l.upd)))
	l.knnP50[1] = l.prqP50[1]

	entries := 0
	start := time.Now()
	err = t.RangeScan(btree.KV{}, btree.KV{Key: ^uint64(0), UID: ^uint32(0)}, func(btree.KV, btree.Payload) bool {
		entries++
		return true
	})
	if err != nil {
		return err
	}
	m.set("btree.scan_ns_per_entry", "ns", float64(time.Since(start).Nanoseconds())/float64(entries))

	// An index update is a delete and an insert; the insert is timed.
	for _, o := range l.upd {
		if _, err := t.Delete(cur[o.UID]); err != nil {
			return err
		}
	}
	l.commit[1], err = p50(len(l.upd), func(i int) error {
		return t.Insert(zkey(grid, l.upd[i]), motion.EncodePayload(l.upd[i]))
	})
	return err
}

// core is rung 3: the PEB-tree itself, no locks, no views, no log.
func (l *ladder) core() error {
	m := l.r.m
	heap0 := heapMB()
	pol := l.w.ds.Policies.Clone()
	m.set("policy.heap_mb", "MB", heapMB()-heap0)
	start := time.Now()
	assignment, err := l.w.ds.Assign()
	if err != nil {
		return err
	}
	m.set("policy.encode_s", "s", time.Since(start).Seconds())

	cc := core.DefaultConfig() // as peb.Options.coreConfig derives it
	cc.Base.Grid.Side = spaceSide
	cc.Base.MaxSpeed = workload.DefaultMaxSpeed
	pool := store.NewBufferPool(store.NewMemDisk(), l.buf)
	t, err := core.New(cc, pool, pol, assignment)
	if err != nil {
		return err
	}
	for _, o := range l.w.model {
		if err := t.Insert(o); err != nil {
			return err
		}
	}

	results := 0
	pool.ResetStats()
	a0 := mallocs()
	if l.prqP50[2], err = p50(len(l.prq), func(i int) error {
		q := l.prq[i]
		res, err := t.PRQ(q.Issuer, q.W, q.T)
		results += len(res)
		return err
	}); err != nil {
		return err
	}
	m.set("core.allocs_per_prq", "count", float64(mallocs()-a0)/float64(len(l.prq)))
	m.set("core.prq_page_accesses_per_result", "pages", ratio(float64(pool.Stats().Accesses()), float64(results)))
	a0 = mallocs()
	if l.knnP50[2], err = p50(len(l.knn), func(i int) error {
		q := l.knn[i]
		res, err := t.PKNN(q.Issuer, q.X, q.Y, q.K, q.T)
		sink += len(res)
		return err
	}); err != nil {
		return err
	}
	m.set("core.allocs_per_pknn", "count", float64(mallocs()-a0)/float64(len(l.knn)))
	l.commit[2], err = p50(len(l.upd), func(i int) error { return t.Update(l.upd[i]) })
	return err
}

// replay measures one target at rung i: the PRQ and PkNN samples, then the
// update sample. The queries go first, against exactly the state the
// workload's own target held; the updates would spread the population
// over a second time partition and make every later query costlier.
func (l *ladder) replay(i int, q querier, upsert func(peb.Object) error) (err error) {
	if l.prqP50[i], err = p50(len(l.prq), func(k int) error {
		p := l.prq[k]
		res, err := q.RangeQuery(peb.UserID(p.Issuer), region(p), p.T)
		sink += len(res)
		return err
	}); err != nil {
		return err
	}
	if l.knnP50[i], err = p50(len(l.knn), func(k int) error {
		p := l.knn[k]
		res, err := q.NearestNeighbors(peb.UserID(p.Issuer), p.X, p.Y, p.K, p.T)
		sink += len(res)
		return err
	}); err != nil {
		return err
	}
	l.commit[i], err = p50(len(l.upd), func(k int) error { return upsert(l.upd[k]) })
	return err
}

// pebNone is rung 4: a memory-backed peb.DB with no log.
func (l *ladder) pebNone() error {
	m := l.r.m
	db, err := openPeb(l.w, l.e.options(l.buf))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := l.replay(3, db, db.Upsert); err != nil {
		return err
	}
	// A second, untimed replay of the updates for the commit counters,
	// which reading the clock per op would disturb.
	swaps, a0 := db.ViewSwaps(), mallocs()
	for _, o := range l.upd {
		if err := db.Upsert(o); err != nil {
			return err
		}
	}
	m.set("peb.allocs_per_commit", "count", float64(mallocs()-a0)/float64(len(l.upd)))
	m.set("peb.view_swaps_per_commit", "count", float64(db.ViewSwaps()-swaps)/float64(len(l.upd)))
	open, err := p50(20, func(int) error {
		s, err := db.Snapshot()
		if err != nil {
			return err
		}
		return s.Close()
	})
	m.set("peb.snapshot_open_us_p50", "us", open)
	return err
}

// pebSync is rung 5: a file-backed peb.DB that fsyncs every commit. Its
// commit hook splits each commit where the engine hands off to the log.
func (l *ladder) pebSync() error {
	var hookAt time.Time
	opts := l.e.options(l.buf)
	opts.OnCommit = func(peb.CommitInfo, *peb.CommitView) { hookAt = time.Now() }
	db, err := openDurablePeb(l.w, filepath.Join(l.e.dir, "ladder_peb"), opts)
	if err != nil {
		return err
	}
	defer db.Close()
	var pre, post []time.Duration
	err = l.replay(4, db, func(o peb.Object) error {
		start := time.Now()
		err := db.Upsert(o)
		pre, post = append(pre, hookAt.Sub(start)), append(post, time.Since(hookAt))
		return err
	})
	l.r.m.set("peb.commit_pre_hook_us_p50", "us", quantileUS(pre, 0.50))
	l.r.m.set("peb.commit_post_hook_us_p50", "us", quantileUS(post, 0.50))
	return err
}

// sharded is rungs 6 and 7: the router over one shard, then four.
func (l *ladder) sharded(i, shards int) error {
	dir := filepath.Join(l.e.dir, fmt.Sprintf("ladder_sharded_%d", shards))
	opts := l.e.options(l.buf)
	if err := buildSharded(l.w, dir, shards, opts); err != nil {
		return err
	}
	db, err := openSharded(dir, opts)
	if err != nil {
		return err
	}
	defer db.Close()
	return l.replay(i, db, db.Upsert)
}
