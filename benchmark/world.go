package main

import (
	"sort"

	"repro/internal/policy"
	"repro/internal/workload"
	"repro/peb"
)

// The common set-up of every workload (issue 11): θ = 0.7 over a 1000²
// space, PRQ windows of side 200, PkNN with k = 5.
const (
	spaceSide  = 1000.0
	windowSide = 200.0
	knnK       = 5
	fenceSide  = 300.0

	// Updates carry times in [updateT0, updateT0+updateSpan): inside the
	// index's maximum update interval of every query time used here, so
	// no stored state is ever staler than the engine's contract allows.
	updateT0   = 60.0
	updateSpan = 20.0
)

// sizes fixes the population and the op counts of the counted passes.
// fullSizes is the benchmark; smokeSizes is smoke_test.go's.
type sizes struct {
	users, policies, fences int

	paperQueries   int // PRQ and PkNN each, paper_queries counted pass
	shardedQueries int // PRQ and PkNN each, sharded_queries counted pass
	commits        int // durable_updates counted pass, single Upserts
	batches        int // durable_updates counted pass, cross-shard Applies
	tail           int // durable_updates commits after the last checkpoint
	geoCommits     int // geofence_mixed counted pass
	updates        int // pre-generated update list, cycled by timed passes
	paperSetups    int // set-ups timed per paper_queries run (median)

	ladderUpdates, ladderPRQ, ladderKNN int // ladder sample
}

var fullSizes = sizes{
	users: 20000, policies: 20, fences: 1000,
	paperQueries: 2000, shardedQueries: 60,
	commits: 10000, batches: 500, tail: 5000,
	geoCommits:    10000,
	updates:       160000,
	paperSetups:   3,
	ladderUpdates: 1000, ladderPRQ: 200, ladderKNN: 40,
}

var smokeSizes = sizes{
	users: 1000, policies: 20, fences: 50,
	paperQueries: 50, shardedQueries: 10,
	commits: 160, batches: 8, tail: 50,
	geoCommits:    300,
	updates:       4000,
	paperSetups:   1,
	ladderUpdates: 20, ladderPRQ: 10, ladderKNN: 4,
}

// grant is one owner→viewer policy of the generated dataset.
type grant struct {
	owner, viewer peb.UserID
	p             policy.Policy
}

// world is one seed's generated inputs plus the oracle's model of what the
// target under test must hold.
type world struct {
	ds     *workload.Dataset
	grants []grant
	// model[uid-1] is the last acknowledged state of uid.
	model   []peb.Object
	prq     []workload.PRQuery
	knn     []workload.KNNQuery
	updates []peb.Object
}

// newWorld generates the dataset for seed, queries PRQ and queries PkNN
// queries at time tq, and sz.updates single-object updates.
func newWorld(seed int64, sz sizes, queries int, tq float64) (*world, error) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers = sz.users
	cfg.PoliciesPerUser = sz.policies
	cfg.Space = spaceSide
	cfg.Seed = seed
	ds, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	w := &world{ds: ds}

	// ForEachGrant iterates a map; sort so every run loads the policies in
	// one order and the counted passes repeat exactly.
	w.grants = make([]grant, 0, ds.Policies.NumPolicies())
	ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		w.grants = append(w.grants, grant{peb.UserID(owner), peb.UserID(viewer), p})
		return true
	})
	sort.Slice(w.grants, func(i, j int) bool {
		a, b := w.grants[i], w.grants[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		return a.viewer < b.viewer
	})

	w.model = append([]peb.Object(nil), ds.Objects...)
	w.prq = ds.GenPRQueries(queries, windowSide, tq)
	w.knn = ds.GenKNNQueries(queries, knnK, tq)

	// UpdateBatch walks the population round-robin, so update i moves
	// user i mod users: clients that stride the list by the client count
	// (which divides the population) never share a user.
	w.updates = make([]peb.Object, sz.updates)
	one := 1 / float64(sz.users)
	for i := range w.updates {
		now := updateT0 + updateSpan*float64(i)/float64(sz.updates)
		w.updates[i] = ds.UpdateBatch(one, now)[0]
	}
	return w, nil
}

// ack records that the target acknowledged o.
func (w *world) ack(o peb.Object) { w.model[o.UID-1] = o }

func region(q workload.PRQuery) peb.Region {
	return peb.Region{MinX: q.W.MinX, MinY: q.W.MinY, MaxX: q.W.MaxX, MaxY: q.W.MaxY}
}
