package sharded

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/peb"
)

// Routing: a shard holds each object where it last reported, so a routed
// window must be enlarged by how far an object can have moved since its
// update time — not since its label time, which bounds the distance from
// the position its key is built from.

// TestRoutedPRQFindsMovedObject: an object reports at x = 520, in the
// right-hand quadrants, at t = 1 and moves left at speed 2. A window at
// x 300–320 meets it at t = 106. The gap to its label time (t = 120)
// allows 42 units of slack, where 200 are needed; the gap to its update
// time allows 315. With the former, routing skips the object's shard and
// the router answers nothing where one engine answers the object.
func TestRoutedPRQFindsMovedObject(t *testing.T) {
	p := newPair(t, 4)
	const issuer, mover = 1, 2
	p.relate(t, mover, issuer, "f")
	p.grant(t, mover, "f", Region{MaxX: 1000, MaxY: 1000}, TimeInterval{End: 1440})
	obj := Object{UID: mover, X: 520, Y: 250, VX: -2, T: 1}
	p.upsert(t, obj)
	r := Region{MinX: 300, MinY: 240, MaxX: 320, MaxY: 260}
	const qt = 106.0

	want, err := p.oracle.RangeQuery(issuer, r, qt)
	if err != nil || len(want) != 1 {
		t.Fatalf("single engine: %v, %v; want the object", want, err)
	}
	got, err := p.sharded.RangeQuery(issuer, r, qt)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("router: %v, %v; want %v", got, err, want)
	}
	snap, err := p.sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got, err := snap.RangeQuery(issuer, r, qt); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("router snapshot: %v, %v; want %v", got, err, want)
	}
}

// TestShardedOracleGenerated runs seeded streams through one peb.DB and
// one router at 1, 4 and 7 shards: objects at speeds up to MaxSpeed,
// re-reported in rounds so users re-home, and small windows and k-NN
// points where the objects will be up to MaxUpdateInterval after their
// update, far from where they reported. Every one-shot and snapshot PRQ
// and PkNN must agree as UID-sorted sets.
func TestShardedOracleGenerated(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		for seed := int64(1); seed <= 3; seed++ {
			generatedStream(t, shards, seed)
		}
	}
}

func generatedStream(t *testing.T, shards int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := newPair(t, shards)
	speed, interval := p.oracle.MaxSpeed(), p.oracle.MaxUpdateInterval()
	const users, issuers, rounds, queries = 120, 4, 3, 40
	all := Region{MaxX: 1000, MaxY: 1000}
	day := TimeInterval{End: 1440}
	for u := UserID(issuers + 1); u <= users; u++ {
		for i := UserID(1); i <= issuers; i++ {
			if (u+i)%3 != 0 {
				p.relate(t, u, i, "f")
			}
		}
		locr := all
		if u%4 == 0 {
			locr = Region{MinX: 0, MinY: 0, MaxX: 700, MaxY: 700}
		}
		p.grant(t, u, "f", locr, day)
	}

	objs := make([]Object, 0, users)
	for round := 0; round < rounds; round++ {
		objs = objs[:0]
		base := float64(round) * interval / 2
		for u := UserID(1); u <= users; u++ {
			angle, v := rng.Float64()*2*math.Pi, rng.Float64()*speed
			o := Object{
				UID: u,
				X:   rng.Float64() * 1000,
				Y:   rng.Float64() * 1000,
				VX:  v * math.Cos(angle),
				VY:  v * math.Sin(angle),
				T:   base + rng.Float64()*interval/2,
			}
			p.upsert(t, o)
			objs = append(objs, o)
		}
		if round == 1 {
			p.encode(t)
		}

		snap, err := p.sharded.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		osnap, err := p.oracle.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < queries; q++ {
			// Where some object will be, up to MaxUpdateInterval after its
			// update.
			o := objs[rng.Intn(len(objs))]
			tq := o.T + rng.Float64()*interval
			x, y := o.PositionAt(tq)
			side := 5 + rng.Float64()*30
			r := Region{MinX: x - side, MinY: y - side, MaxX: x + side, MaxY: y + side}
			issuer := UserID(1 + rng.Intn(issuers))
			k := 1 + rng.Intn(6)

			prq := fmt.Sprintf("seed %d, %d shards: PRQ(issuer %d, %+v, t=%g)", seed, shards, issuer, r, tq)
			checkGenerated(t, prq,
				func() ([]UserID, error) { return rangeUIDs(p.sharded.RangeQuery(issuer, r, tq)) },
				func() ([]UserID, error) { return rangeUIDs(p.oracle.RangeQuery(issuer, r, tq)) })
			checkGenerated(t, "snapshot "+prq,
				func() ([]UserID, error) { return rangeUIDs(snap.RangeQuery(issuer, r, tq)) },
				func() ([]UserID, error) { return rangeUIDs(osnap.RangeQuery(issuer, r, tq)) })
			knn := fmt.Sprintf("seed %d, %d shards: PkNN(issuer %d, (%g,%g), k=%d, t=%g)", seed, shards, issuer, x, y, k, tq)
			checkGenerated(t, knn,
				func() ([]UserID, error) { return knnUIDs(p.sharded.NearestNeighbors(issuer, x, y, k, tq)) },
				func() ([]UserID, error) { return knnUIDs(p.oracle.NearestNeighbors(issuer, x, y, k, tq)) })
			checkGenerated(t, "snapshot "+knn,
				func() ([]UserID, error) { return knnUIDs(snap.NearestNeighbors(issuer, x, y, k, tq)) },
				func() ([]UserID, error) { return knnUIDs(osnap.NearestNeighbors(issuer, x, y, k, tq)) })
		}
		snap.Close()
		osnap.Close()
	}
}

// checkGenerated compares one query's answer through the router and the
// single engine; label names the query and the stream's seed.
func checkGenerated(t *testing.T, label string, routed, single func() ([]UserID, error)) {
	t.Helper()
	got, err := routed()
	if err != nil {
		t.Fatalf("%s: routed: %v", label, err)
	}
	want, err := single()
	if err != nil {
		t.Fatalf("%s: single engine: %v", label, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s:\n routed %v\n single %v", label, got, want)
	}
}

// rangeUIDs is a PRQ answer as a UID-sorted set.
func rangeUIDs(objs []Object, err error) ([]UserID, error) {
	out := make([]UserID, len(objs))
	for i, o := range objs {
		out[i] = o.UID
	}
	slices.Sort(out)
	return out, err
}

// knnUIDs is a PkNN answer as a UID-sorted set.
func knnUIDs(ns []peb.Neighbor, err error) ([]UserID, error) {
	out := make([]UserID, len(ns))
	for i, n := range ns {
		out[i] = n.Object.UID
	}
	slices.Sort(out)
	return out, err
}
