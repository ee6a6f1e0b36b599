package sharded

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/peb"
)

// TestShardedConcurrentStress exercises the router under -race: writers
// continuously re-home users across shard boundaries while readers run
// scatter-gather queries and take consistent snapshots. No result holds a
// user twice: a re-home is one cross-shard commit, and the gathers do not
// merge duplicates. At quiescence the state must equal an oracle built
// from each user's last write.
func TestShardedConcurrentStress(t *testing.T) {
	db, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	day := TimeInterval{Start: 0, End: 1440}
	space := Region{MaxX: 1000, MaxY: 1000}
	const (
		writers      = 4
		usersPer     = 30
		opsPerWriter = 150
		issuer       = UserID(9001)
	)
	// Every user grants the issuer's role visibility everywhere, so the
	// final range query sees the whole population.
	for w := 0; w < writers; w++ {
		for u := 0; u < usersPer; u++ {
			uid := UserID(1000*w + u + 1)
			if err := db.DefineRelation(uid, issuer, "watcher"); err != nil {
				t.Fatal(err)
			}
			if err := db.Grant(uid, "watcher", space, day); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Each writer owns a disjoint user range, so its last write per user
	// is the authoritative final state.
	finals := make([]map[UserID]Object, writers)
	var writeWG, readWG sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		finals[w] = make(map[UserID]Object)
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsPerWriter; i++ {
				uid := UserID(1000*w + rng.Intn(usersPer) + 1)
				o := Object{
					UID: uid,
					X:   rng.Float64() * 1000, Y: rng.Float64() * 1000,
					VX: rng.Float64()*4 - 2, VY: rng.Float64()*4 - 2,
					T: float64(i % 60),
				}
				if err := db.Upsert(o); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				finals[w][uid] = o
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var uids []UserID
				switch rng.Intn(3) {
				case 0:
					res, err := db.RangeQuery(issuer, Region{
						MinX: rng.Float64() * 500, MinY: rng.Float64() * 500,
						MaxX: 500 + rng.Float64()*500, MaxY: 500 + rng.Float64()*500,
					}, 30)
					if err != nil {
						errCh <- fmt.Errorf("reader %d PRQ: %w", r, err)
						return
					}
					for _, o := range res {
						uids = append(uids, o.UID)
					}
				case 1:
					res, err := db.NearestNeighbors(issuer, rng.Float64()*1000, rng.Float64()*1000, 5, 30)
					if err != nil {
						errCh <- fmt.Errorf("reader %d PkNN: %w", r, err)
						return
					}
					for _, nb := range res {
						uids = append(uids, nb.Object.UID)
					}
				case 2:
					snap, err := db.Snapshot()
					if err != nil {
						errCh <- fmt.Errorf("reader %d snapshot: %w", r, err)
						return
					}
					res, err := snap.RangeQuery(issuer, space, 30)
					snap.Close()
					if err != nil {
						errCh <- fmt.Errorf("reader %d snapshot PRQ: %w", r, err)
						return
					}
					for _, o := range res {
						uids = append(uids, o.UID)
					}
				}
				seen := make(map[UserID]bool, len(uids))
				for _, uid := range uids {
					if seen[uid] {
						errCh <- fmt.Errorf("reader %d: a result holds user %d twice", r, uid)
						return
					}
					seen[uid] = true
				}
			}
		}(r)
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiescent equivalence: the final state equals each user's last write.
	want := make(map[UserID]Object)
	for _, m := range finals {
		for uid, o := range m {
			want[uid] = o
		}
	}
	if got := db.Size(); got != len(want) {
		t.Fatalf("final size %d, want %d", got, len(want))
	}
	for uid, o := range want {
		got, ok, err := db.Lookup(uid)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != o {
			t.Fatalf("user %d final state %v (ok=%v), want %v", uid, got, ok, o)
		}
	}
	// And the scatter-gather result matches a fresh single-tree oracle
	// over the same final states.
	oracle, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for uid := range want {
		if err := oracle.DefineRelation(uid, issuer, "watcher"); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Grant(uid, "watcher", space, day); err != nil {
			t.Fatal(err)
		}
	}
	ob := oracle.NewBatch()
	for _, o := range want {
		ob.Upsert(o)
	}
	if err := oracle.Apply(ob); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Region{space, {MinX: 250, MinY: 250, MaxX: 750, MaxY: 750}} {
		got, err := db.RangeQuery(issuer, r, 30)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := oracle.RangeQuery(issuer, r, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sortedByUID(wantQ)) {
			t.Fatalf("quiescent PRQ(%+v) diverged from oracle", r)
		}
	}
}

// TestShardedSnapshotCutConsistency: a snapshot must never observe half of
// a cross-shard batch. A writer keeps committing paired updates — two
// users pinned to different shards, always carrying the same timestamp —
// while snapshots assert the pair never tears.
func TestShardedSnapshotCutConsistency(t *testing.T) {
	db, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Two positions in different shards (opposite corners of the space).
	posA := [2]float64{100, 100}
	posB := [2]float64{900, 900}
	if db.shardOf(posA[0], posA[1]) == db.shardOf(posB[0], posB[1]) {
		t.Fatal("test positions landed in one shard")
	}
	const uidA, uidB = UserID(1), UserID(2)

	stop := make(chan struct{})
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ver := 1; ; ver++ {
			select {
			case <-stop:
				return
			default:
			}
			b := db.NewBatch()
			b.Upsert(Object{UID: uidA, X: posA[0], Y: posA[1], T: float64(ver)})
			b.Upsert(Object{UID: uidB, X: posB[0], Y: posB[1], T: float64(ver)})
			if err := db.Apply(b); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for i := 0; i < 200; i++ {
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		a, okA, errA := snap.Lookup(uidA)
		b, okB, errB := snap.Lookup(uidB)
		snap.Close()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if okA != okB {
			t.Fatalf("snapshot %d tore the batch: okA=%v okB=%v", i, okA, okB)
		}
		if okA && a.T != b.T {
			t.Fatalf("snapshot %d tore the batch: T %g vs %g", i, a.T, b.T)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
