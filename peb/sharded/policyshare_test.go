package sharded

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/store"
	"repro/peb"
)

// The shards of a router share one policy store in memory (sharePolicies).
// These tests hold that sharing to the promises of the broadcast design:
// every shard answers the privacy predicate like a reference model after
// every policy op, a snapshot keeps answering from its cut while shards
// checkpoint and policies change, a crash anywhere leaves every shard with
// the same policies, and a shard that recovers other ones is refused.

var (
	spAll      = Region{MaxX: 1000, MaxY: 1000}
	spLeft     = Region{MaxX: 500, MaxY: 1000}
	spRight    = Region{MinX: 500, MaxX: 1000, MaxY: 1000}
	spAllDay   = TimeInterval{End: 1440}
	spMornings = TimeInterval{Start: 0, End: 720}
	// spPoints are the (x, y, t) probes of the predicate: each quadrant,
	// in the morning and in the evening.
	spPoints = [][3]float64{{250, 250, 100}, {250, 750, 900}, {750, 750, 100}, {750, 250, 900}}
)

// policyModel is the reference the shared store is held to: the same
// policy operations applied to a store of its own.
type policyModel struct{ s *policy.Store }

func newPolicyModel(t *testing.T) policyModel {
	s, err := policy.NewStore(policy.Region{MaxX: 1000, MaxY: 1000}, 1440)
	if err != nil {
		t.Fatal(err)
	}
	return policyModel{s}
}

// policyOp is one routed policy op: a relation when peer is set, else a
// grant of locr during tint.
type policyOp struct {
	owner, peer UserID
	role        Role
	locr        Region
	tint        TimeInterval
}

func (op policyOp) stage(b *Batch) {
	if op.peer != 0 {
		b.DefineRelation(op.owner, op.peer, op.role)
	} else {
		b.Grant(op.owner, op.role, op.locr, op.tint)
	}
}

func (m policyModel) apply(t *testing.T, op policyOp) {
	if op.peer != 0 {
		m.s.SetRelation(policy.UserID(op.owner), policy.UserID(op.peer), op.role)
		return
	}
	err := m.s.AddPolicy(policy.UserID(op.owner), policy.Policy{Role: op.role, Locr: op.locr, Tint: op.tint})
	if err != nil {
		t.Fatal(err)
	}
}

// allows is the model's predicate over users 1..users at spPoints.
func (m policyModel) allows(users int) []bool {
	return predicate(users, func(o, v UserID, x, y, t float64) bool {
		return m.s.Allows(policy.UserID(o), policy.UserID(v), x, y, t)
	})
}

// predicate evaluates allows over users 1..users at spPoints.
func predicate(users int, allows func(o, v UserID, x, y, t float64) bool) []bool {
	var out []bool
	for o := UserID(1); o <= UserID(users); o++ {
		for v := UserID(1); v <= UserID(users); v++ {
			for _, p := range spPoints {
				out = append(out, allows(o, v, p[0], p[1], p[2]))
			}
		}
	}
	return out
}

// checkPredicate asserts that the router and every shard answer Allows
// like want over users 1..users.
func checkPredicate(t *testing.T, db *DB, users int, want []bool, label string) {
	t.Helper()
	if got := predicate(users, db.Allows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the router's Allows differs from the model", label)
	}
	for i, s := range db.shards {
		if got := predicate(users, s.Allows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shard %d's Allows differs from the model", label, db.metas[i].id)
		}
	}
}

// snapCut is what a snapshot answered when it was taken.
type snapCut struct {
	snap   *Snapshot
	allows []bool
	ranges [][]Object
}

func takeCut(t *testing.T, db *DB, users int) snapCut {
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c := snapCut{snap: snap, allows: predicate(users, snap.Allows)}
	for v := UserID(1); v <= UserID(users); v++ {
		objs, err := snap.RangeQuery(v, spAll, 100)
		if err != nil {
			t.Fatal(err)
		}
		c.ranges = append(c.ranges, objs)
	}
	return c
}

// check asserts the snapshot still answers as at its cut, through the
// router's gather and through every pinned shard.
func (c snapCut) check(t *testing.T, users int, label string) {
	t.Helper()
	if got := predicate(users, c.snap.Allows); !reflect.DeepEqual(got, c.allows) {
		t.Fatalf("%s: the snapshot's Allows moved from its cut", label)
	}
	for i, s := range c.snap.snaps {
		if got := predicate(users, s.Allows); !reflect.DeepEqual(got, c.allows) {
			t.Fatalf("%s: pinned shard %d's Allows moved from the cut", label, i)
		}
	}
	for v := UserID(1); v <= UserID(users); v++ {
		objs, err := c.snap.RangeQuery(v, spAll, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(objs, c.ranges[v-1]) {
			t.Fatalf("%s: the snapshot's range query for issuer %d moved from its cut", label, v)
		}
	}
}

// TestSharedPoliciesUnderCheckpointsAndSnapshot interleaves routed policy
// ops — grants, relations and role changes, one at a time and batched —
// with every shard checkpointing on its own goroutine, as its AutoCheckpoint
// maintainer would, and with an open sharded Snapshot retaken now and then.
// After every step the router and every shard answer Allows like the model,
// and the snapshot answers as at its cut. Under -race this is the test of
// the shared store's pinning.
func TestSharedPoliciesUnderCheckpointsAndSnapshot(t *testing.T) {
	const users, steps = 5, 48
	db, err := Open(Options{Shards: 4, Dir: t.TempDir(), DB: peb.Options{Durability: peb.DurabilitySync}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for u := 1; u <= users; u++ {
		q := quadrant[u%4]
		if err := db.Upsert(Object{UID: UserID(u), X: q[0] + float64(u), Y: q[1], T: 0}); err != nil {
			t.Fatal(err)
		}
	}
	model := newPolicyModel(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ckptErr := make([]error, len(db.shards))
	for i, s := range db.shards {
		wg.Add(1)
		go func(i int, s *peb.DB) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Checkpoint(); err != nil {
					ckptErr[i] = err
					return
				}
			}
		}(i, s)
	}
	defer func() {
		close(stop)
		wg.Wait()
		for i, err := range ckptErr {
			if err != nil {
				t.Errorf("shard %d checkpoint: %v", i, err)
			}
		}
	}()

	roles := []Role{"a", "b", "c"}
	regions := []Region{spAll, spLeft, spRight}
	tints := []TimeInterval{spAllDay, spMornings}
	rng := rand.New(rand.NewSource(37))
	cut := takeCut(t, db, users)
	defer func() { cut.snap.Close() }()
	for step := 0; step < steps; step++ {
		b := db.NewBatch()
		for n := 1 + rng.Intn(2); n > 0; n-- {
			op := policyOp{owner: UserID(1 + rng.Intn(users)), role: roles[rng.Intn(len(roles))]}
			if rng.Intn(2) == 0 {
				op.peer = UserID(1 + rng.Intn(users))
			} else {
				op.locr, op.tint = regions[rng.Intn(len(regions))], tints[rng.Intn(len(tints))]
			}
			op.stage(b)
			model.apply(t, op)
		}
		if err := db.Apply(b); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		label := fmt.Sprintf("step %d", step)
		checkPredicate(t, db, users, model.allows(users), label)
		cut.check(t, users, label)
		switch step % 16 {
		case 7:
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("%s: router checkpoint: %v", label, err)
			}
		case 15:
			cut.snap.Close()
			cut = takeCut(t, db, users)
		}
	}
}

// buildHookFS runs hook once, at the first sync of the page file named
// page after hook is set. That sync is a checkpoint's build flushing its
// image: after the cut pinned the policy store, before the build saves it.
type buildHookFS struct {
	store.VFS
	page string
	hook func()
}

func (f *buildHookFS) OpenFile(name string) (store.VFile, error) {
	file, err := f.VFS.OpenFile(name)
	if err != nil || name != f.page {
		return file, err
	}
	return &buildHookFile{VFile: file, fs: f}, nil
}

type buildHookFile struct {
	store.VFile
	fs *buildHookFS
}

func (f *buildHookFile) Sync() error {
	if hook := f.fs.hook; hook != nil {
		f.fs.hook = nil
		hook()
	}
	return f.VFile.Sync()
}

// crashPolicyOps are the policy ops of crashPolicyRun, in order; every
// prefix leaves a different predicate (spPoints tells them apart).
var crashPolicyOps = []policyOp{
	{owner: 1, peer: 2, role: "friend"},
	{owner: 1, role: "friend", locr: spLeft, tint: spAllDay},
	{owner: 1, role: "friend", locr: spRight, tint: spAllDay}, // during shard 2's checkpoint build
	{owner: 1, peer: 3, role: "friend"},                       // during shard 2's checkpoint build
	{owner: 1, peer: 2, role: "foe"},                          // after its publish
}

// crashPolicyModels returns the model predicate after each prefix of
// crashPolicyOps, the empty one first.
func crashPolicyModels(t *testing.T) [][]bool {
	m := newPolicyModel(t)
	out := [][]bool{m.allows(3)}
	for _, op := range crashPolicyOps {
		m.apply(t, op)
		out = append(out, m.allows(3))
	}
	return out
}

// crashPolicyRun is the workload the fault point sweeps over: seed a user
// per shard and two policy ops, then checkpoint shard 2 with two routed
// policy ops landing between its cut and its publish, then one more. It
// returns how many policy ops were acknowledged; all other errors are
// ignored — the filesystem is dying mid-run by design.
func crashPolicyRun(fs store.VFS) (acked int) {
	hfs := &buildHookFS{VFS: fs, page: filepath.Join(shardDir("root", 2), "peb.idx")}
	db, err := Open(crashShardedOpts(hfs))
	if err != nil {
		return 0
	}
	defer db.Close()
	apply := func(op policyOp) bool {
		b := db.NewBatch()
		op.stage(b)
		if db.Apply(b) != nil {
			return false
		}
		acked++
		return true
	}
	for i, q := range quadrant {
		if db.Upsert(Object{UID: UserID(i + 1), X: q[0], Y: q[1], T: 1}) != nil {
			return acked
		}
	}
	if !apply(crashPolicyOps[0]) || !apply(crashPolicyOps[1]) {
		return acked
	}
	ok := true
	hfs.hook = func() { ok = apply(crashPolicyOps[2]) && apply(crashPolicyOps[3]) }
	if db.shards[2].Checkpoint() != nil || !ok {
		return acked
	}
	apply(crashPolicyOps[4])
	return acked
}

// TestShardedCrashGrantMidCheckpoint cuts power at every fault point of
// routed policy ops that overlap one shard's checkpoint between its cut and
// its publish. The cut pinned the shared store, so the ops must go to a
// copy: the checkpoint's policies file holds the store as of the cut, and
// log replay adds the rest. On reopen — which itself refuses shards whose
// policies differ — every shard saves the same policies, and the predicate
// is the model's after some prefix of the ops that includes every
// acknowledged one.
func TestShardedCrashGrantMidCheckpoint(t *testing.T) {
	models := crashPolicyModels(t)
	golden := store.NewCrashFS()
	if acked := crashPolicyRun(golden); acked != len(crashPolicyOps) {
		t.Fatalf("golden run acknowledged %d of %d policy ops", acked, len(crashPolicyOps))
	}
	total := golden.Ops()

	check := func(fs store.VFS, acked int, label string) {
		t.Helper()
		db, err := Open(crashShardedOpts(fs))
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		defer db.Close()
		var first []byte
		for i, s := range db.shards {
			var buf bytes.Buffer
			if err := s.SavePolicies(&buf); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%s: shard %d saves other policies than shard 0", label, i)
			}
		}
		got := predicate(3, db.Allows)
		for j := acked; j < len(models); j++ {
			if reflect.DeepEqual(got, models[j]) {
				checkPredicate(t, db, 3, models[j], label)
				return
			}
		}
		t.Fatalf("%s: the recovered predicate is no model from %d acknowledged ops on", label, acked)
	}
	check(golden, len(crashPolicyOps), "golden")

	for _, keepUnsynced := range []bool{false, true} {
		for k := 0; k < total; k++ {
			label := fmt.Sprintf("k=%d keep=%v", k, keepUnsynced)
			fs := store.NewCrashFS()
			fs.SetFailAfter(k)
			acked := crashPolicyRun(fs)
			if !fs.Dead() {
				fs.CutPower()
			}
			fs.Reboot(keepUnsynced)
			check(fs, acked, label)
			check(fs, acked, label+" (reopened)")
		}
	}
}

// TestOpenRefusesDivergentPolicies: a shard whose checkpoint holds a valid
// policies file with one policy more than the others' fails Open with a
// *PolicyDivergenceError naming that shard.
func TestOpenRefusesDivergentPolicies(t *testing.T) {
	fs := store.NewCrashFS()
	opts := crashShardedOpts(fs)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(1, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := db.Grant(1, "friend", spLeft, spAllDay); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite shard 1's checkpointed policies file with the same store
	// plus one policy.
	dir := shardDir("root", 1)
	names, err := fs.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var polFile string
	for _, n := range names {
		if bytes.Contains([]byte(filepath.Base(n)), []byte(".policies.")) {
			polFile = n
		}
	}
	if polFile == "" {
		t.Fatalf("no policies file in %s: %v", dir, names)
	}
	raw, err := fs.ReadFile(polFile)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := policy.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddPolicy(1, policy.Policy{Role: "friend", Locr: spRight, Tint: spAllDay}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFileAtomic(fs, polFile, buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a shard with an extra policy")
	}
	var div *PolicyDivergenceError
	if !errors.As(err, &div) || div.Shard != 1 || !errors.Is(err, peb.ErrPoliciesDiffer) {
		t.Fatalf("Open: %v, want a *PolicyDivergenceError for shard 1", err)
	}
}

// TestRoutedGrantAllocsIndependentOfShards: the store's share of a routed
// Grant — what a Grant of a new policy allocates beyond a Grant of one
// already held, which changes no store — is the same on four shards as on
// one: the first shard's application is the only one that writes the
// shared store, and the others find the policy already in place. (The
// two-phase commit itself allocates per participant, so whole Grants are
// not compared.)
func TestRoutedGrantAllocsIndependentOfShards(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// grantAllocs measures a Grant on a router of its own, so that both
	// measurements start from the same history: owner(i) is the owner of
	// the i-th measured Grant.
	grantAllocs := func(shards int, owner func(i int) UserID) float64 {
		db, err := Open(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		b := db.NewBatch()
		for u := 1; u <= 500; u++ {
			b.Grant(UserID(u), "f", spAll, spAllDay)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		i := 0
		return testing.AllocsPerRun(300, func() {
			i++
			if err := db.Grant(owner(i), "f", spAll, spAllDay); err != nil {
				t.Fatal(err)
			}
		})
	}
	storeShare := func(shards int) float64 {
		fresh := grantAllocs(shards, func(i int) UserID { return UserID(500 + i) })
		held := grantAllocs(shards, func(int) UserID { return 1 })
		return fresh - held
	}
	one, four := storeShare(1), storeShare(4)
	t.Logf("a new policy's allocations beyond a held one's: %.1f on 1 shard, %.1f on 4", one, four)
	if four > one+2 {
		t.Fatalf("a new policy costs %.1f allocations on 4 shards but %.1f on 1: every shard writes a store of its own", four, one)
	}
}

// TestSharedPoliciesGrantAfterSnapshotClonesOnce: a sharded Snapshot pins
// the shared store once per shard, and the first routed Grant after it
// copies the store once, not once per shard.
func TestSharedPoliciesGrantAfterSnapshotClonesOnce(t *testing.T) {
	firstGrant := func(shards int) uint64 {
		db, err := Open(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		b := db.NewBatch()
		for u := 1; u <= 2000; u++ {
			b.DefineRelation(UserID(u), UserID(u%2000+1), "f")
			b.Grant(UserID(u), "f", spAll, spAllDay)
		}
		if err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := db.Grant(1, "g", spLeft, spAllDay); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one, four := firstGrant(1), firstGrant(4)
	t.Logf("first Grant after a Snapshot: %d allocations on 1 shard, %d on 4", one, four)
	// One copy of 2000 users' policies is thousands of allocations; the
	// two-phase commit over four shards adds well under a thousand.
	if four > one+1000 {
		t.Fatalf("the first Grant after a Snapshot allocates %d on 4 shards but %d on 1: the store is copied per shard", four, one)
	}
}
