package sharded

import (
	"bufio"
	"bytes"

	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/peb/cq"
)

// A routed write is visible once staged and acknowledged once durable, and
// it waits for its fsync outside the router barrier. These tests hold one
// shard's log fsync at a gate and check what must and must not wait on it.

// syncGateFS is a CrashFS that, once armed, holds the first Sync of one
// engine's log: the syncing goroutine closes held and blocks until release
// is closed. A held fsync has not reached the disk.
type syncGateFS struct {
	*store.CrashFS
	mu      sync.Mutex
	log     string // the gated log's segment-name prefix; "" once taken
	held    chan struct{}
	release chan struct{}
}

// arm gates the next Sync of the log of the engine in dir.
func (g *syncGateFS) arm(dir string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.log = filepath.Join(dir, "peb.idx") + ".wal."
	g.held, g.release = make(chan struct{}), make(chan struct{})
}

// take disarms the gate and returns its release channel when name is a
// segment of the gated log.
func (g *syncGateFS) take(name string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.log == "" || !strings.HasPrefix(name, g.log) {
		return nil
	}
	g.log = ""
	close(g.held)
	return g.release
}

func (g *syncGateFS) OpenFile(name string) (store.VFile, error) {
	f, err := g.CrashFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &syncGateFile{VFile: f, g: g, name: name}, nil
}

type syncGateFile struct {
	store.VFile
	g    *syncGateFS
	name string
}

func (f *syncGateFile) Sync() error {
	if release := f.g.take(f.name); release != nil {
		<-release
	}
	return f.VFile.Sync()
}

// gateWait is how long a call that must not wait on the held fsync gets
// to return.
const gateWait = 10 * time.Second

// async runs fn on its own goroutine and returns its result channel.
func async(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

// call is an operation that must not wait on a held fsync.
type call struct {
	name string
	fn   func() error
}

// noneWaits runs the calls one after another and reports the first that
// fails or does not return within gateWait.
func noneWaits(calls []call) error {
	for _, c := range calls {
		select {
		case err := <-async(c.fn):
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		case <-time.After(gateWait):
			return fmt.Errorf("%s waits on the held fsync", c.name)
		}
	}
	return nil
}

// snapshotCall takes and closes a router Snapshot.
func snapshotCall(db *DB) call {
	return call{"Snapshot", func() error {
		snap, err := db.Snapshot()
		if err != nil {
			return err
		}
		return snap.Close()
	}}
}

// gated is a durable 4-shard router on a syncGateFS, seeded with users
// 1..4 (one per quadrant, durable), and an Upsert of one user held in its
// shard's log fsync.
type gated struct {
	fs   *syncGateFS
	db   *DB
	at   [4][2]float64 // the quadrant each slot owns
	slot int           // the held shard's slot
	uid  UserID        // the held Upsert's user, seeded in that shard
	done <-chan error  // the held Upsert's result
}

// holdUpsert opens the router and holds an Upsert of the user seeded in
// slot's quadrant, moved within it, in slot's log fsync.
func holdUpsert(t *testing.T, slot int) *gated {
	t.Helper()
	g := &gated{fs: &syncGateFS{CrashFS: store.NewCrashFS()}, slot: slot}
	db, err := Open(crashShardedOpts(g.fs))
	if err != nil {
		t.Fatal(err)
	}
	g.db = db
	if err := seedQuadrants(db); err != nil {
		t.Fatal(err)
	}
	g.at = quadrantSlots(t, db)
	for i, q := range quadrant {
		if q == g.at[slot] {
			g.uid = UserID(i + 1)
		}
	}
	q := g.at[slot]
	g.fs.arm(shardDir("root", db.metas[slot].id))
	g.done = async(func() error {
		return db.Upsert(Object{UID: g.uid, X: q[0] + 5, Y: q[1] + 5, T: 2})
	})
	select {
	case <-g.fs.held:
	case err := <-g.done:
		t.Fatalf("the gated Upsert returned %v without syncing its log", err)
	}
	return g
}

// open lets the held fsync proceed.
func (g *gated) open() { close(g.fs.release) }

// otherUser returns a seeded user outside the held shard and its slot.
func (g *gated) otherUser() (UserID, int) {
	slot := (g.slot + 1) % len(g.at)
	for i, q := range quadrant {
		if q == g.at[slot] {
			return UserID(i + 1), slot
		}
	}
	panic("no quadrant for slot")
}

// TestRoutedWriteWaitsOutsideBarrier holds a routed Upsert in its shard's
// log fsync. Meanwhile the write is visible, and a Grant, a router
// Snapshot and an Upsert routed to another shard all return — none waits
// for the held fsync. Once the gate opens, the held Upsert returns nil and
// stays visible.
func TestRoutedWriteWaitsOutsideBarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	g := holdUpsert(t, 0)
	db := g.db
	fail := func(format string, args ...any) {
		t.Helper()
		g.open()
		<-g.done
		db.Close()
		t.Fatalf(format, args...)
	}

	other, slot := g.otherUser()
	q := g.at[slot]
	if err := noneWaits([]call{
		{"Lookup", func() error {
			if o, ok, err := db.Lookup(g.uid); err != nil || !ok || o.T != 2 {
				return fmt.Errorf("the held Upsert is not visible: %v %v %v", o, ok, err)
			}
			return nil
		}},
		{"Grant", func() error {
			return db.Grant(1, "friend", Region{MaxX: 500, MaxY: 500}, TimeInterval{End: 24})
		}},
		snapshotCall(db),
		{"Upsert to another shard", func() error {
			return db.Upsert(Object{UID: other, X: q[0] + 5, Y: q[1] + 5, T: 2})
		}},
	}); err != nil {
		fail("beside a routed Upsert in its fsync: %v", err)
	}
	select {
	case err := <-g.done:
		fail("the held Upsert returned %v before its fsync", err)
	default:
	}

	g.open()
	if err := <-g.done; err != nil {
		t.Fatalf("held Upsert: %v", err)
	}
	if o, ok, err := db.Lookup(g.uid); err != nil || !ok || o.T != 2 {
		t.Fatalf("Lookup after the held Upsert: %v %v %v", o, ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}

// TestRoutedGrantWaitsOutsideBarrier holds a routed Grant in the policy
// engine's log fsync. The Grant is visible meanwhile, and a Snapshot, an
// Upsert and a RangeQuery all return: a single-participant Apply holds the
// write barrier only while it applies. Once the gate opens, the Grant
// returns nil.
func TestRoutedGrantWaitsOutsideBarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := &syncGateFS{CrashFS: store.NewCrashFS()}
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := seedQuadrants(db); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(1, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	all := Region{MaxX: 1000, MaxY: 1000}
	fs.arm(policiesDir("root"))
	done := async(func() error { return db.Grant(1, "friend", all, TimeInterval{End: 1440}) })
	<-fs.held
	fail := func(format string, args ...any) {
		t.Helper()
		close(fs.release)
		<-done
		db.Close()
		t.Fatalf(format, args...)
	}

	if err := noneWaits([]call{
		{"Allows", func() error {
			if !db.Allows(1, 2, quadrant[0][0], quadrant[0][1], 1) {
				return errors.New("the held Grant is not visible")
			}
			return nil
		}},
		snapshotCall(db),
		{"Upsert", func() error {
			return db.Upsert(Object{UID: 3, X: quadrant[2][0] + 5, Y: quadrant[2][1] + 5, T: 2})
		}},
		{"RangeQuery", func() error {
			_, err := db.RangeQuery(2, all, 1)
			return err
		}},
	}); err != nil {
		fail("beside a routed Grant in its fsync: %v", err)
	}

	close(fs.release)
	if err := <-done; err != nil {
		t.Fatalf("held Grant: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}

// checkRouting asserts every shard's objects and the routing map agree:
// each object lives in one shard, which the map names. It returns the
// objects by user.
func checkRouting(t *testing.T, db *DB, label string) map[UserID]Object {
	t.Helper()
	objs := make(map[UserID]Object)
	for i, s := range db.shards {
		list, err := s.Objects()
		if err != nil {
			t.Fatalf("%s: shard %d: %v", label, i, err)
		}
		for _, o := range list {
			if _, dup := objs[o.UID]; dup {
				t.Fatalf("%s: user %d is in two shards", label, o.UID)
			}
			objs[o.UID] = o
			db.ownMu.Lock()
			own, ok := db.owner[o.UID]
			db.ownMu.Unlock()
			if !ok || own != i {
				t.Fatalf("%s: user %d is in shard %d, the routing map says %d (%v)", label, o.UID, i, own, ok)
			}
		}
	}
	if len(objs) != db.Size() {
		t.Fatalf("%s: shards hold %d users, the router counts %d", label, len(objs), db.Size())
	}
	return objs
}

// TestHeldRoutedWriteSurvivesTeardown holds a routed Upsert in its log
// fsync and tears the router down around it: Close, a Merge that drops the
// held shard, a cross-shard fail-stop, and a power cut with the gate never
// opened. Every call returns nil or a typed error, no goroutine is left
// behind, and the reopened router holds the Upsert if it was acknowledged,
// holds each seeded user once either way, and agrees with its shards.
func TestHeldRoutedWriteSurvivesTeardown(t *testing.T) {
	cases := []struct {
		name string
		keep bool // the reboot model
		// run tears down while the Upsert is held and returns the calls'
		// errors; it opens the gate, or cuts the power first.
		run func(t *testing.T, g *gated) []error
	}{
		{name: "close", run: func(t *testing.T, g *gated) []error {
			closed := async(g.db.Close)
			g.open()
			return []error{<-closed}
		}},
		{name: "merge", run: func(t *testing.T, g *gated) []error {
			merged := async(func() error { return g.db.Merge(g.db.metas[g.slot].id) })
			g.open()
			err := <-merged
			if err == nil && g.db.Shards() != 3 {
				t.Errorf("Merge left %d shards", g.db.Shards())
			}
			return []error{err, g.db.Close()}
		}},
		{name: "failstop", run: func(t *testing.T, g *gated) []error {
			// A batch over the other shards whose coordinator's sync fails:
			// the fail-stop closes every engine, the held one too.
			b := g.db.NewBatch()
			for s, q := range g.at {
				if s != g.slot {
					b.Upsert(Object{UID: UserID(txnUserBase + s + 1), X: q[0] + 10, Y: q[1] + 10, T: 3})
				}
			}
			g.fs.SetFailAfter(1) // the coordinator's append lands; its sync fails
			applied := async(func() error { return g.db.Apply(b) })
			for deadline := time.Now().Add(gateWait); !g.fs.Dead(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("the batch's coordinator never synced: it waits on the held fsync")
					break
				}
			}
			g.open()
			err := <-applied
			if !errors.Is(err, ErrFailStop) {
				t.Errorf("Apply = %v, want ErrFailStop", err)
			}
			return []error{g.db.Close()}
		}},
		{name: "powercut/keep=false", keep: false, run: powerCut},
		{name: "powercut/keep=true", keep: true, run: powerCut},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := holdUpsert(t, len(quadrant)-1)
			errs := c.run(t, g)
			upsertErr := <-g.done
			for _, err := range append(errs, upsertErr) {
				if err != nil && !errors.Is(err, store.ErrInjected) && !errors.Is(err, ErrClosed) {
					t.Errorf("untyped error: %v", err)
				}
			}
			g.db.Close()
			leakcheck.WaitGoroutines(t, base)

			g.fs.Reboot(c.keep)
			re, err := Open(crashShardedOpts(g.fs))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			objs := checkRouting(t, re, "reopen")
			for uid := UserID(1); uid <= UserID(len(quadrant)); uid++ {
				if _, ok := objs[uid]; !ok {
					t.Errorf("seeded user %d lost", uid)
				}
			}
			if upsertErr == nil && objs[g.uid].T != 2 {
				t.Errorf("acknowledged Upsert lost: user %d is %v", g.uid, objs[g.uid])
			}
			var txn []UserID // the fail-stopped batch's users: all or none
			for s := range g.at {
				if s != g.slot {
					txn = append(txn, UserID(txnUserBase+s+1))
				}
			}
			checkTxnUsers(t, re, "reopen", txn...)
		})
	}
}

// powerCut cuts the power while the Upsert is held, then lets the held
// fsync fail on the dead disk.
func powerCut(t *testing.T, g *gated) []error {
	g.fs.CutPower()
	g.open()
	return nil
}

// TestApplyWaitsForItsUsersFsync: a batch that moves a user whose routed
// Upsert is still in its fsync must not commit before that Upsert is
// durable. The user is new, so the batch's part on its shard — the
// eviction — is valid only after the Upsert; were the coordinator's record
// durable and the Upsert lost, the reopen could not redo that part. The
// power is cut with the fsync still held: the reopen succeeds and holds
// the user at most once.
func TestApplyWaitsForItsUsersFsync(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := &syncGateFS{CrashFS: store.NewCrashFS()}
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	at := quadrantSlots(t, db)
	const uid = 77
	last := len(at) - 1 // the user's shard, after the coordinator
	fs.arm(shardDir("root", db.metas[last].id))
	held := async(func() error { return db.Upsert(Object{UID: uid, X: at[last][0], Y: at[last][1], T: 1}) })
	<-fs.held
	b := db.NewBatch()
	b.Upsert(Object{UID: uid, X: at[0][0], Y: at[0][1], T: 2})
	applied := async(func() error { return db.Apply(b) })
	select {
	case err := <-applied:
		t.Errorf("Apply returned %v while its user's Upsert was in its fsync", err)
		applied = async(func() error { return nil })
	case <-time.After(200 * time.Millisecond):
	}
	fs.CutPower()
	close(fs.release)
	for _, err := range []error{<-held, <-applied} {
		if err != nil && !errors.Is(err, store.ErrInjected) && !errors.Is(err, ErrFailStop) {
			t.Errorf("untyped error: %v", err)
		}
	}
	db.Close()
	leakcheck.WaitGoroutines(t, base)

	fs.Reboot(false)
	re, err := Open(crashShardedOpts(fs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	checkRouting(t, re, "reopen")
}

// TestCrossShardCommitHoldsPartsUntilDecided holds a cross-shard Apply in
// its coordinator's log fsync, the commit point. Every participant has
// applied its part in memory by then, and holds it: no standing-query
// delta for the batch's users arrives, and a participant's Checkpoint
// does not return. Once the gate opens, Apply returns nil, each user's
// Enter arrives, and the participant's checkpoint carries the transaction
// in its watermark.
func TestCrossShardCommitHoldsPartsUntilDecided(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := &syncGateFS{CrashFS: store.NewCrashFS()}
	db, err := Open(crashShardedOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	at := quadrantSlots(t, db)
	const issuer = 99
	all := Region{MaxX: 1000, MaxY: 1000}
	b := db.NewBatch()
	for s, q := range at {
		uid := UserID(txnUserBase + s + 1)
		if err := db.DefineRelation(uid, issuer, "friend"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(uid, "friend", all, TimeInterval{End: 1440}); err != nil {
			t.Fatal(err)
		}
		b.Upsert(Object{UID: uid, X: q[0] + 10, Y: q[1] + 10, T: 3})
	}
	c, err := AttachCQ(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, init, err := c.SubscribeRange(issuer, all, 3, cq.SubOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(init) != 0 {
		t.Fatalf("initial result %v, want empty", init)
	}
	const slot = 2 // a participant: the coordinator is slot 0
	part := db.shards[slot]
	before := part.MaxTxnID()

	fs.arm(shardDir("root", db.metas[0].id))
	applied := async(func() error { return db.Apply(b) })
	<-fs.held
	ckpt := async(part.Checkpoint)
	entered := make(map[UserID]bool)
	select {
	case d := <-sub.Deltas():
		t.Errorf("delta %+v while the commit point is held", d)
		entered[d.Object.UID] = true
	case err := <-ckpt:
		t.Errorf("a participant's Checkpoint returned %v while the commit point is held", err)
		ckpt = async(func() error { return err })
	case err := <-applied:
		t.Errorf("Apply returned %v before its commit point", err)
		applied = async(func() error { return err })
	case <-time.After(200 * time.Millisecond):
	}
	close(fs.release)
	if err := <-applied; err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := <-ckpt; err != nil {
		t.Fatalf("participant checkpoint: %v", err)
	}

	for len(entered) < len(at) {
		select {
		case d := <-sub.Deltas():
			if d.Kind != cq.Enter {
				t.Fatalf("delta %+v, want an Enter", d)
			}
			entered[d.Object.UID] = true
		case <-time.After(gateWait):
			t.Fatalf("after the commit point, Enters for %v of %d users", entered, len(at))
		}
	}
	want := part.MaxTxnID()
	if want <= before {
		t.Fatalf("participant watermark %d after the Apply, want above %d", want, before)
	}
	raw, err := fs.ReadFile(filepath.Join(shardDir("root", db.metas[slot].id), "peb.idx") + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	// The meta record opens with its stamp, then the checkpoint's number,
	// its log horizon and its transaction watermark (peb/checkpoint.go).
	rd := codec.NewReader(raw, 2)
	rd.TakeUvarint("ckpt seq")
	rd.TakeUvarint("wal seq")
	if got := rd.TakeUvarint("max txn"); rd.Err() != nil || got != want {
		t.Fatalf("participant checkpoint watermark %d (%v), want the transaction's %d", got, rd.Err(), want)
	}
	sub.Close()
	c.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.WaitGoroutines(t, base)
}

// commitCounts scrapes peb_commit_seconds_count per engine label.
func commitCounts(t *testing.T, db *DB) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, db.MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), `peb_commit_seconds_count{shard="`)
		if !ok {
			continue
		}
		label, v, _ := strings.Cut(line, `"} `)
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad sample %q", sc.Text())
		}
		out[label] = n
	}
	return out
}

// TestCommitSecondsCountsOnce: peb_commit_seconds, which pebmon reads,
// counts every commit once, from the call to its durability: a durable
// routed Upsert once on its shard, a Grant once on the policy engine, a
// re-home once on each of its two shards, and a cross-shard batch once on
// each participant.
func TestCommitSecondsCountsOnce(t *testing.T) {
	db, err := Open(crashShardedOpts(store.NewCrashFS()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := seedQuadrants(db); err != nil {
		t.Fatal(err)
	}
	at := quadrantSlots(t, db)
	label := func(slot int) string { return shardLabel(db.metas[slot].id) }
	step := func(name string, fn func() error, want map[string]int) {
		t.Helper()
		before := commitCounts(t, db)
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := commitCounts(t, db)
		for l, n := range after {
			if got := n - before[l]; got != want[l] {
				t.Errorf("%s: peb_commit_seconds_count{shard=%q} grew by %d, want %d", name, l, got, want[l])
			}
		}
	}
	step("Upsert", func() error {
		return db.Upsert(Object{UID: 50, X: at[2][0], Y: at[2][1], T: 1})
	}, map[string]int{label(2): 1})
	step("Grant", func() error {
		return db.Grant(50, "friend", Region{MaxX: 10, MaxY: 10}, TimeInterval{End: 1})
	}, map[string]int{policiesLabel: 1})
	step("re-home", func() error {
		return db.Upsert(Object{UID: 50, X: at[1][0], Y: at[1][1], T: 2})
	}, map[string]int{label(1): 1, label(2): 1})
	step("cross-shard Apply", func() error {
		b := db.NewBatch()
		for _, s := range []int{0, 3} {
			b.Upsert(Object{UID: UserID(60 + s), X: at[s][0], Y: at[s][1], T: 1})
		}
		return db.Apply(b)
	}, map[string]int{label(0): 1, label(3): 1})
	if t.Failed() {
		t.Log(fmt.Sprint(commitCounts(t, db)))
	}
}
