package peb

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/policy"
)

var (
	shareAll    = Region{MaxX: 1000, MaxY: 1000}
	shareLeft   = Region{MaxX: 500, MaxY: 1000}
	shareAllDay = TimeInterval{End: 1440}
)

// sharedPair opens two file-backed DBs, the first holding one relation
// and one policy, the second borrowing the first's store.
func sharedPair(t *testing.T) (a, b *DB) {
	t.Helper()
	for _, db := range []**DB{&a, &b} {
		var err error
		if *db, err = Open(Options{Path: t.TempDir() + "/db.idx"}); err != nil {
			t.Fatal(err)
		}
		d := *db
		t.Cleanup(func() { d.Close() })
	}
	if err := a.DefineRelation(1, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := a.Grant(1, "friend", shareAll, shareAllDay); err != nil {
		t.Fatal(err)
	}
	if err := b.BorrowPolicies(a); err != nil {
		t.Fatal(err)
	}
	if a.policies != b.policies || a.pol != b.pol {
		t.Fatal("BorrowPolicies left the DBs on two stores")
	}
	return a, b
}

// savedPolicies returns how many policies db's SavePolicies writes.
func savedPolicies(t *testing.T, db *DB) int {
	t.Helper()
	var buf bytes.Buffer
	if err := db.SavePolicies(&buf); err != nil {
		t.Fatal(err)
	}
	ps, err := policy.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ps.NumPolicies()
}

// TestSharedPoliciesPinCount: B borrows A's store. B's snapshot closes
// while A's checkpoint build still holds its pin, and the next Grant must
// still go to a copy — the store the build is saving keeps one policy, and
// the checkpoint holds the policies of its cut. With a single pinned flag
// that the snapshot's close clears, the Grant would write the store in
// place under the build. B reads the copy once it borrows again.
func TestSharedPoliciesPinCount(t *testing.T) {
	a, b := sharedPair(t)
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := a.policies

	inBuild, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failing test must not leave A's Close waiting on the build
	a.ckptHook = func(phase string) {
		if phase == "build" {
			close(inBuild)
			<-resume
		}
	}
	done := make(chan error)
	go func() { done <- a.Checkpoint() }()
	<-inBuild
	snap.Close()
	if err := a.Grant(1, "friend", shareLeft, shareAllDay); err != nil {
		t.Fatal(err)
	}
	if n := cut.NumPolicies(); n != 1 {
		t.Fatalf("the Grant wrote the store A's checkpoint build is saving: %d policies, want 1", n)
	}
	if a.policies == cut || b.policies != cut {
		t.Fatal("the Grant did not move A, and only A, to a copy")
	}
	if err := b.BorrowPolicies(a); err != nil {
		t.Fatal(err)
	}
	if b.policies != a.policies || !b.Allows(1, 2, 10, 10, 100) {
		t.Fatal("borrowing again did not move B to A's copy")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The copy is unpinned: the next Grant writes it in place.
	cur := a.policies
	if err := a.Grant(1, "friend", Region{MaxX: 10, MaxY: 10}, shareAllDay); err != nil {
		t.Fatal(err)
	}
	if a.policies != cur {
		t.Fatal("a Grant with nothing pinned copied the store")
	}

	opts := a.opts
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenExisting(Options{Path: opts.Path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := savedPolicies(t, reopened); n != 1 {
		t.Fatalf("A's checkpoint holds %d policies, want the 1 of its cut", n)
	}
}

// TestBorrowedPolicies: a DB that borrows its store refuses policy
// operations, notifies its commit hooks when its lender's policies change,
// and checkpoints no policies file; reopened, it holds an empty store of
// its own until it borrows again.
func TestBorrowedPolicies(t *testing.T) {
	a, b := sharedPair(t)
	if err := b.Grant(1, "friend", shareLeft, shareAllDay); !errors.Is(err, errBorrowedPolicies) {
		t.Fatalf("Grant on a borrowing DB: %v, want errBorrowedPolicies", err)
	}
	bt := b.NewBatch()
	bt.DefineRelation(3, 4, "friend")
	if err := b.Apply(bt); !errors.Is(err, errBorrowedPolicies) {
		t.Fatalf("a relation batched on a borrowing DB: %v, want errBorrowedPolicies", err)
	}
	var infos []CommitInfo
	b.AddCommitHook(func(info CommitInfo, _ *CommitView) { infos = append(infos, info) })
	if err := a.Grant(1, "friend", shareLeft, shareAllDay); err != nil {
		t.Fatal(err)
	}
	if err := b.BorrowPolicies(a); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].PolicyChange || len(infos[0].Touched) != 0 {
		t.Fatalf("borrowing after a policy commit notified %+v, want one PolicyChange", infos)
	}

	if err := b.Upsert(Object{UID: 2, X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := b.opts.FS.ListDir(filepath.Dir(b.opts.Path))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.Contains(n, ".policies.") {
			t.Fatalf("a borrowing DB's checkpoint wrote %s", n)
		}
	}
	path := b.opts.Path
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != 1 || savedPolicies(t, re) != 0 || !re.borrowed {
		t.Fatalf("reopened: %d objects, %d policies, borrowed %v; want 1, 0, true", re.Size(), savedPolicies(t, re), re.borrowed)
	}
	if err := re.Grant(1, "friend", shareAll, shareAllDay); !errors.Is(err, errBorrowedPolicies) {
		t.Fatalf("Grant on a reopened borrowing DB: %v, want errBorrowedPolicies", err)
	}
	if err := re.BorrowPolicies(a); err != nil {
		t.Fatal(err)
	}
	if !re.Allows(1, 2, 10, 10, 100) {
		t.Fatal("the reopened DB does not read its lender's store")
	}
}
