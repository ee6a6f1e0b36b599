package peb

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/policy"
)

var (
	shareAll    = Region{MaxX: 1000, MaxY: 1000}
	shareLeft   = Region{MaxX: 500, MaxY: 1000}
	shareAllDay = TimeInterval{End: 1440}
)

// sharedPair opens two file-backed DBs with the same policies, the second
// sharing the first's store.
func sharedPair(t *testing.T) (a, b *DB) {
	t.Helper()
	for _, db := range []**DB{&a, &b} {
		var err error
		if *db, err = Open(Options{Path: t.TempDir() + "/db.idx"}); err != nil {
			t.Fatal(err)
		}
		d := *db
		t.Cleanup(func() { d.Close() })
		if err := d.DefineRelation(1, 2, "friend"); err != nil {
			t.Fatal(err)
		}
		if err := d.Grant(1, "friend", shareAll, shareAllDay); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SharePolicies(a); err != nil {
		t.Fatal(err)
	}
	if a.policies != b.policies || a.pol != b.pol {
		t.Fatal("SharePolicies left the DBs on two stores")
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

// TestSharedPoliciesPinCount: two DBs on one store. A's snapshot closes
// while B's checkpoint build still holds its pin, and the next Grant must
// still go to a copy — the store the build is saving keeps one policy, and
// the checkpoint holds the policies of its cut. With a single pinned flag
// that the snapshot's close clears, the Grant would write the store in
// place under the build.
func TestSharedPoliciesPinCount(t *testing.T) {
	a, b := sharedPair(t)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := a.policies

	inBuild, resume := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failing test must not leave B's Close waiting on the build
	b.ckptHook = func(phase string) {
		if phase == "build" {
			close(inBuild)
			<-resume
		}
	}
	done := make(chan error)
	go func() { done <- b.Checkpoint() }()
	<-inBuild
	snap.Close()
	for _, db := range []*DB{a, b} { // the broadcast a router would send
		if err := db.Grant(1, "friend", shareLeft, shareAllDay); err != nil {
			t.Fatal(err)
		}
	}
	if n := cut.NumPolicies(); n != 1 {
		t.Fatalf("the Grant wrote the store B's checkpoint build is saving: %d policies, want 1", n)
	}
	if a.policies == cut || b.policies != a.policies {
		t.Fatal("the Grant did not move both DBs to one copy")
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

	opts := b.opts
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenExisting(Options{Path: opts.Path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := savedPolicies(t, reopened); n != 1 {
		t.Fatalf("B's checkpoint holds %d policies, want the 1 of its cut", n)
	}
}

// TestSharePoliciesRefusesAndDetaches: SharePolicies refuses a store that
// is not Equal, and a LoadPolicies on a sharing DB gives it a store of its
// own, leaving the other DB's untouched.
func TestSharePoliciesRefusesAndDetaches(t *testing.T) {
	a, b := sharedPair(t)
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SharePolicies(a); !errors.Is(err, ErrPoliciesDiffer) {
		t.Fatalf("sharing an empty store with a full one: %v, want ErrPoliciesDiffer", err)
	}

	var empty bytes.Buffer
	if err := c.SavePolicies(&empty); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadPolicies(&empty); err != nil {
		t.Fatal(err)
	}
	if b.pol == a.pol || b.policies == a.policies {
		t.Fatal("LoadPolicies left B on the shared store")
	}
	if savedPolicies(t, a) != 1 || savedPolicies(t, b) != 0 {
		t.Fatalf("after B's LoadPolicies: A holds %d policies, B %d; want 1 and 0", savedPolicies(t, a), savedPolicies(t, b))
	}
	if !a.Allows(1, 2, 10, 10, 100) || b.Allows(1, 2, 10, 10, 100) {
		t.Fatal("after B's LoadPolicies the predicates do not follow the stores")
	}
}
