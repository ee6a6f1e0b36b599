package peb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// walPayloads returns the record payloads of db's log (one segment: the
// tests below never write enough to roll it).
func walPayloads(t *testing.T, fs store.VFS, path string) [][]byte {
	t.Helper()
	data, err := fs.ReadFile(store.SegmentWALName(path+".wal", 1))
	if err != nil {
		t.Fatal(err)
	}
	frames, n := store.ScanWALFrames(data)
	if n != len(data) {
		t.Fatalf("log %s has %d trailing bytes", path, len(data)-n)
	}
	return frames
}

// TestOneShotEqualsOneOpBatch pins the one-write-path invariant: a one-shot
// method and a Batch staging the same single operation are the same commit
// — the same log record, the same hook notification, the same resulting
// state — and fail the same way.
func TestOneShotEqualsOneOpBatch(t *testing.T) {
	downtown := Region{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}
	allDay := TimeInterval{Start: 0, End: 1440}
	inverted := Region{MinX: 10, MaxX: 5, MaxY: 5}

	steps := []struct {
		name    string
		direct  func(*DB) error
		staged  func(*Batch)
		wantErr func(error) bool // nil: the step must succeed
	}{
		{"upsert of a fresh user",
			func(db *DB) error { return db.Upsert(Object{UID: 7, X: 100, Y: 100, VX: 1, T: 1}) },
			func(b *Batch) { b.Upsert(Object{UID: 7, X: 100, Y: 100, VX: 1, T: 1}) }, nil},
		{"upsert of a known user",
			func(db *DB) error { return db.Upsert(Object{UID: 7, X: 200, Y: 300, VY: -1, T: 2}) },
			func(b *Batch) { b.Upsert(Object{UID: 7, X: 200, Y: 300, VY: -1, T: 2}) }, nil},
		{"define relation",
			func(db *DB) error { return db.DefineRelation(7, 8, "friend") },
			func(b *Batch) { b.DefineRelation(7, 8, "friend") }, nil},
		{"grant",
			func(db *DB) error { return db.Grant(7, "friend", downtown, allDay) },
			func(b *Batch) { b.Grant(7, "friend", downtown, allDay) }, nil},
		{"grant over an invalid region",
			func(db *DB) error { return db.Grant(7, "friend", inverted, allDay) },
			func(b *Batch) { b.Grant(7, "friend", inverted, allDay) },
			func(err error) bool {
				var ire *InvalidRegionError
				return errors.As(err, &ire) && ire.Region == inverted
			}},
		{"remove of an unindexed user",
			func(db *DB) error { return db.Remove(99) },
			func(b *Batch) { b.Remove(99) },
			func(err error) bool { return err != nil && !errors.Is(err, ErrClosed) }},
		{"remove",
			func(db *DB) error { return db.Remove(7) },
			func(b *Batch) { b.Remove(7) }, nil},
	}

	type side struct {
		db    *DB
		fs    *store.CrashFS
		infos []CommitInfo
	}
	open := func() *side {
		s := &side{fs: store.NewCrashFS()}
		db, err := Open(Options{Path: "db.idx", Durability: DurabilitySync, FS: s.fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		db.AddCommitHook(func(info CommitInfo, _ *CommitView) { s.infos = append(s.infos, info) })
		s.db = db
		return s
	}
	direct, staged := open(), open()

	for _, step := range steps {
		derr := step.direct(direct.db)
		b := staged.db.NewBatch()
		step.staged(b)
		serr := staged.db.Apply(b)

		if step.wantErr == nil {
			if derr != nil || serr != nil {
				t.Fatalf("%s: method err %v, batch err %v", step.name, derr, serr)
			}
		} else if !step.wantErr(derr) || !step.wantErr(serr) {
			t.Fatalf("%s: method err %v, batch err %v — want the same error class from both", step.name, derr, serr)
		}

		// The same log: record for record, sequence number aside.
		dlog, slog := walPayloads(t, direct.fs, "db.idx"), walPayloads(t, staged.fs, "db.idx")
		if len(dlog) != len(slog) {
			t.Fatalf("%s: method logged %d records, batch %d", step.name, len(dlog), len(slog))
		}
		for i := range dlog {
			drec, err := decodeRecord(dlog[i])
			if err != nil {
				t.Fatal(err)
			}
			srec, err := decodeRecord(slog[i])
			if err != nil {
				t.Fatal(err)
			}
			drec.Seq, srec.Seq = 0, 0
			if !bytes.Equal(appendRecord(nil, &drec), appendRecord(nil, &srec)) {
				t.Fatalf("%s: record %d differs:\nmethod %+v\nbatch  %+v", step.name, i, drec, srec)
			}
		}
		// The same hook stream.
		if !reflect.DeepEqual(direct.infos, staged.infos) {
			t.Fatalf("%s: hook notifications differ:\nmethod %+v\nbatch  %+v", step.name, direct.infos, staged.infos)
		}
		// The same state.
		if d, s := direct.db.CommitSeq(), staged.db.CommitSeq(); d != s {
			t.Fatalf("%s: CommitSeq method %d, batch %d", step.name, d, s)
		}
		do, dok, derr2 := direct.db.Lookup(7)
		so, sok, serr2 := staged.db.Lookup(7)
		if do != so || dok != sok || derr2 != nil || serr2 != nil {
			t.Fatalf("%s: Lookup method (%+v, %v, %v), batch (%+v, %v, %v)", step.name, do, dok, derr2, so, sok, serr2)
		}
		if d, s := direct.db.Allows(7, 8, 100, 100, 60), staged.db.Allows(7, 8, 100, 100, 60); d != s {
			t.Fatalf("%s: Allows method %v, batch %v", step.name, d, s)
		}
	}

	// Five steps committed (the two failing ones logged and notified
	// nothing), the fresh user's record carries its sequence value, and the
	// grant took effect.
	if got := direct.db.CommitSeq(); got != 5 {
		t.Fatalf("CommitSeq = %d, want 5", got)
	}
	if len(direct.infos) != 5 {
		t.Fatalf("%d hook notifications, want 5", len(direct.infos))
	}
	first, err := decodeRecord(walPayloads(t, direct.fs, "db.idx")[0])
	if err != nil {
		t.Fatal(err)
	}
	if idx := first.Ops.Idx; len(idx) != 2 || len(first.Ops.Pol) != 0 || idx[0].Kind != core.OpSetSV || idx[1].Kind != core.OpUpsert {
		t.Fatalf("fresh user's record = %+v, want [SetSV, Upsert]", first.Ops)
	}
	if !direct.db.Allows(7, 8, 100, 100, 60) {
		t.Fatal("the grant did not take effect")
	}
	if !direct.infos[3].PolicyChange || direct.infos[3].Touched != nil {
		t.Fatalf("grant notification = %+v, want a pure policy change", direct.infos[3])
	}
	if tc := direct.infos[4].Touched; len(tc) != 1 || tc[0].Prev == nil || tc[0].Cur != nil {
		t.Fatalf("remove notification = %+v, want one touch with Prev and no Cur", direct.infos[4])
	}
}
