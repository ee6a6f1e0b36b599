package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The cases below run the log at its default roll threshold, where it is
// one active segment: open/replay, tail repair and the fail-stop contract
// as a single file sees them. segwal_test.go covers the same contract
// across rolls.

// openLog opens the log "log" on fs at the default roll threshold.
func openLog(t *testing.T, fs VFS, policy WALSyncPolicy) (*SegmentedWAL, [][]byte) {
	t.Helper()
	w, recs, err := OpenSegmentedWAL(fs, "log", policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs
}

func TestWALAppendReplay(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped, WALSyncNone} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			w, recs := openLog(t, fs, policy)
			if len(recs) != 0 {
				t.Fatalf("fresh wal holds %d records", len(recs))
			}
			var want [][]byte
			for i := 0; i < 20; i++ {
				payload := bytes.Repeat([]byte{byte(i)}, i*7+1)
				want = append(want, payload)
				segAppendCommit(t, w, payload)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			_, got := openLog(t, fs, policy)
			if len(got) != len(want) {
				t.Fatalf("reopened wal holds %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestWALTornTailDropped(t *testing.T) {
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncAlways)
	segAppendCommit(t, w, []byte("alpha"))
	segAppendCommit(t, w, []byte("beta"))

	// Tear the third append mid-write: the record's prefix lands in the
	// file without its full payload/CRC.
	fs.SetFailAfter(0)
	if _, err := w.Append([]byte("gamma-torn-record")); err == nil {
		t.Fatal("append survived injected tear")
	}
	fs.Reboot(true) // keep the torn bytes: the checksum must reject them

	_, recs := openLog(t, fs, WALSyncAlways)
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("recovered %q, want [alpha beta]", recs)
	}
}

func TestWALCorruptTailTruncatedOnOpen(t *testing.T) {
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncAlways)
	segAppendCommit(t, w, []byte("keep"))
	w.Close()

	// Flip a payload byte of a appended-but-valid second record.
	f, _ := fs.OpenFile(SegmentWALName("log", 1))
	size, _ := f.Size()
	w2, _ := openLog(t, fs, WALSyncAlways)
	segAppendCommit(t, w2, []byte("corrupt-me"))
	w2.Close()
	if _, err := f.WriteAt([]byte{0xFF}, size+9); err != nil {
		t.Fatal(err)
	}

	_, recs := openLog(t, fs, WALSyncAlways)
	if len(recs) != 1 || string(recs[0]) != "keep" {
		t.Fatalf("recovered %q, want [keep]", recs)
	}
	// The corrupt tail was truncated away, so appends extend a clean log.
	f2, _ := fs.OpenFile(SegmentWALName("log", 1))
	if got, _ := f2.Size(); got != size {
		t.Fatalf("log size %d after truncation, want %d", got, size)
	}
}

func TestWALZeroFilledTailDropped(t *testing.T) {
	// A crashed filesystem often extends a file with zeros before the data
	// reaches disk. An all-zero header must read as tail garbage — not as
	// an endless run of valid empty records (CRC-32C of "" is 0).
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncAlways)
	segAppendCommit(t, w, []byte("real"))
	w.Close()
	f, _ := fs.OpenFile(SegmentWALName("log", 1))
	size, _ := f.Size()
	if _, err := f.WriteAt(make([]byte, 64), size); err != nil {
		t.Fatal(err)
	}

	_, recs := openLog(t, fs, WALSyncAlways)
	if len(recs) != 1 || string(recs[0]) != "real" {
		t.Fatalf("recovered %q, want [real]", recs)
	}
	f2, _ := fs.OpenFile(SegmentWALName("log", 1))
	if got, _ := f2.Size(); got != size {
		t.Fatalf("zero tail not truncated: size %d, want %d", got, size)
	}
	// And the source of such records is rejected at the door.
	w2, _ := openLog(t, fs, WALSyncAlways)
	if _, err := w2.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestWALTruncateSatisfiesCommits(t *testing.T) {
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncNone)
	tok, err := w.Append([]byte("will-be-checkpointed"))
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint covers the record: its segment is sealed and dropped.
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, segs, err := w.DropThrough(w.Mark()); err != nil || segs != 1 {
		t.Fatalf("DropThrough = (%d segments, %v), want 1 segment", segs, err)
	}
	// The record is gone from the log; its commit must still succeed, and
	// only the next era may come back on reopen.
	if err := w.Commit(tok); err != nil {
		t.Fatalf("commit after drop: %v", err)
	}
	segAppendCommit(t, w, []byte("next-era"))
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs := openLog(t, fs, WALSyncNone)
	if len(recs) != 1 || string(recs[0]) != "next-era" {
		t.Fatalf("recovered %q, want [next-era]", recs)
	}
}

func TestWALPoisonedAfterSyncFailure(t *testing.T) {
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncAlways)
	segAppendCommit(t, w, []byte("ok"))
	fs.SetFailAfter(1) // the append's write succeeds, its fsync fails
	tok, err := w.Append([]byte("doomed"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Commit(tok); err == nil {
		t.Fatal("commit survived failed fsync")
	}
	// Poisoned: later appends and commits must keep failing.
	fs.Reboot(true)
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted on poisoned wal")
	}
	if err := w.Commit(tok); err == nil {
		t.Fatal("commit accepted on poisoned wal")
	}
}

func TestWALValidationFailuresPoison(t *testing.T) {
	// Owners apply state before logging, so a record the WAL refuses is a
	// hole: the log must go fail-stop, not shrug and take later records.
	fs := NewCrashFS()
	w, _ := openLog(t, fs, WALSyncAlways)
	if _, err := w.Append(make([]byte, walMaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused record")
	}

	w2, _, err := OpenSegmentedWAL(fs, "log2", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.Poison(fmt.Errorf("owner could not marshal a record"))
	if _, err := w2.Append([]byte("x")); err == nil {
		t.Fatal("append accepted on explicitly poisoned wal")
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			w, _ := openLog(t, fs, policy)
			const goroutines, per = 8, 25
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tok, err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i)))
						if err == nil {
							err = w.Commit(tok)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			w.Close()
			_, recs := openLog(t, fs, policy)
			if len(recs) != goroutines*per {
				t.Fatalf("recovered %d records, want %d", len(recs), goroutines*per)
			}
		})
	}
}

func TestCrashFSDurability(t *testing.T) {
	fs := NewCrashFS()
	f, err := fs.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("synced"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("UNSYNC"), 6); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on dead fs: %v", err)
	}
	fs.Reboot(false)
	got, err := fs.ReadFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced" {
		t.Fatalf("pessimistic reboot kept %q, want %q", got, "synced")
	}
}

func TestCrashFSRenameAtomicDurable(t *testing.T) {
	fs := NewCrashFS()
	f, _ := fs.OpenFile("meta.tmp")
	if _, err := f.WriteAt([]byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("meta.tmp", "meta"); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	fs.Reboot(false)
	got, err := fs.ReadFile("meta")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("renamed file = %q, want %q", got, "new")
	}
	if ok, _ := fs.Exists("meta.tmp"); ok {
		t.Fatal("temp name survived rename")
	}
}
