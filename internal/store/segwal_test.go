package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/codec"
)

// segAppendCommit appends one record and commits it.
func segAppendCommit(t *testing.T, w *SegmentedWAL, payload []byte) {
	t.Helper()
	tok, err := w.Append(payload)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Commit(tok); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestSegWALAppendReplayAcrossRolls(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped, WALSyncNone} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			// Tiny threshold: 20 records of 8..141 bytes force many rolls.
			w, recs, err := OpenSegmentedWAL(fs, "log", policy, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("fresh wal holds %d records", len(recs))
			}
			var want [][]byte
			for i := 0; i < 20; i++ {
				payload := bytes.Repeat([]byte{byte(i + 1)}, i*7+1)
				want = append(want, payload)
				segAppendCommit(t, w, payload)
			}
			if segs, err := ListWALSegments(fs, "log"); err != nil || len(segs) < 3 {
				t.Fatalf("expected several segments, got %v (%v)", segs, err)
			}
			sealed, removed := w.SegmentStats()
			if sealed < 2 || removed != 0 {
				t.Fatalf("SegmentStats = (%d, %d), want (>=2, 0)", sealed, removed)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			_, got, err := OpenSegmentedWAL(fs, "log", policy, 64)
			if err != nil {
				t.Fatal(err)
			}
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

// TestSegWALRefusesSingleFile: a file at the log's bare path — where logs
// lived before they were segmented — is refused with the format sentinel,
// alone or beside segments, before the open writes anything.
func TestSegWALRefusesSingleFile(t *testing.T) {
	for name, besideSegments := range map[string]bool{"alone": false, "besideSegments": true} {
		t.Run(name, func(t *testing.T) {
			fs := NewCrashFS()
			if besideSegments {
				w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
				if err != nil {
					t.Fatal(err)
				}
				segAppendCommit(t, w, []byte("seg-era"))
				w.Close()
			}
			if err := WriteFileAtomic(fs, "log", []byte("a single-file log")); err != nil {
				t.Fatal(err)
			}
			if ok, err := SegmentedWALExists(fs, "log"); err != nil || !ok {
				t.Fatalf("exists = (%v, %v): the bare file must reach the open to be refused", ok, err)
			}
			ops := fs.Ops()
			_, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
			if !errors.Is(err, codec.ErrUnsupportedFormat) {
				t.Fatalf("open err = %v, want ErrUnsupportedFormat", err)
			}
			if fs.Ops() != ops {
				t.Fatalf("refused open wrote, renamed, truncated or synced %d times", fs.Ops()-ops)
			}
		})
	}
}

func TestSegWALDropThrough(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{byte(i + 1)}, 40))
	}
	mark := w.Mark()
	var tail [][]byte
	for i := 0; i < 3; i++ {
		p := bytes.Repeat([]byte{byte(0xA0 + i)}, 40)
		tail = append(tail, p)
		segAppendCommit(t, w, p)
	}
	removedBytes, segs, err := w.DropThrough(mark)
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 || removedBytes == 0 {
		t.Fatalf("DropThrough removed (%d bytes, %d segments), want > 0", removedBytes, segs)
	}
	if _, removed := w.SegmentStats(); removed != uint64(segs) {
		t.Fatalf("SegmentsRemoved = %d, want %d", removed, segs)
	}
	// Dropping the same mark again is a no-op: the covered segments are
	// already gone.
	if _, n, err := w.DropThrough(mark); err != nil || n != 0 {
		t.Fatalf("second DropThrough = (%d, %v), want (0, nil)", n, err)
	}
	w.Close()

	// Reopen: records not covered by the mark survive, in order. The drop
	// may retain records before the mark (partially covered segment) but
	// must never lose one after it.
	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < len(tail) {
		t.Fatalf("recovered %d records, want >= %d", len(recs), len(tail))
	}
	got := recs[len(recs)-len(tail):]
	for i := range tail {
		if !bytes.Equal(got[i], tail[i]) {
			t.Fatalf("tail record %d = %v, want %v", i, got[i], tail[i])
		}
	}
}

// TestSegWALSeal: Seal rolls a non-empty active segment whatever its size
// and leaves an empty one alone, so a caller can make everything appended
// so far droppable as whole segments.
func TestSegWALSeal(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := w.Mark(); got != (SegPos{Seg: 1}) {
		t.Fatalf("Seal of an empty log moved the mark to %+v", got)
	}
	segAppendCommit(t, w, []byte("verdicts"))
	for i := 0; i < 2; i++ { // the second Seal finds the fresh segment empty
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if got := w.Mark(); got != (SegPos{Seg: 2}) {
			t.Fatalf("mark after Seal #%d = %+v, want segment 2 offset 0", i+1, got)
		}
	}
	segAppendCommit(t, w, []byte("watermark"))
	if _, segs, err := w.DropThrough(SegPos{Seg: 2}); err != nil || segs != 1 {
		t.Fatalf("DropThrough = (%d segments, %v), want the one sealed segment", segs, err)
	}
	w.Close()
	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "watermark" {
		t.Fatalf("recovered %q, want [watermark]", recs)
	}
}

func TestSegWALTornTailOnlyInFinalSegment(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40)) // fills segment 1
	segAppendCommit(t, w, bytes.Repeat([]byte{2}, 40)) // rolls, lands in 2
	w.Close()

	// A torn tail in the final segment is truncated on open.
	last := SegmentWALName("log", 2)
	f, _ := fs.OpenFile(last)
	size, _ := f.Size()
	f.WriteAt([]byte{9, 9, 9}, size)
	f.Sync()
	f.Close()
	w2, recs, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	w2.Close()

	// The same garbage inside a sealed (non-final) segment is corruption.
	first := SegmentWALName("log", 1)
	f, _ = fs.OpenFile(first)
	size, _ = f.Size()
	f.WriteAt([]byte{9, 9, 9}, size)
	f.Sync()
	f.Close()
	if _, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32); err == nil {
		t.Fatal("open accepted an invalid tail in a sealed segment")
	}
}

func TestSegWALSealedSegmentsSurvivePessimisticReboot(t *testing.T) {
	// Sealing fsyncs under every policy — even WALSyncNone — so records in
	// sealed segments must survive a power cut that drops all unsynced
	// writes, without any Commit ever having been called.
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncNone, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i + 1)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	fs.CutPower()
	fs.Reboot(false)
	_, recs, err := OpenSegmentedWAL(fs, "log", WALSyncNone, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Records 0..2 were sealed by the rolls records 1..3 triggered; only
	// the final record lived solely in the unsynced active segment.
	if len(recs) < 3 {
		t.Fatalf("recovered %d records, want >= 3 (sealed segments lost)", len(recs))
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(recs[i], bytes.Repeat([]byte{byte(i + 1)}, 40)) {
			t.Fatalf("sealed record %d corrupted", i)
		}
	}
}

func TestSegWALValidationFailuresPoison(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused record")
	}

	w2, _, err := OpenSegmentedWAL(fs, "log2", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Append(make([]byte, walMaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}

	w3, _, err := OpenSegmentedWAL(fs, "log3", WALSyncAlways, 64)
	if err != nil {
		t.Fatal(err)
	}
	w3.Poison(fmt.Errorf("owner could not marshal a record"))
	if _, err := w3.Append([]byte("x")); err == nil {
		t.Fatal("append accepted on explicitly poisoned wal")
	}
}

func TestSegWALGroupCommitConcurrentAcrossRolls(t *testing.T) {
	for _, policy := range []WALSyncPolicy{WALSyncAlways, WALSyncGrouped} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			fs := NewCrashFS()
			// Small threshold: the 200 appends roll the log dozens of times
			// while group-commit leaders are in flight.
			w, _, err := OpenSegmentedWAL(fs, "log", policy, 128)
			if err != nil {
				t.Fatal(err)
			}
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
			appends, syncs := w.Stats()
			if appends != goroutines*per {
				t.Fatalf("appends = %d, want %d", appends, goroutines*per)
			}
			if syncs == 0 {
				t.Fatal("no syncs recorded")
			}
			w.Close()
			_, recs, err := OpenSegmentedWAL(fs, "log", policy, 128)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != goroutines*per {
				t.Fatalf("recovered %d records, want %d", len(recs), goroutines*per)
			}
		})
	}
}

func TestSegWALExistsAndRemove(t *testing.T) {
	fs := NewCrashFS()
	if ok, err := SegmentedWALExists(fs, "log"); err != nil || ok {
		t.Fatalf("exists on empty fs = (%v, %v)", ok, err)
	}
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40))
	}
	w.Close()
	if ok, _ := SegmentedWALExists(fs, "log"); !ok {
		t.Fatal("segments not detected")
	}
	if err := RemoveSegmentedWAL(fs, "log"); err != nil {
		t.Fatal(err)
	}
	idxs, err := ListWALSegments(fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 0 {
		t.Fatalf("segments %v survived removal", idxs)
	}
}

func TestSegWALSizeCountsRetainedBytes(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40))
	}
	before := w.Size()
	if before != 5*48 { // 8-byte frame header + 40-byte payload each
		t.Fatalf("Size = %d, want %d", before, 5*48)
	}
	if _, _, err := w.DropThrough(w.Mark()); err != nil {
		t.Fatal(err)
	}
	after := w.Size()
	if after >= before {
		t.Fatalf("Size did not shrink: %d -> %d", before, after)
	}
	if w.BytesAppended() != uint64(before) {
		t.Fatalf("BytesAppended = %d, want %d (removal must not reset it)", w.BytesAppended(), before)
	}
}

// FuzzWALFrames feeds arbitrary bytes to ScanWALFrames, which the replica
// tailer runs on raw segment bytes read while the primary may be mid-way
// through an append. It must never panic, and what it accepts must be a
// prefix of the input that re-framing the returned payloads reproduces
// byte for byte.
func FuzzWALFrames(f *testing.F) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", WALSyncAlways, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ { // the payload shapes of the roll test above
		tok, err := w.Append(bytes.Repeat([]byte{byte(i + 1)}, i*7+1))
		if err == nil {
			err = w.Commit(tok)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	seg, err := fs.ReadFile(SegmentWALName("log", 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(append(bytes.Clone(seg), 9, 9, 9))             // a torn tail
	f.Add(append(bytes.Clone(seg), make([]byte, 64)...)) // an all-zero extension
	f.Add(seg[:len(seg)-1])                              // the last frame cut short
	f.Add(seg[8:])                                       // framing lost
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, n := ScanWALFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", n, len(data))
		}
		var reframed []byte
		for _, p := range frames {
			reframed = binary.BigEndian.AppendUint32(reframed, uint32(len(p)))
			reframed = binary.BigEndian.AppendUint32(reframed, crc32.Checksum(p, walCRC))
			reframed = append(reframed, p...)
		}
		if !bytes.Equal(reframed, data[:n]) {
			t.Fatalf("%d frames re-frame to %d bytes, not the %d-byte prefix they were read from",
				len(frames), len(reframed), n)
		}
	})
}
