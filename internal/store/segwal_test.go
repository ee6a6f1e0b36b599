package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
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
	// "0" is the log's always-sync mode, the only mode it has.
	t.Run("0", func(t *testing.T) {
		fs := NewCrashFS()
		// Tiny threshold: 20 records of 8..141 bytes force many rolls.
		w, recs, err := OpenSegmentedWAL(fs, "log", 64)
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

		_, got, err := OpenSegmentedWAL(fs, "log", 64)
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

// TestSegWALRefusesSingleFile: a file at the log's bare path — where logs
// lived before they were segmented — is refused with the format sentinel,
// alone or beside segments, before the open writes anything.
func TestSegWALRefusesSingleFile(t *testing.T) {
	for name, besideSegments := range map[string]bool{"alone": false, "besideSegments": true} {
		t.Run(name, func(t *testing.T) {
			fs := NewCrashFS()
			if besideSegments {
				w, _, err := OpenSegmentedWAL(fs, "log", 64)
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
			_, _, err := OpenSegmentedWAL(fs, "log", 64)
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
	w, _, err := OpenSegmentedWAL(fs, "log", 32)
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
	_, recs, err := OpenSegmentedWAL(fs, "log", 32)
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

func TestSegWALTornTailOnlyInFinalSegment(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 32)
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
	w2, recs, err := OpenSegmentedWAL(fs, "log", 32)
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
	if _, _, err := OpenSegmentedWAL(fs, "log", 32); err == nil {
		t.Fatal("open accepted an invalid tail in a sealed segment")
	}
}

func TestSegWALSealedSegmentsSurvivePessimisticReboot(t *testing.T) {
	// Sealing fsyncs, so records in sealed segments must survive a power
	// cut that drops all unsynced writes, without any Commit ever having
	// been called.
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 32)
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
	_, recs, err := OpenSegmentedWAL(fs, "log", 32)
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
	w, _, err := OpenSegmentedWAL(fs, "log", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a refused record")
	}

	w2, _, err := OpenSegmentedWAL(fs, "log2", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Append(make([]byte, walMaxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}

	w3, _, err := OpenSegmentedWAL(fs, "log3", 64)
	if err != nil {
		t.Fatal(err)
	}
	w3.Poison(fmt.Errorf("owner could not marshal a record"))
	if _, err := w3.Append([]byte("x")); err == nil {
		t.Fatal("append accepted on explicitly poisoned wal")
	}
}

func TestSegWALGroupCommitConcurrentAcrossRolls(t *testing.T) {
	// "0" is the log's always-sync mode, the only mode it has.
	t.Run("0", func(t *testing.T) {
		fs := NewCrashFS()
		// Small threshold: the 200 appends roll the log dozens of times
		// while group-commit leaders are in flight.
		w, _, err := OpenSegmentedWAL(fs, "log", 128)
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
		_, recs, err := OpenSegmentedWAL(fs, "log", 128)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != goroutines*per {
			t.Fatalf("recovered %d records, want %d", len(recs), goroutines*per)
		}
	})
}

func TestSegWALExistsAndRemove(t *testing.T) {
	fs := NewCrashFS()
	if ok, err := SegmentedWALExists(fs, "log"); err != nil || ok {
		t.Fatalf("exists on empty fs = (%v, %v)", ok, err)
	}
	w, _, err := OpenSegmentedWAL(fs, "log", 32)
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
	w, _, err := OpenSegmentedWAL(fs, "log", 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{1}, 40))
	}
	before := w.SizeSince(SegPos{})
	if before != 5*48 { // 8-byte frame header + 40-byte payload each
		t.Fatalf("SizeSince = %d, want %d", before, 5*48)
	}
	if _, _, err := w.DropThrough(w.Mark()); err != nil {
		t.Fatal(err)
	}
	after := w.SizeSince(SegPos{})
	if after >= before {
		t.Fatalf("SizeSince did not shrink: %d -> %d", before, after)
	}
	if w.BytesAppended() != uint64(before) {
		t.Fatalf("BytesAppended = %d, want %d (removal must not reset it)", w.BytesAppended(), before)
	}
}

// FuzzWALFrames feeds arbitrary bytes to scanWAL, the decoder recovery
// runs on every segment it reads from disk, torn or garbled tails
// included. It must never panic, and what it accepts must be a prefix of
// the input that re-framing the returned payloads reproduces byte for
// byte.
func FuzzWALFrames(f *testing.F) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 0)
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
	live, err := fs.ReadFile(SegmentWALName("log", 1))
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	seg, err := fs.ReadFile(SegmentWALName("log", 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(live)                                          // an open log: frames, then its grown zero tail
	f.Add(append(bytes.Clone(seg), 9, 9, 9))             // a torn tail
	f.Add(append(bytes.Clone(seg), make([]byte, 64)...)) // an all-zero extension
	f.Add(seg[:len(seg)-1])                              // the last frame cut short
	f.Add(seg[8:])                                       // framing lost
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, n := scanWAL(data)
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

// TestSegmentedWALMissingDir: a log whose directory does not exist yet
// holds no segments — a caller creating the directory on first write
// probes it like an empty one.
func TestSegmentedWALMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "db.idx.wal")
	if ok, err := SegmentedWALExists(OSFS{}, path); ok || err != nil {
		t.Fatalf("SegmentedWALExists in a missing directory = %v, %v; want false, nil", ok, err)
	}
}

// sizeFS wraps a VFS and watches every file's length: each Truncate or
// WriteAt that changes it counts as a grow or a shrink. With failGrow set,
// a Truncate that would lengthen a file fails instead.
type sizeFS struct {
	VFS
	mu       sync.Mutex
	grows    int
	shrinks  int
	failGrow bool
}

var errGrow = errors.New("grow refused")

func (s *sizeFS) OpenFile(name string) (VFile, error) {
	f, err := s.VFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &sizeFile{VFile: f, fs: s}, nil
}

type sizeFile struct {
	VFile
	fs *sizeFS
}

// count records the change of the file's length from before to its
// current length.
func (f *sizeFile) count(before int64) {
	after, _ := f.VFile.Size()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch {
	case after > before:
		f.fs.grows++
	case after < before:
		f.fs.shrinks++
	}
}

func (f *sizeFile) WriteAt(p []byte, off int64) (int, error) {
	before, _ := f.VFile.Size()
	defer f.count(before)
	return f.VFile.WriteAt(p, off)
}

func (f *sizeFile) Truncate(size int64) error {
	before, _ := f.VFile.Size()
	f.fs.mu.Lock()
	refuse := f.fs.failGrow && size > before
	f.fs.mu.Unlock()
	if refuse {
		return errGrow
	}
	defer f.count(before)
	return f.VFile.Truncate(size)
}

// TestSegWALGrowsInSteps: over many small appends the active file changes
// length once per walGrowStep of records plus once per roll, not once per
// append, and every segment left behind holds exactly its records.
func TestSegWALGrowsInSteps(t *testing.T) {
	fs := &sizeFS{VFS: NewCrashFS()}
	const roll = 4 * walGrowStep
	w, _, err := OpenSegmentedWAL(fs, "log", roll)
	if err != nil {
		t.Fatal(err)
	}
	const n, payload = 6000, 102 // a durable_updates-sized record
	for i := 0; i < n; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i%250 + 1)}, payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rolls, _ := w.SegmentStats()
	bytesIn := w.BytesAppended()
	if rolls == 0 {
		t.Fatalf("%d bytes never rolled a %d-byte segment", bytesIn, roll)
	}
	bound := int((bytesIn+walGrowStep-1)/walGrowStep) + int(rolls)
	if fs.grows > bound {
		t.Fatalf("%d appends grew the log %d times, want <= %d (%d bytes, %d rolls)",
			n, fs.grows, bound, bytesIn, rolls)
	}
	if fs.shrinks > int(rolls) {
		t.Fatalf("the log shrank %d times before Close, want <= %d (one trim per seal)", fs.shrinks, rolls)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenSegmentedWAL(fs, "log", roll)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
}

// TestSegWALCloseLeavesExactRecords: sealed segments and a cleanly closed
// active segment hold exactly their records, durably — no zero tail
// survives a Close, even a power cut right after it.
func TestSegWALCloseLeavesExactRecords(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		segAppendCommit(t, w, bytes.Repeat([]byte{byte(i + 1)}, 50))
	}
	active := SegmentWALName("log", w.Mark().Seg)
	if live, err := fs.ReadFile(active); err != nil {
		t.Fatal(err)
	} else if _, valid := scanWAL(live); valid == len(live) {
		t.Fatalf("the live active segment has no grown tail (%d bytes)", len(live))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fs.CutPower()
	fs.Reboot(false)
	idxs, err := ListWALSegments(fs, "log")
	if err != nil || len(idxs) < 3 {
		t.Fatalf("segments %v (%v), want several", idxs, err)
	}
	total := 0
	for _, idx := range idxs {
		data, err := fs.ReadFile(SegmentWALName("log", idx))
		if err != nil {
			t.Fatal(err)
		}
		recs, valid := scanWAL(data)
		if valid != len(data) {
			t.Fatalf("segment %d holds %d bytes of records and %d more", idx, valid, len(data)-valid)
		}
		total += len(recs)
	}
	if total != 9 {
		t.Fatalf("segments hold %d records, want 9", total)
	}
}

// TestSegWALGrowFailurePoisons: a grow that fails poisons the log like a
// failed write, and the records before it stay recoverable.
func TestSegWALGrowFailurePoisons(t *testing.T) {
	fs := &sizeFS{VFS: NewCrashFS()}
	w, _, err := OpenSegmentedWAL(fs, "log", 0)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("kept"))
	fs.failGrow = true
	// The first append grew the file by a whole step: this one needs more.
	if _, err := w.Append(make([]byte, walGrowStep)); !errors.Is(err, errGrow) {
		t.Fatalf("append past the grown tail = %v, want the grow's error", err)
	}
	fs.failGrow = false
	if _, err := w.Append([]byte("after")); err == nil {
		t.Fatal("append accepted after a failed grow")
	}
	if w.Err() == nil {
		t.Fatal("a failed grow left the log healthy")
	}
	w.Close()
	_, recs, err := OpenSegmentedWAL(fs, "log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "kept" {
		t.Fatalf("recovered %q, want [kept]", recs)
	}
}

// TestSegWALReopenPastRollThreshold: a log reopened with a roll threshold
// below its last segment's length leaves that segment as it is, rolls at
// the next append, and recovers every record.
func TestSegWALReopenPastRollThreshold(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	appendN := func(w *SegmentedWAL, n int) {
		for i := 0; i < n; i++ {
			p := bytes.Repeat([]byte{byte(len(want) + 1)}, 1000)
			want = append(want, p)
			segAppendCommit(t, w, p)
		}
	}
	appendN(w, 10)
	w.Close()
	first, err := fs.ReadFile(SegmentWALName("log", 1))
	if err != nil {
		t.Fatal(err)
	}

	const roll = 4096 // below the 10 080 bytes segment 1 holds
	w, recs, err := OpenSegmentedWAL(fs, "log", roll)
	if err != nil || len(recs) != 10 {
		t.Fatalf("reopen: %d records, err %v", len(recs), err)
	}
	if again, _ := fs.ReadFile(SegmentWALName("log", 1)); !bytes.Equal(again, first) {
		t.Fatalf("the open changed segment 1: %d bytes, was %d", len(again), len(first))
	}
	appendN(w, 5)
	w.Close()

	_, recs, err = OpenSegmentedWAL(fs, "log", roll)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestSegWALCrashSweepAcrossGrowth cuts power at every faultable operation
// of a log whose records cross two growth steps and a roll, under both
// reboot models. Recovery must return the records in order, every
// acknowledged one included, and no sealed segment may keep a zero tail.
func TestSegWALCrashSweepAcrossGrowth(t *testing.T) {
	const roll = 2 * walGrowStep
	const n, size = 9, 20 << 10 // 180 KiB: grows at 0, 64 and 128 KiB, rolls past 128
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	run := func(fs *CrashFS) (acked int) {
		w, _, err := OpenSegmentedWAL(fs, "log", roll)
		if err != nil {
			return 0
		}
		for i := 0; i < n; i++ {
			tok, err := w.Append(payload(i))
			if err == nil {
				err = w.Commit(tok)
			}
			if err != nil {
				return acked
			}
			acked++
		}
		w.Close()
		return acked
	}
	clean := NewCrashFS()
	if got := run(clean); got != n {
		t.Fatalf("fault-free run acknowledged %d of %d", got, n)
	}
	if rolls, _ := ListWALSegments(clean, "log"); len(rolls) < 2 {
		t.Fatalf("the records never rolled the log: segments %v", rolls)
	}
	total := clean.Ops()

	for _, keep := range []bool{false, true} {
		for k := 0; k <= total; k++ {
			fs := NewCrashFS()
			fs.SetFailAfter(k)
			acked := run(fs)
			fs.CutPower()
			fs.Reboot(keep)
			idxs, err := ListWALSegments(fs, "log")
			if err != nil {
				t.Fatal(err)
			}
			for j, idx := range idxs[:max(len(idxs)-1, 0)] {
				data, _ := fs.ReadFile(SegmentWALName("log", idx))
				if _, valid := scanWAL(data); valid != len(data) {
					t.Fatalf("keep=%v fault %d: sealed segment %d of %d keeps %d bytes past its records",
						keep, k, j+1, len(idxs), len(data)-valid)
				}
			}
			_, recs, err := OpenSegmentedWAL(fs, "log", roll)
			if err != nil {
				t.Fatalf("keep=%v fault %d: recovery: %v", keep, k, err)
			}
			if len(recs) < acked || len(recs) > n {
				t.Fatalf("keep=%v fault %d: recovered %d records, %d acknowledged", keep, k, len(recs), acked)
			}
			for i, r := range recs {
				if !bytes.Equal(r, payload(i)) {
					t.Fatalf("keep=%v fault %d: record %d is not the %d-th appended", keep, k, i, i)
				}
			}
		}
	}
}

// TestSegWALWritebackNoOpInCrashFS: the writeback hint makes nothing
// durable and costs CrashFS no operation, so a pessimistic power cut after
// the hint, with no sync, loses the hinted record and keeps the synced one.
func TestSegWALWritebackNoOpInCrashFS(t *testing.T) {
	fs := NewCrashFS()
	w, _, err := OpenSegmentedWAL(fs, "log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	segAppendCommit(t, w, []byte("synced"))
	tok, err := w.Append([]byte("hinted"))
	if err != nil {
		t.Fatal(err)
	}
	ops := fs.Ops()
	if err := w.Writeback(tok); err != nil {
		t.Fatalf("writeback: %v", err)
	}
	if got := fs.Ops(); got != ops {
		t.Fatalf("the hint cost %d CrashFS operations, want none", got-ops)
	}
	if w.Durable(tok) {
		t.Fatal("the hint made the record durable")
	}
	fs.CutPower()
	fs.Reboot(false)
	_, recs, err := OpenSegmentedWAL(fs, "log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "synced" {
		t.Fatalf("recovered %q, want only the synced record", recs)
	}
}

// TestSegWALWritebackAfterRoll: on the operating system's filesystem the
// hint succeeds on the segment a roll just opened, and on a record the
// roll sealed, and the records replay after a sync and a reopen.
func TestSegWALWritebackAfterRoll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, _, err := OpenSegmentedWAL(OSFS{}, path, 32)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Append(bytes.Repeat([]byte{1}, 40))
	if err != nil {
		t.Fatal(err)
	}
	second, err := w.Append(bytes.Repeat([]byte{2}, 40)) // rolls first
	if err != nil {
		t.Fatal(err)
	}
	if rolls, _ := w.SegmentStats(); rolls != 1 {
		t.Fatalf("%d rolls, want 1", rolls)
	}
	for _, tok := range []WALToken{second, first} {
		if err := w.Writeback(tok); err != nil {
			t.Fatalf("writeback after a roll: %v", err)
		}
	}
	if err := w.Commit(second); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenSegmentedWAL(OSFS{}, path, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}
