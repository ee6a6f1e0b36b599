package peb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/store"
)

// Each file kind has one readable format. These tests plant what an older
// engine would have left — or plain garbage — in the golden directory and
// require the open to refuse it without touching anything.

// dirImage reads every file of dir.
func dirImage(t testing.TB, dir string) map[string]string {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	img := make(map[string]string, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		img[filepath.Base(name)] = string(data)
	}
	return img
}

// writeImage writes img's files into a fresh scratch directory.
func writeImage(t testing.TB, img map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range img {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// editMeta returns meta, a checkpoint's JSON, with edit applied.
func editMeta(t testing.TB, meta string, edit func(*metaFile)) string {
	t.Helper()
	var mf metaFile
	if err := json.Unmarshal([]byte(meta), &mf); err != nil {
		t.Fatal(err)
	}
	edit(&mf)
	data, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// restampSegment rewrites the version byte of every record framed in a log
// segment, with each frame's checksum recomputed: the log a generation
// whose records differ only in their stamp would have left.
func restampSegment(t *testing.T, seg string, version byte) string {
	t.Helper()
	data := []byte(seg)
	table := crc32.MakeTable(crc32.Castagnoli)
	for off := 0; off < len(data); {
		n := int(binary.BigEndian.Uint32(data[off:]))
		payload := data[off+8 : off+8+n]
		payload[1] = version
		binary.BigEndian.PutUint32(data[off+4:], crc32.Checksum(payload, table))
		off += 8 + n
	}
	return string(data)
}

// bareBody strips a policies file of its envelope (magic, version, crc
// and body length), leaving the body.
func bareBody(t *testing.T, file string) string {
	t.Helper()
	rd := codec.NewReader([]byte(file), 2) // past magic and version
	rd.TakeUvarint("crc")
	body := rd.TakeBytes("body")
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	return string(body)
}

// gobPolicies is the golden fixture's policies file as the generation
// before the codec body wrote it: a gob stream in the version 1 envelope.
func gobPolicies(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../internal/policy/testdata/gob-policies.v1")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestOpenRefusesOtherGenerations(t *testing.T) {
	const meta, pol, seg = "golden.idx.meta", "golden.idx.policies.1", "golden.idx.wal.000001"
	bareWAL := func(img map[string]string) {
		img["golden.idx.wal"] = img[seg]
		delete(img, seg)
	}
	rows := []struct {
		name  string
		want  error
		plant func(img map[string]string)
	}{
		{"v1 meta", ErrUnsupportedFormat, func(img map[string]string) {
			img[meta] = editMeta(t, img[meta], func(mf *metaFile) { mf.Version = 1 })
		}},
		{"meta names no policies", ErrCorruptCheckpoint, func(img map[string]string) {
			img[meta] = editMeta(t, img[meta], func(mf *metaFile) { mf.Policies = "" })
		}},
		{"meta's leaf count off by one", ErrCorruptCheckpoint, func(img map[string]string) {
			img[meta] = editMeta(t, img[meta], func(mf *metaFile) { mf.LeafCount++ })
		}},
		{"bare policies body", ErrUnsupportedFormat, func(img map[string]string) {
			img[pol] = bareBody(t, img[pol])
		}},
		{"gob-bodied policies file", ErrUnsupportedFormat, func(img map[string]string) {
			img[pol] = gobPolicies(t)
		}},
		{"bare gob policies", ErrUnsupportedFormat, func(img map[string]string) {
			img[pol] = bareBody(t, gobPolicies(t))
		}},
		{"gob record in a segment", ErrUnsupportedFormat, func(img map[string]string) {
			rec := gobEraRecord(t)
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
			frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
			img[seg] += string(frame) + string(rec)
		}},
		{"parent-generation log records", ErrUnsupportedFormat, func(img map[string]string) {
			img[seg] = restampSegment(t, img[seg], walCodecVersion-1)
		}},
		{"single-file log beside a checkpoint", ErrUnsupportedFormat, bareWAL},
		{"single-file log, no checkpoint", ErrUnsupportedFormat, func(img map[string]string) {
			bareWAL(img)
			delete(img, meta)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := dirImage(t, goldenDir)
			row.plant(before)
			dir := writeImage(t, before)
			db, err := OpenExisting(goldenOptions(dir))
			if err == nil {
				db.Close()
			}
			if !errors.Is(err, row.want) {
				t.Fatalf("open err = %v, want %v", err, row.want)
			}
			if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("refused open changed the directory's files")
			}
		})
	}
}

// FuzzCheckpointMeta feeds arbitrary bytes to OpenExisting as the
// checkpoint meta of the golden directory. The open must be total — a DB
// or an error, never a panic — and must not size anything from a number the
// meta merely claims: a DB it returns holds no more pages than the page
// file does, plus the few that replaying the fixture's three-record log
// tail copies on write.
func FuzzCheckpointMeta(f *testing.F) {
	files := dirImage(f, goldenDir)
	meta := files["golden.idx.meta"]
	f.Add([]byte(meta))
	f.Add([]byte(meta[:len(meta)/2]))
	for _, edit := range []func(*metaFile){
		func(mf *metaFile) { mf.NumPages = 1 << 60 },
		func(mf *metaFile) { mf.NumPages = 0 },
		func(mf *metaFile) { mf.Free = []store.PageID{1, 1, 1 << 31} },
		func(mf *metaFile) { mf.Root, mf.Height = 2, 1<<30 },
		func(mf *metaFile) { mf.SVs = nil; mf.Users = []UserID{1 << 31} },
		// Found by this target: the reachability walk sized its result
		// from the leaf count before validating anything.
		func(mf *metaFile) { mf.LeafCount = 1 << 40 },
		func(mf *metaFile) { mf.Size = -1 },
	} {
		f.Add([]byte(editMeta(f, meta, edit)))
	}
	f.Add([]byte(`{"Version":2,"Policies":"../../etc/passwd","NumPages":3,"Root":3,"Height":1,"LeafCount":1}`))
	f.Add([]byte(`[]`))
	// A leaf count the walk does not meet: the cost model would read it.
	f.Add([]byte(editMeta(f, meta, func(mf *metaFile) { mf.LeafCount++ })))

	filePages := uint64(len(files["golden.idx"]) / store.PageSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := store.NewCrashFS()
		for name, content := range files {
			if name == "golden.idx.meta" {
				content = string(data)
			}
			if err := store.WriteFileAtomic(fs, name, []byte(content)); err != nil {
				t.Fatal(err)
			}
		}
		opts := goldenOptions(".")
		opts.Path, opts.FS = "golden.idx", fs
		db, err := OpenExisting(opts)
		if err != nil {
			return
		}
		defer db.Close()
		if n := db.fileDisk.NumPages(); n > filePages+16 {
			t.Fatalf("opened with %d pages over a %d-page file", n, filePages)
		}
		// An accepted image must also be readable without a panic.
		_, _ = db.Objects()
	})
}

// FuzzPageFile overlays arbitrary bytes at an arbitrary offset of the
// golden page file (extending it when they run past the end) and opens the
// directory. The open must be total, and an image it accepts — the
// patched pages were unreachable, or core.OpenChecked's walk and leaf scan
// found them sound — must keep the dead-extent ledger exact and serve
// Objects, RangeQuery, NearestNeighbors and a Checkpoint without error.
func FuzzPageFile(f *testing.F) {
	files := dirImage(f, goldenDir)
	const root = 2 * store.PageSize // page 3, the fixture's one leaf
	f.Add(uint16(0), []byte{})
	f.Add(uint16(root), []byte{2})                                    // the leaf claims to be internal
	f.Add(uint16(root+2), []byte{0xff, 0xff})                         // an entry count past capacity
	f.Add(uint16(root+2), []byte{0, 0})                               // an empty leaf
	f.Add(uint16(root+12), []byte{0xff})                              // a key that is not its object's
	f.Add(uint16(root+12+12), []byte{0x40, 0x8f})                     // an object that is not its key's
	f.Add(uint16(0), []byte{2, 0, 1, 0, 3, 0, 0, 0})                  // a free page posing as a node
	f.Add(uint16(3*store.PageSize-1), make([]byte, 1+store.PageSize)) // a page past NumPages

	f.Fuzz(func(t *testing.T, off uint16, patch []byte) {
		img := []byte(files["golden.idx"])
		at := int(off) % len(img)
		if end := at + len(patch); end > len(img) {
			img = append(img, make([]byte, end-len(img))...)
		}
		copy(img[at:], patch)

		fs := store.NewCrashFS()
		for name, content := range files {
			if name == "golden.idx" {
				content = string(img)
			}
			if err := store.WriteFileAtomic(fs, name, []byte(content)); err != nil {
				t.Fatal(err)
			}
		}
		opts := goldenOptions(".")
		opts.Path, opts.FS = "golden.idx", fs
		db, err := OpenExisting(opts)
		if err != nil {
			return
		}
		defer db.Close()
		if err := ledgerErr(db); err != nil {
			t.Fatalf("opened: %v", err)
		}
		if _, err := db.Objects(); err != nil {
			t.Fatalf("Objects: %v", err)
		}
		if _, err := db.RangeQuery(1, Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 10); err != nil {
			t.Fatalf("RangeQuery: %v", err)
		}
		if _, err := db.NearestNeighbors(1, 500, 500, 5, 10); err != nil {
			t.Fatalf("NearestNeighbors: %v", err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := ledgerErr(db); err != nil {
			t.Fatalf("checkpointed: %v", err)
		}
	})
}
