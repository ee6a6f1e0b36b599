package peb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// editMeta returns meta, a checkpoint's meta record, with edit applied.
func editMeta(t testing.TB, meta string, edit func(*metaFile)) string {
	t.Helper()
	mf, err := decodeMeta([]byte(meta))
	if err != nil {
		t.Fatal(err)
	}
	edit(&mf)
	return string(mf.encode(nil))
}

// jsonMeta is the golden fixture's checkpoint meta as the generation
// before the codec record wrote it: version 2, JSON.
func jsonMeta(t testing.TB) string {
	t.Helper()
	data, err := os.ReadFile("testdata/meta-v2.json")
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
			img[meta] = strings.Replace(jsonMeta(t), `"Version":2`, `"Version":1`, 1)
		}},
		{"version-2 JSON meta", ErrUnsupportedFormat, func(img map[string]string) {
			img[meta] = jsonMeta(t)
		}},
		{"meta stamped with another version", ErrUnsupportedFormat, func(img map[string]string) {
			img[meta] = img[meta][:1] + string(rune(metaVersion+1)) + img[meta][2:]
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
		func(mf *metaFile) { mf.SVs = nil },
		// Found by this target: the reachability walk sized its result
		// from the leaf count before validating anything.
		func(mf *metaFile) { mf.LeafCount = 1 << 40 },
		func(mf *metaFile) { mf.Size = -1 },
		func(mf *metaFile) { mf.Policies = "../../etc/passwd" },
		func(mf *metaFile) { mf.BorrowedPolicies, mf.Policies = true, "" },
		// A leaf count the walk does not meet: the cost model would read it.
		func(mf *metaFile) { mf.LeafCount++ },
	} {
		f.Add([]byte(editMeta(f, meta, edit)))
	}
	f.Add([]byte(jsonMeta(f)))
	f.Add([]byte(`[]`))

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

// tallImage is a database directory, under the golden fixture's file
// names, whose tree has two levels: tallImageObjects objects bulk loaded
// under a few policies, a checkpoint, and a log tail. It returns the files
// and the checkpoint's root page.
func tallImage(t testing.TB) (map[string]string, store.PageID) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "tall")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := Open(goldenOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := db.DefineRelation(UserID(i), UserID(i+1), "f"); err != nil {
			t.Fatal(err)
		}
		if err := db.Grant(UserID(i), "f", goldenRegion(i), goldenDay); err != nil {
			t.Fatal(err)
		}
	}
	b := db.NewBatch()
	for i := 1; i <= tallImageObjects; i++ {
		b.Upsert(goldenObj(i, 0))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(goldenObj(7, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files := dirImage(t, dir)
	mf, err := decodeMeta([]byte(files["golden.idx.meta"]))
	if err != nil {
		t.Fatal(err)
	}
	if mf.Height != 2 {
		t.Fatalf("tall image of height %d, want 2", mf.Height)
	}
	return files, store.PageID(mf.Root)
}

// tallImageObjects fills six leaves under a root.
const tallImageObjects = 300

// FuzzPageFile overlays arbitrary bytes at an arbitrary offset of a page
// file — the golden fixture's, a single leaf, or tallImage's two levels
// when tall is set — extending it when they run past the end, and opens
// the directory. The open must be total, and an image it accepts — the
// patched pages were unreachable, or core.OpenChecked's walk and leaf scan
// found them sound — must keep the dead-extent ledger exact, serve
// Objects, RangeQuery and NearestNeighbors, and take writes: a stored user
// moved, a new user added and one removed, each done or refused with an
// error, then a Checkpoint.
func FuzzPageFile(f *testing.F) {
	images := [2]map[string]string{dirImage(f, goldenDir)}
	var tallRoot store.PageID
	images[1], tallRoot = tallImage(f)
	const root = 2 * store.PageSize // page 3, the fixture's one leaf
	f.Add(false, uint16(0), []byte{})
	f.Add(false, uint16(root), []byte{2})                                    // the leaf claims to be internal
	f.Add(false, uint16(root+2), []byte{0xff, 0xff})                         // an entry count past capacity
	f.Add(false, uint16(root+2), []byte{0, 0})                               // an empty leaf
	f.Add(false, uint16(root+12), []byte{0xff})                              // a key that is not its object's
	f.Add(false, uint16(root+12+12), []byte{0x40, 0x8f})                     // an object that is not its key's
	f.Add(false, uint16(0), []byte{2, 0, 1, 0, 3, 0, 0, 0})                  // a free page posing as a node
	f.Add(false, uint16(3*store.PageSize-1), make([]byte, 1+store.PageSize)) // a page past NumPages

	// The two-level image: the root and its leaves.
	top := uint16(int(tallRoot-1) * store.PageSize)
	var self [4]byte
	binary.LittleEndian.PutUint32(self[:], uint32(tallRoot))
	f.Add(true, uint16(0), []byte{})
	f.Add(true, top, []byte{1})                                                  // the root claims to be a leaf
	f.Add(true, top+2, []byte{0xff, 0xff})                                       // separators past capacity
	f.Add(true, top+2, []byte{1, 0})                                             // one separator: leaves unreached
	f.Add(true, top+4, self[:])                                                  // the leftmost child is the root itself
	f.Add(true, top+12+12, self[:])                                              // and the second
	f.Add(true, top+12, []byte{0xff, 0xff, 0xff})                                // a separator out of order
	f.Add(true, top+12+16, []byte{0, 0, 0, 0})                                   // a separator below its left sibling's keys
	f.Add(true, top+12+12, []byte{0, 0, 0, 0})                                   // a child at page 0
	f.Add(true, top+12+12+16, []byte{0xff, 0xff})                                // a child past the file
	f.Add(true, top+200, []byte{0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}) // garbage past the root's count
	for leaf := 0; leaf < int(tallRoot-1); leaf++ {
		at := uint16(leaf * store.PageSize)
		f.Add(true, at+2, []byte{1, 0})                                              // a leaf left with one entry
		f.Add(true, at+12+8, []byte{0xff})                                           // an entry's user id garbled
		f.Add(true, at+3500, []byte{0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}) // garbage past the count
	}

	f.Fuzz(func(t *testing.T, tall bool, off uint16, patch []byte) {
		files := images[0]
		if tall {
			files = images[1]
		}
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
		objs, err := db.Objects()
		if err != nil {
			t.Fatalf("Objects: %v", err)
		}
		if _, err := db.RangeQuery(1, Region{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 10); err != nil {
			t.Fatalf("RangeQuery: %v", err)
		}
		if _, err := db.NearestNeighbors(1, 500, 500, 5, 10); err != nil {
			t.Fatalf("NearestNeighbors: %v", err)
		}
		// The writes may be refused; a refused one must leave the ledger
		// exact as a done one does.
		if len(objs) > 0 {
			moved := objs[0]
			moved.X, moved.Y = 1000-moved.X, 1000-moved.Y
			_ = db.Upsert(moved)
		}
		_ = db.Upsert(goldenObj(tallImageObjects+1, 9))
		if len(objs) > 1 {
			_ = db.Remove(objs[len(objs)-1].UID)
		}
		if err := ledgerErr(db); err != nil {
			t.Fatalf("written: %v", err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := ledgerErr(db); err != nil {
			t.Fatalf("checkpointed: %v", err)
		}
	})
}
