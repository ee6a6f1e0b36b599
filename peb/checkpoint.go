package peb

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/store"
)

// Checkpoint/restore: a file-backed DB (Options.Path) persists its index
// pages continuously; Checkpoint makes a crash-consistent cut of that
// state and OpenExisting (or, with durability, Open) re-attaches to it
// without reinsertion or re-encoding.
//
// A checkpoint is three files, published in a strict order:
//
//	<Path>              the page file (flushed, then fsynced)
//	<Path>.policies.<n> the policy-store snapshot, written under a name
//	                    unique to this checkpoint (temp + fsync + rename)
//	<Path>.meta         one codec record (metaFile): tree linkage,
//	                    sequence values, allocator state, WAL horizon, and
//	                    the *name* of the paired policies file (temp +
//	                    fsync + rename — the COMMIT POINT)
//
// The meta rename is atomic and the policies file it names is never
// rewritten (each checkpoint writes a fresh one; the previous is deleted
// only after the new meta commits), so a crash anywhere in the sequence
// leaves either the old checkpoint — old meta, old policies file intact —
// or the new one, never a torn pairing of one era's policies with the
// other era's index.
//
// # The phased pipeline
//
// Checkpoint does not stop the world. It runs as three explicit phases,
// and only the first and last hold the write lock:
//
//	cut     (write lock) — seal the tree so every page of the current
//	        image becomes immutable (later mutations copy-on-write);
//	        capture the root/meta/sequence-value snapshot, the policy
//	        store (pinned until publish or abort), the allocator state, the
//	        WAL horizon, byte mark and transaction watermark that state
//	        stands at, the dirty-page list, and the dead-extent ledger
//	        (DB.ckptDead: the pages that died since the last cut); switch
//	        the disk into deferred reclamation. No I/O.
//	build   (no write lock) — flush the captured dirty pages one at a
//	        time (the buffer pool re-locks per page, so concurrent
//	        fetches interleave), fsync the data file, park the ledger's
//	        pages, write the .policies.<n> side file, and stage the .meta
//	        bytes durably at .meta.tmp. Commits and queries proceed
//	        against the live tree throughout.
//	publish (write lock) — rename .meta.tmp over .meta (the commit
//	        point), flip the parked pages into the allocator's free
//	        list, and delete the sealed WAL segments the cut's mark
//	        covers entirely (records committed during the build live in
//	        newer segments and are untouched — nothing is ever
//	        rewritten). The only I/O under the lock is the rename and
//	        the segment deletes — both O(1) in the index size.
//
// The cut image stays valid during the build because sealed pages are
// never rewritten in place, freed pages are parked rather than reused
// (store.FileDisk.DeferFrees), and retired pages are quarantined
// (DB.collectGarbage honors ckptBuilding). A crash in any phase before
// the meta rename leaves the previous checkpoint fully intact; after it,
// the new one — the same two-generals-free protocol as before, which the
// brute-force crash sweep (peb/crash_test.go) verifies fault point by
// fault point.
//
// Concurrent Checkpoint calls serialize on DB.ckptMu, each running its
// own pipeline; index rebuilds (EncodePolicies, InstallEncoding) and Close
// take it too, draining the pipeline first. Options.AutoCheckpoint runs
// this same pipeline from a background maintainer when the write-ahead
// log crosses a size threshold, resting after each run as long as the run
// took.
//
// With a write-ahead log, the meta records the log sequence number of the
// last commit the checkpoint covers; recovery replays only newer records,
// and the publish phase deletes the log segments the cut covers entirely
// (pure space reclamation — correctness never depends on the removal
// happening, so partially covered records simply stay and replay as
// no-ops).

// metaFile is the checkpoint meta: what recovery needs beyond the page
// file and the policies snapshot, and nothing it can derive from them. It
// is one internal/codec record, on the codec's conventions (uvarint,
// vfloat, vbytes):
//
//	magic    1 byte  0xD8 (codec.MagicCheckpointMeta)
//	version  1 byte  0x03 (metaVersion)
//	ckptSeq  uvarint  this checkpoint's number
//	walSeq   uvarint  the log horizon: the last commit the image holds
//	maxTxn   uvarint  the transaction watermark at walSeq
//	root     uvarint  the tree's root page
//	height   uvarint
//	size     uvarint  indexed objects
//	leaves   uvarint
//	numPages uvarint  the page allocator's extent
//	nextSV   vfloat   the next fresh sequence-value anchor
//	borrowed 1 byte   1 when the store belongs to another DB, else 0
//	policies vbytes   base name of the paired policies snapshot
//	nfree    uvarint  then each free page as its gap to the previous one
//	         (the first from 0), ascending
//	nsvs     uvarint  then each sequence value as uid gap · sv: uids
//	         ascending, the first gap from 0, every later one at least 1
//
// The store's users, the indexed users and the encoding population are not
// stored: the policies snapshot, the leaves and the sequence values name
// them. MaxTxn is kept because the checkpoint may cover the only record
// that raised it, and let its segment go (see prepared.go). A borrowed
// store (DB.BorrowPolicies) has no snapshot, so its meta names none.
type metaFile struct {
	CkptSeq          uint64
	WalSeq           uint64
	MaxTxn           uint64
	Root             uint32
	Height           int
	Size             int
	LeafCount        int
	NumPages         uint64
	NextSV           float64
	BorrowedPolicies bool
	Policies         string
	Free             []store.PageID
	SVs              []svRec
}

type svRec struct {
	UID UserID
	SV  uint64
}

// metaVersion is the one meta version openFromCheckpoint reads; any other
// stamp, the JSON metas of version 2 among them, is refused with
// ErrUnsupportedFormat.
const metaVersion = 3

// encode appends mf's record to b. Free and SVs must be ascending.
func (mf *metaFile) encode(b []byte) []byte {
	b = append(b, codec.MagicCheckpointMeta, metaVersion)
	for _, v := range []uint64{mf.CkptSeq, mf.WalSeq, mf.MaxTxn, uint64(mf.Root),
		uint64(mf.Height), uint64(mf.Size), uint64(mf.LeafCount), mf.NumPages} {
		b = codec.AppendUvarint(b, v)
	}
	b = codec.AppendFloat(b, mf.NextSV)
	borrowed := byte(0)
	if mf.BorrowedPolicies {
		borrowed = 1
	}
	b = append(b, borrowed)
	b = codec.AppendBytes(b, []byte(mf.Policies))
	b = codec.AppendUvarint(b, uint64(len(mf.Free)))
	prev := store.PageID(0)
	for _, id := range mf.Free {
		b = codec.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	b = codec.AppendUvarint(b, uint64(len(mf.SVs)))
	prevUID := UserID(0)
	for _, rec := range mf.SVs {
		b = codec.AppendUvarint(b, uint64(rec.UID-prevUID))
		b = codec.AppendUvarint(b, rec.SV)
		prevUID = rec.UID
	}
	return b
}

// decodeMeta reads a meta record. Bytes without the current stamp are
// refused as ErrUnsupportedFormat, and any other departure from the layout
// as corrupt; both wrap ErrCorruptCheckpoint.
func decodeMeta(data []byte) (metaFile, error) {
	if len(data) < 2 || data[0] != codec.MagicCheckpointMeta || data[1] != metaVersion {
		return metaFile{}, corruptf("checkpoint meta: %w (want magic %#x version %d)",
			ErrUnsupportedFormat, codec.MagicCheckpointMeta, metaVersion)
	}
	rd := codec.NewReader(data, 2)
	var mf metaFile
	mf.CkptSeq = rd.TakeUvarint("ckpt seq")
	mf.WalSeq = rd.TakeUvarint("wal seq")
	mf.MaxTxn = rd.TakeUvarint("max txn")
	mf.Root = uint32(takeBounded(rd, "root", math.MaxUint32))
	mf.Height = int(takeBounded(rd, "height", math.MaxInt32))
	mf.Size = int(takeBounded(rd, "size", math.MaxInt))
	mf.LeafCount = int(takeBounded(rd, "leaf count", math.MaxInt))
	mf.NumPages = rd.TakeUvarint("page count")
	mf.NextSV = rd.TakeFloat("next sv")
	switch rd.TakeByte("borrowed") {
	case 0:
	case 1:
		mf.BorrowedPolicies = true
	default:
		rd.Failf("borrowed flag is not 0 or 1")
	}
	mf.Policies = string(rd.TakeBytesView("policies"))
	mf.Free = make([]store.PageID, rd.TakeCount("free pages", 1))
	var id uint64
	for i := range mf.Free {
		id += rd.TakeUvarint("free page")
		if id > math.MaxUint32 {
			rd.Failf("free page %d past the page id space", id)
			break
		}
		mf.Free[i] = store.PageID(id)
	}
	mf.SVs = make([]svRec, rd.TakeCount("sequence values", 2))
	var uid uint64
	for i := range mf.SVs {
		gap := rd.TakeUvarint("uid gap")
		if i > 0 && gap == 0 {
			rd.Failf("sequence values out of uid order at %d", i)
		}
		if uid += gap; uid > math.MaxUint32 {
			rd.Failf("uid %d past the id space", uid)
		}
		mf.SVs[i] = svRec{UID: UserID(uid), SV: rd.TakeUvarint("sequence value")}
	}
	rd.ExpectEnd()
	if err := rd.Err(); err != nil {
		return metaFile{}, corruptf("parse checkpoint meta: %v", err)
	}
	return mf, nil
}

// takeBounded reads a uvarint that must not exceed limit.
func takeBounded(rd *codec.Reader, what string, limit uint64) uint64 {
	v := rd.TakeUvarint(what)
	if v > limit {
		rd.Failf("%s %d exceeds %d", what, v, limit)
		return 0
	}
	return v
}

// CheckpointStats reports checkpoint pipeline activity since Open. The
// Last* durations describe the most recent committed checkpoint; the
// Total* durations accumulate across all of them. Cut and Publish are the
// only phases that hold the write lock, so LastCut+LastPublish bounds the
// stall the last checkpoint imposed on commits and queries.
type CheckpointStats struct {
	// Checkpoints counts committed pipelines; AutoTriggered counts
	// pipelines initiated by the AutoCheckpoint maintainer.
	Checkpoints   uint64
	AutoTriggered uint64

	LastCut, LastBuild, LastPublish    time.Duration
	TotalCut, TotalBuild, TotalPublish time.Duration

	// PagesFlushed counts dirty pages written by build phases;
	// PagesReclaimed counts dead pages returned to the allocator;
	// WALBytesTruncated counts log bytes dropped at publish. All
	// cumulative.
	PagesFlushed      uint64
	PagesReclaimed    uint64
	WALBytesTruncated uint64

	// WALSegmentsRemoved counts sealed log segments deleted at publish
	// (cumulative).
	WALSegmentsRemoved uint64
}

// CheckpointStats returns the pipeline's activity counters since Open.
func (db *DB) CheckpointStats() CheckpointStats {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.ckptStats
}

// ckptImage is everything the build and publish phases need, captured
// inside the cut critical section so no later phase reads mutable DB
// state without the lock.
type ckptImage struct {
	seq      uint64
	pool     *store.BufferPool
	fd       *store.FileDisk
	dirty    []store.PageID
	pol      *policyHandle // the handle policies is pinned on
	policies *policy.Store // the store to save; nil when none is written
	polOps   uint64
	borrowed bool
	snap     core.Snapshot
	nextSV   float64
	walSeq   uint64
	walMark  store.SegPos
	maxTxn   uint64
	numPages uint64
	free     []store.PageID // free ∪ parked ids at cut
	dead     []store.PageID // the ledger taken at cut
	released int            // dead[:released] parked by build
	flushed  int            // filled by build
	polName  string         // the paired policies file: set by build, or at cut when reused
}

// Checkpoint publishes a crash-consistent cut of the database to its
// backing files. Only file-backed DBs can checkpoint. On return the
// checkpoint is durable: a crash at any later point recovers at least
// this state (plus, with durability enabled, every commit the WAL holds).
//
// Checkpoint runs as a three-phase pipeline — cut, build, publish — and
// holds the write lock only for the cut and publish moments, so commits
// and queries keep flowing while the bulk of the work (page flushing,
// fsync, side-file writes) happens; commits made during the build are
// simply not covered by this checkpoint and stay in the write-ahead log.
// Concurrent Checkpoint calls run one pipeline each, one after another
// (DB.ckptMu, which also serializes the pipeline against index rebuilds
// and Close), so each call's checkpoint covers every commit its caller
// made before calling.
//
// Checkpoint is also the storage reclamation point: pages that became
// unreachable since the last checkpoint (superseded by copy-on-write,
// abandoned by an index rebuild, or pinned at the last cut by a snapshot
// of a run that crashed) and are not pinned by an open Snapshot are
// returned to the allocator, and the covered prefix of the write-ahead
// log is truncated. They are the dead-extent ledger's pages; no walk of
// the index finds them.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	cutStart := time.Now()
	db.mu.Lock()
	img, err := db.ckptCut()
	if err != nil {
		db.mu.Unlock()
		return err
	}
	cutDur := time.Since(cutStart)
	db.mu.Unlock()

	db.hook("build")
	buildStart := time.Now()
	buildErr := db.ckptBuild(img)
	buildDur := time.Since(buildStart)

	db.hook("publish")
	db.mu.Lock()
	publishStart := time.Now()
	if buildErr != nil {
		db.ckptAbortLocked(img)
		db.mu.Unlock()
		return buildErr
	}
	committed, walBytes, walSegs, err := db.ckptPublishLocked(img)
	if !committed {
		db.ckptAbortLocked(img)
		db.mu.Unlock()
		return err
	}
	publishDur := time.Since(publishStart)
	db.mu.Unlock()

	db.statsMu.Lock()
	st := &db.ckptStats
	st.Checkpoints++
	st.LastCut, st.LastBuild, st.LastPublish = cutDur, buildDur, publishDur
	st.TotalCut += cutDur
	st.TotalBuild += buildDur
	st.TotalPublish += publishDur
	st.PagesFlushed += uint64(img.flushed)
	st.PagesReclaimed += uint64(len(img.dead))
	st.WALBytesTruncated += uint64(walBytes)
	st.WALSegmentsRemoved += uint64(walSegs)
	db.statsMu.Unlock()

	db.events.Record("checkpoint", "checkpoint committed",
		"cut", cutDur, "build", buildDur, "publish", publishDur,
		"flushed", img.flushed, "reclaimed", len(img.dead),
		"wal_bytes_truncated", walBytes, "wal_segments_removed", walSegs)
	return err
}

// hook invokes the test hook, if any, outside any DB lock.
func (db *DB) hook(phase string) {
	if db.ckptHook != nil {
		db.ckptHook(phase)
	}
}

// ckptCut is the pipeline's first critical section (caller holds the
// write lock): freeze the image and capture everything the lock-free
// build needs. No file I/O happens here.
func (db *DB) ckptCut() (*ckptImage, error) {
	if db.closed {
		return nil, ErrClosed
	}
	if db.fileDisk == nil {
		return nil, fmt.Errorf("peb: checkpoint requires a file-backed DB (Options.Path)")
	}
	if db.wal != nil {
		// A poisoned log may end in a record whose effect the state lacks
		// (a coordinator record whose fsync failed, say): a cut would
		// publish a log position past it, and recovery would skip it.
		if err := db.wal.Err(); err != nil {
			return nil, fmt.Errorf("peb: checkpoint: %w", err)
		}
	}

	// Account pending retirements (unpinned ones join the ledger once a
	// checkpoint image exists, and go straight back to the allocator
	// before one does), then seal: every page reachable right now becomes
	// immutable, so the capture below stays bit-exact no matter what
	// commits land during the build.
	db.collectGarbage()
	db.tree.Seal()

	img := &ckptImage{
		seq:      db.ckptSeq + 1,
		pool:     db.tree.Pool(),
		fd:       db.fileDisk,
		polOps:   db.polOps,
		borrowed: db.borrowed,
		snap:     db.tree.Snapshot(),
		nextSV:   db.nextSV,
		numPages: db.fileDisk.NumPages(),
		// Parked ids from an earlier aborted pipeline are unreachable and
		// unallocated: free pages of the new image.
		free: append(db.fileDisk.FreeList(), db.fileDisk.PendingList()...),
	}
	// The ledger holds exactly the allocated pages that neither the cut
	// image reaches nor an open snapshot pins: this checkpoint's dead set.
	// Pages dying from here on belong to the next one.
	img.dead, db.ckptDead = db.ckptDead, nil
	// The log position the captured state stands at.
	img.walSeq, img.maxTxn = db.walSeq, db.maxTxn
	if db.wal != nil {
		img.walMark = db.wal.Mark()
	}

	// The policies file: none for a borrowed store, the live one when no
	// policy operation has applied since the last checkpoint's cut, else
	// the store as it stands, pinned so the build can save it lock-free.
	switch {
	case db.borrowed:
	case db.polOps == db.ckptPolOps && db.prevPolicies != "":
		img.polName = db.prevPolicies
	default:
		img.pol, img.policies = db.pol, db.policies
		img.pol.pin(img.policies)
	}

	// From here until publish/abort: freed pages park instead of becoming
	// reallocatable and retired pages are quarantined (collectGarbage
	// checks ckptBuilding).
	db.fileDisk.DeferFrees(true)
	db.ckptBuilding = true

	// The dirty list is exact at this instant and can only shrink: sealed
	// pages are never redirtied, and evictions write pages back.
	img.dirty = img.pool.DirtyPages()
	return img, nil
}

// ckptBuild is the pipeline's heavy phase, run WITHOUT the write lock
// (commits and queries proceed concurrently): persist the page image, park
// the dead pages, and write every side file except the final meta rename.
func (db *DB) ckptBuild(img *ckptImage) error {
	flushed, err := img.pool.FlushPages(img.dirty)
	if err != nil {
		return err
	}
	img.flushed = flushed
	if err := img.fd.Sync(); err != nil {
		return err
	}

	// Park the dead pages now: Release evicts stale frames from the
	// buffer pool as well as freeing the ids, so a future reallocation
	// cannot collide with a cached ghost. DeferFrees keeps them
	// unreallocatable until the publish — the previous checkpoint may
	// still reference them as live.
	for _, id := range img.dead {
		if err := img.pool.Release(id); err != nil {
			return fmt.Errorf("peb: checkpoint reclaim page %d: %w", id, err)
		}
		img.released++
	}

	// Side files: the policies snapshot, if the cut took one, under its
	// checkpoint-unique name, then the meta staged (written + fsynced, NOT
	// renamed) — publishing the commit point is the publish phase's one
	// job.
	if img.policies != nil {
		name := fmt.Sprintf("%s.policies.%d", db.opts.Path, img.seq)
		var buf bytes.Buffer
		if err := img.policies.Save(&buf); err != nil {
			return fmt.Errorf("peb: checkpoint policies: %w", err)
		}
		img.polName = name // from here abort removes it
		if err := store.WriteFileAtomic(db.opts.FS, name, buf.Bytes()); err != nil {
			return fmt.Errorf("peb: checkpoint policies: %w", err)
		}
	}
	if err := store.StageFile(db.opts.FS, db.opts.Path+".meta", img.metaBytes()); err != nil {
		return fmt.Errorf("peb: checkpoint meta: %w", err)
	}
	return nil
}

// metaBytes encodes the checkpoint meta from the cut capture plus the
// build's liveness result.
func (img *ckptImage) metaBytes() []byte {
	mf := metaFile{
		CkptSeq:          img.seq,
		WalSeq:           img.walSeq,
		MaxTxn:           img.maxTxn,
		Root:             uint32(img.snap.Tree.Root),
		Height:           img.snap.Tree.Height,
		Size:             img.snap.Tree.Size,
		LeafCount:        img.snap.Tree.LeafCount,
		NumPages:         img.numPages,
		NextSV:           img.nextSV,
		BorrowedPolicies: img.borrowed,
		SVs:              make([]svRec, 0, len(img.snap.SVs)),
	}
	if img.polName != "" {
		mf.Policies = filepath.Base(img.polName)
	}
	for uid, sv := range img.snap.SVs {
		mf.SVs = append(mf.SVs, svRec{UID: uid, SV: sv})
	}
	slices.SortFunc(mf.SVs, func(a, b svRec) int { return cmp.Compare(a.UID, b.UID) })
	mf.Free = make([]store.PageID, 0, len(img.free)+len(img.dead))
	mf.Free = append(append(mf.Free, img.free...), img.dead...)
	slices.Sort(mf.Free)
	return mf.encode(nil)
}

// ckptPublishLocked is the pipeline's final critical section (caller
// holds the write lock): rename the staged meta — the atomic commit point
// — then make the reclaimed pages reallocatable and delete the sealed WAL
// segments the cut covers entirely (held down to the retention floor of
// any coordinator record still held). committed reports whether the
// commit point landed; on committed=true with err != nil the checkpoint
// succeeded but segment reclamation did not — the segments linger
// harmlessly until the next publish retries.
func (db *DB) ckptPublishLocked(img *ckptImage) (committed bool, walBytes int64, walSegs int, err error) {
	if db.closed {
		// Unreachable — Close drains the pipeline via ckptMu — but never
		// publish into a torn-down DB.
		return false, 0, 0, ErrClosed
	}
	if err := store.CommitStagedFile(db.opts.FS, db.opts.Path+".meta"); err != nil {
		return false, 0, 0, fmt.Errorf("peb: checkpoint meta: %w", err)
	}

	// Committed. The tree has been sealed since the cut; from now on the
	// image is the recovery base, so the permanent-quarantine regime
	// (ckptSealed) takes over from the build's temporary one.
	db.ckptSealed = true
	db.ckptBuilding = false
	if img.policies != nil {
		img.pol.unpin(img.policies)
	}
	db.ckptSeq = img.seq
	db.ckptWalMark = img.walMark
	db.ckptPolOps = img.polOps
	if db.prevPolicies != "" && db.prevPolicies != img.polName {
		// Best effort: the superseded snapshot is dead weight. A crash
		// before this Remove orphans it; OpenExisting sweeps orphans on
		// the next recovery.
		_ = db.opts.FS.Remove(db.prevPolicies)
	}
	db.prevPolicies = img.polName

	// Reclamation is safe now: the parked pages (the build's dead set,
	// plus anything freed mid-build) become reallocatable.
	db.fileDisk.FlushPending()
	db.fileDisk.DeferFrees(false)

	if db.wal != nil {
		// A held coordinator record pins the log just below itself: drop
		// only segments both this checkpoint and every such hold are
		// past. Segment removal is pure space reclamation (recovery skips
		// covered records by sequence number), so a failure neither fails
		// the checkpoint nor disables the log: the segments linger and the
		// next publish retries.
		n, segs, terr := db.wal.DropThrough(db.retentionFloor(img.walMark))
		walBytes, walSegs = n, segs
		if terr != nil {
			return true, walBytes, walSegs, fmt.Errorf("peb: checkpoint committed, but dropping covered wal segments failed (they linger until the next checkpoint): %w", terr)
		}
	} else if ok, _ := store.SegmentedWALExists(db.opts.FS, db.opts.Path+".wal"); ok {
		// Non-durable DB over a leftover log from a durable run: this
		// checkpoint's WalSeq covers every replayed record, so the log is
		// dead weight — drop it (best effort).
		_ = store.RemoveSegmentedWAL(db.opts.FS, db.opts.Path+".wal")
	}
	return true, walBytes, walSegs, nil
}

// retentionFloor lowers a checkpoint's drop mark to the lowest floor any
// holder pins the log at (see hold).
func (db *DB) retentionFloor(mark store.SegPos) store.SegPos {
	db.floorMu.Lock()
	defer db.floorMu.Unlock()
	for _, floor := range db.floors {
		if floor.Less(mark) {
			mark = floor
		}
	}
	return mark
}

// hold pins the log at floor for key — a coordinator's Prepared just below
// its record, so recovery can still redo a part whose own record is not
// durable yet — until release.
func (db *DB) hold(key any, floor store.SegPos) {
	db.floorMu.Lock()
	defer db.floorMu.Unlock()
	if db.floors == nil {
		db.floors = make(map[any]store.SegPos)
	}
	db.floors[key] = floor
}

// release ends key's hold on the log (a no-op for a key holding none).
func (db *DB) release(key any) {
	db.floorMu.Lock()
	defer db.floorMu.Unlock()
	delete(db.floors, key)
}

// ckptAbortLocked unwinds a failed pipeline (caller holds the write
// lock). The previous checkpoint is untouched; the pages parked during
// the build stay parked — the old image may reference the dead ones — and
// are accounted as free by the next successful checkpoint, which also
// makes them reallocatable. The tree stays sealed; normal garbage
// collection unseals it once nothing pins it (when no checkpoint exists).
func (db *DB) ckptAbortLocked(img *ckptImage) {
	db.ckptBuilding = false
	db.fileDisk.DeferFrees(false)
	// The pages the build did not park are still allocated and still dead:
	// back to the ledger, for the next checkpoint to reclaim.
	db.ckptDead = append(db.ckptDead, img.dead[img.released:]...)
	// Best effort: drop side files the failed build may have left. The
	// staged meta was never renamed and a policies file the build wrote is
	// referenced by no meta, so both are inert either way. A reused file
	// is the live checkpoint's and stays.
	_ = db.opts.FS.Remove(db.opts.Path + ".meta.tmp")
	if img.policies != nil {
		img.pol.unpin(img.policies)
		if img.polName != "" {
			_ = db.opts.FS.Remove(img.polName)
		}
	}
}

// startAutoCheckpoint launches the background maintainer when the options
// ask for one (idempotent; no-op without a threshold or without a WAL).
func (db *DB) startAutoCheckpoint() {
	if !db.opts.AutoCheckpoint.enabled() || db.wal == nil || db.stopC != nil {
		return
	}
	db.autoC = make(chan struct{}, 1)
	db.stopC = make(chan struct{})
	db.maintWG.Add(1)
	go db.autoCheckpointLoop()
}

// stopAutoCheckpoint ends the maintainer and waits for it to exit
// (idempotent; called by Close before draining the pipeline).
func (db *DB) stopAutoCheckpoint() {
	if db.stopC == nil {
		return
	}
	db.stopOnce.Do(func() { close(db.stopC) })
	db.maintWG.Wait()
}

// autoCheckpointLoop is the maintainer: each trigger from the commit path
// re-checks the threshold (the signal may be stale — a just-finished
// checkpoint empties the log) and runs one pipeline.
// Failures are not fatal; the next threshold crossing retries.
func (db *DB) autoCheckpointLoop() {
	defer db.maintWG.Done()
	for {
		select {
		case <-db.stopC:
			return
		case <-db.autoC:
			if !db.autoCheckpointDue() {
				continue
			}
			db.statsMu.Lock()
			db.ckptStats.AutoTriggered++
			db.statsMu.Unlock()
			start := time.Now()
			if err := db.Checkpoint(); errors.Is(err, ErrClosed) {
				return
			}
			// Rest as long as the pipeline ran. Commits that log a
			// threshold's worth while a checkpoint builds re-arm the
			// trigger at once, and checkpoints would run back to back, as
			// often as they can finish; this way they take at most half
			// the time.
			select {
			case <-db.stopC:
				return
			case <-time.After(time.Since(start)):
			}
		}
	}
}

// autoCheckpointDue re-evaluates the trigger threshold.
func (db *DB) autoCheckpointDue() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return !db.closed && db.wal != nil && db.walOverThreshold()
}

// walOverThreshold reports whether the log has crossed the AutoCheckpoint
// threshold. Caller holds mu and has checked db.wal.
func (db *DB) walOverThreshold() bool {
	return db.wal.SizeSince(db.ckptWalMark) >= db.opts.AutoCheckpoint.WALBytes
}

// maybeAutoCheckpoint nudges the maintainer when a commit pushes the WAL
// over the threshold. Caller holds the write lock; the send never blocks.
func (db *DB) maybeAutoCheckpoint() {
	if db.autoC == nil || db.wal == nil || !db.walOverThreshold() {
		return
	}
	select {
	case db.autoC <- struct{}{}:
	default:
	}
}

// corruptf wraps a violation as an ErrCorruptCheckpoint; a cause passed
// with %w (another generation's stamp, say) stays matchable.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorruptCheckpoint}, args...)...)
}

// OpenExisting re-opens a DB from its on-disk state: the last Checkpoint
// plus — when a write-ahead log is present — every commit logged after it,
// so after a crash the DB contains exactly the committed prefix of its
// history. opts.Path must name the same backing file; the other options
// must match the original configuration (they are not persisted).
//
// Invalid on-disk state (truncated files, unparsable metadata, index
// structure that does not match the page file) is reported as an error
// wrapping ErrCorruptCheckpoint rather than a panic.
//
// A log without any checkpoint (the DB crashed before its first
// Checkpoint) recovers too: replay starts from an empty index.
func OpenExisting(opts Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	if opts.Path == "" {
		return nil, fmt.Errorf("%w: OpenExisting requires Options.Path", ErrBadOptions)
	}

	metaData, err := opts.FS.ReadFile(opts.Path + ".meta")
	var db *DB
	switch {
	case err == nil:
		db, err = openFromCheckpoint(opts, metaData)
	case errors.Is(err, fs.ErrNotExist):
		hasWAL, werr := store.SegmentedWALExists(opts.FS, opts.Path+".wal")
		if werr != nil {
			return nil, fmt.Errorf("peb: probe wal: %w", werr)
		}
		if !hasWAL {
			return nil, fmt.Errorf("peb: read checkpoint meta: %w", err)
		}
		db, err = openFromWALOnly(opts)
	default:
		return nil, fmt.Errorf("peb: read checkpoint meta: %w", err)
	}
	if err != nil {
		return nil, err
	}
	// Replay is complete: installing the hook now guarantees it observes
	// only post-recovery commits.
	if opts.OnCommit != nil {
		db.AddCommitHook(opts.OnCommit)
	}
	db.startAutoCheckpoint()
	return db, nil
}

// sweepCheckpointOrphans removes side files a crash can leave behind in
// <Path>'s namespace: staging files (.meta.tmp, .policies.<n>.tmp) that
// were never renamed, and superseded or never-committed .policies.<n>
// snapshots other than livePol (empty livePol means no policies file is
// live). Best effort — a failed sweep only leaks files, so errors are
// swallowed; the next recovery retries.
func sweepCheckpointOrphans(opts Options, livePol string) {
	names, err := opts.FS.ListDir(filepath.Dir(opts.Path))
	if err != nil {
		return
	}
	for _, name := range names {
		// The staged meta; any other checkpoint's .policies.<n>, and any
		// .tmp staging leftover.
		if name != livePol && (name == opts.Path+".meta.tmp" || strings.HasPrefix(name, opts.Path+".policies.")) {
			_ = opts.FS.Remove(name)
		}
	}
}

// openFromCheckpoint re-attaches to a checkpoint and replays any log tail.
// Everything that can refuse the directory — the meta's stamp, the
// policies snapshot's, every log record's — is read before anything in it
// is written, swept or replayed over.
func openFromCheckpoint(opts Options, metaData []byte) (*DB, error) {
	mf, err := decodeMeta(metaData)
	if err != nil {
		return nil, err
	}
	policies, polName, err := checkpointPolicies(opts, mf)
	if err != nil {
		return nil, err
	}

	fd, err := store.OpenFileDiskOn(opts.FS, opts.Path)
	if err != nil {
		return nil, err
	}
	// Restore the allocator state, and validate the meta's linkage against
	// it before touching any page.
	if err := fd.Reconcile(mf.NumPages, mf.Free); err != nil {
		fd.Close()
		return nil, corruptf("%v", err)
	}
	if mf.Root == 0 || uint64(mf.Root) > mf.NumPages {
		fd.Close()
		return nil, corruptf("root page %d outside file of %d pages", mf.Root, mf.NumPages)
	}
	if mf.Height < 1 || mf.Size < 0 || mf.LeafCount < 1 {
		fd.Close()
		return nil, corruptf("implausible tree shape: height %d, size %d, %d leaves",
			mf.Height, mf.Size, mf.LeafCount)
	}

	snap := core.Snapshot{
		Tree: btree.Meta{
			Root:      store.PageID(mf.Root),
			Height:    mf.Height,
			Size:      mf.Size,
			LeafCount: mf.LeafCount,
		},
		SVs: make(map[UserID]uint64, len(mf.SVs)),
	}
	for _, rec := range mf.SVs {
		snap.SVs[rec.UID] = rec.SV
	}
	tree, reach, err := core.OpenChecked(opts.coreConfig(), store.NewBufferPool(fd, opts.BufferPages),
		policies, snap, store.PageID(mf.NumPages))
	if err != nil {
		fd.Close()
		return nil, corruptf("%v", err)
	}

	db := &DB{
		opts:         opts,
		pol:          newPolicyHandle(policies),
		policies:     policies,
		tree:         tree,
		view:         tree.View(),
		disk:         fd,
		fileDisk:     fd,
		gen:          1,
		snaps:        make(map[*Snapshot]struct{}),
		nextSV:       mf.NextSV,
		walSeq:       mf.WalSeq,
		maxTxn:       mf.MaxTxn,
		ckptSeq:      mf.CkptSeq,
		prevPolicies: polName,
		borrowed:     mf.BorrowedPolicies,
	}
	db.initObs()
	if db.nextSV < 2 {
		db.nextSV = 2
	}
	// The attached image IS a checkpoint: seal immediately so nothing —
	// including WAL replay below — overwrites its pages in place.
	db.ckptSealed = true
	db.tree.Seal()
	// The crashed run's ledger died with it. What the checkpoint left
	// allocated but its image does not reach — pages the run's snapshots
	// pinned at the cut — is dead now: seed the ledger with it, before
	// replay adds what it retires.
	reachable := make(map[store.PageID]bool, len(reach))
	for _, id := range reach {
		reachable[id] = true
	}
	for _, id := range fd.AliveList() {
		if !reachable[id] {
			db.ckptDead = append(db.ckptDead, id)
		}
	}
	wal, recs, err := readWAL(opts)
	if err == nil {
		// Startup housekeeping: sweep side files a crash orphaned — staging
		// leftovers and policies snapshots other than the committed one.
		sweepCheckpointOrphans(opts, polName)
		err = db.replayWAL(wal, recs)
	}
	if err != nil {
		db.fileDisk.Close()
		return nil, err
	}
	return db, nil
}

// checkpointPolicies loads the policy store a checkpoint pairs with, and
// returns the path of its file: an empty store and no file when the meta
// says the store is borrowed.
func checkpointPolicies(opts Options, mf metaFile) (*policy.Store, string, error) {
	if mf.BorrowedPolicies {
		space := Region{MaxX: opts.SpaceSide, MaxY: opts.SpaceSide}
		ps, err := policy.NewStore(space, opts.DayLength)
		return ps, "", err
	}
	if mf.Policies == "" {
		return nil, "", corruptf("checkpoint meta names no policies snapshot")
	}
	// Side files always live beside the index; taking the base name keeps a
	// meta from naming a path outside the directory.
	polName := filepath.Join(filepath.Dir(opts.Path), filepath.Base(mf.Policies))
	pf, err := opts.FS.ReadFile(polName)
	if err != nil {
		return nil, "", corruptf("read checkpoint policies: %v", err)
	}
	policies, err := policy.Load(bytes.NewReader(pf))
	if err != nil {
		return nil, "", corruptf("parse checkpoint policies: %w", err)
	}
	return policies, polName, nil
}

// openFromWALOnly recovers a durable DB that crashed before its first
// checkpoint: once the log has been read, the page file — it holds no
// committed image — is discarded and the log replayed from an empty index.
func openFromWALOnly(opts Options) (*DB, error) {
	wal, recs, err := readWAL(opts)
	if err != nil {
		return nil, err
	}
	if err := opts.FS.Remove(opts.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		wal.Close()
		return nil, fmt.Errorf("peb: discard uncheckpointed pages: %w", err)
	}
	// No checkpoint ever committed, so any policies or meta staging file
	// in the namespace is an orphan of a checkpoint that never published.
	sweepCheckpointOrphans(opts, "")

	fresh := opts
	// The log is open already (openFresh would refuse the non-empty one).
	fresh.Durability = DurabilityNone
	db, err := openFresh(fresh)
	if err != nil {
		wal.Close()
		return nil, err
	}
	db.opts = opts
	if err := db.replayWAL(wal, recs); err != nil {
		db.fileDisk.Close()
		return nil, err
	}
	return db, nil
}

// readWAL opens the log beside opts.Path and decodes every record in it
// (no log when there is none and the DB is not durable). A single-file log
// or a record of another generation fails here, which is why both open
// paths call it before they write.
func readWAL(opts Options) (*store.SegmentedWAL, []walRecord, error) {
	hasWAL, err := store.SegmentedWALExists(opts.FS, opts.Path+".wal")
	if err != nil {
		return nil, nil, fmt.Errorf("peb: probe wal: %w", err)
	}
	if !hasWAL && opts.Durability == DurabilityNone {
		return nil, nil, nil
	}
	wal, frames, err := store.OpenSegmentedWAL(opts.FS, opts.Path+".wal", opts.WALSegmentBytes)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]walRecord, len(frames))
	for i, payload := range frames {
		if recs[i], err = decodeRecord(payload); err != nil {
			wal.Close()
			return nil, nil, corruptf("wal record %d: %w", i, err)
		}
	}
	return wal, recs, nil
}

// replayWAL replays every record of recs newer than db.walSeq (the
// checkpoint's horizon; zero without one), keeps the parts of every
// coordinator record among all of them for Coordinated, and — when the DB
// is durable — installs wal, which it owns, for subsequent commits. A
// non-durable reopen replays too (committed data must not be dropped) and
// then leaves the log in place: the replayed state exists only in memory,
// so the old checkpoint plus the old log remain its sole durable
// description. The log stays inert — every record's Seq is ≤ the restored
// walSeq, so a future Checkpoint's WalSeq covers it (Checkpoint then
// removes it) and a re-recovery before that reproduces this same state.
func (db *DB) replayWAL(wal *store.SegmentedWAL, recs []walRecord) error {
	if wal == nil {
		return nil
	}
	afterSeq, replayed := db.walSeq, 0
	for i := range recs {
		rec := &recs[i]
		// Records the checkpoint covers raise the watermark and report
		// their parts too: a held coordinator record outlives the
		// checkpoint that covers it.
		db.maxTxn = max(db.maxTxn, rec.TxnID)
		for _, part := range rec.Parts {
			db.coordinated = append(db.coordinated, &Prepared{txnID: rec.TxnID, part: part})
		}
		if rec.Seq <= db.walSeq {
			continue
		}
		if err := db.replayRecord(*rec); err != nil {
			wal.Close()
			return fmt.Errorf("peb: replay wal record %d: %w", rec.Seq, err)
		}
		replayed++
	}
	db.refreshView()
	db.collectGarbage()
	db.events.Record("recovery", "write-ahead log replayed",
		"records", len(recs), "replayed", replayed, "after_seq", afterSeq,
		"coordinated_parts", len(db.coordinated), "commit_seq", db.walSeq)
	if db.opts.Durability == DurabilityNone {
		return wal.Close()
	}
	db.wal = wal
	return nil
}

// coreConfig derives the index configuration from the options.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	grid := cfg.Base.Grid
	grid.Side = o.SpaceSide
	cfg.Base.Grid = grid
	cfg.Base.MaxSpeed = o.MaxSpeed
	cfg.Base.DeltaTmu = o.MaxUpdateInterval
	return cfg
}
