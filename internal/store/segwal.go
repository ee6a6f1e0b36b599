package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// Segmented write-ahead log.
//
// The log is an append-only sequence of length-prefixed, CRC-checksummed
// records. Callers append a record per committed logical batch and then
// wait for the record to become durable (Commit); on restart,
// OpenSegmentedWAL returns exactly the durable prefix — a torn or corrupt
// tail (the record being appended when power was lost) is detected by the
// checksum and cut off.
//
// Record framing:
//
//	[4 bytes] payload length (big endian)
//	[4 bytes] CRC-32 (Castagnoli) of the payload
//	[n bytes] payload (opaque to the log)
//
// Group commit: Append only buffers the record in the file; Commit makes it
// durable according to the sync policy. Under WALSyncAlways the first
// committer becomes the sync leader and fsyncs everything appended so far,
// so concurrent commits share one fsync (the classic group commit).
// WALSyncGrouped adds a short gathering window before the leader syncs,
// trading commit latency for fewer fsyncs under load. WALSyncNone never
// syncs on commit — the OS (or the next seal/Close) flushes — so a crash
// may lose a suffix of acknowledged commits, but recovery still sees a
// clean committed prefix.
//
// Error handling is strict: after any write or sync failure the log is
// poisoned and every subsequent Append/Commit fails. A log that may have a
// hole must never accept later records, or recovery would silently skip
// committed work.
//
// The records live in a sequence of numbered segment files:
//
//	<path>.000001   sealed — full, fsynced, never written again
//	<path>.000002   sealed
//	<path>.000003   active — appends go here
//
// A segment that grows past the roll threshold is sealed: it is fsynced
// one final time and the next numbered segment becomes the active one.
// Because sealing always fsyncs — under every sync policy — a sealed
// segment is durable in its entirety, which buys two structural
// guarantees:
//
//   - a group-commit leader advances the global durability watermark
//     after fsyncing only the active file (bytes it did not cover live in
//     sealed segments, which are durable already);
//   - recovery may treat a torn tail in any non-final segment as
//     corruption: torn tails can only form in the segment that was
//     active at the crash, which is by construction the highest-numbered
//     one that survived.
//
// Checkpoint truncation is deletion: DropThrough removes the sealed
// segments a checkpoint's cut mark covers entirely and never rewrites a
// byte. Records the mark covers only partially stay in place; recovery
// skips them by sequence number, so correctness never depends on their
// removal.
//
// Sealed segments are also the log's replication unit: a follower can
// read sealed files without coordination (their content is frozen) and
// tail the active one, trusting the CRC framing to stop at a frame that
// is still being written. Logical offsets (WALToken, the durability
// watermark) run monotonically across segments and never reset.

// WALSyncPolicy selects how Commit waits for durability.
type WALSyncPolicy int

const (
	// WALSyncAlways fsyncs before Commit returns; concurrent commits share
	// a single fsync opportunistically.
	WALSyncAlways WALSyncPolicy = iota
	// WALSyncGrouped is WALSyncAlways plus a short gathering window, so
	// even lightly concurrent committers amortize one fsync.
	WALSyncGrouped
	// WALSyncNone returns from Commit without syncing. Durability is
	// deferred to the OS, Sync, a seal, or Close.
	WALSyncNone
)

// DefaultGroupWindow is the gathering delay of WALSyncGrouped.
const DefaultGroupWindow = 500 * time.Microsecond

// walMaxRecord bounds a record's payload, rejecting absurd lengths that a
// corrupt header would otherwise turn into huge allocations.
const walMaxRecord = 64 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WALToken identifies an appended record for Commit. The zero token is
// never returned by Append and commits trivially.
type WALToken int64

// DefaultWALSegmentBytes is the roll threshold used when the caller does
// not specify one.
const DefaultWALSegmentBytes = 4 << 20

// SegPos addresses a byte position in a segmented log: a 1-based segment
// index and a byte offset inside that segment. Checkpoints capture one at
// their cut (Mark) and pass it to DropThrough at their publish.
type SegPos struct {
	Seg uint64
	Off int64
}

// Less orders positions (segment-major).
func (p SegPos) Less(q SegPos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// segInfo is one sealed segment's bookkeeping.
type segInfo struct {
	idx  uint64
	base int64 // logical offset of the segment's first byte
	size int64
}

// SegmentedWAL is an append-only commit log over numbered segment files.
// All methods are safe for concurrent use.
type SegmentedWAL struct {
	fs       VFS
	path     string
	policy   WALSyncPolicy
	window   time.Duration
	rollSize int64

	// mu guards the active handle, offsets, and the sealed-segment list.
	mu        sync.Mutex
	f         VFile // active segment
	activeIdx uint64
	activeOff int64
	base      int64 // logical offset of the active segment's first byte
	sealed    []segInfo
	err       error // poisoned: every later Append/Commit fails

	// Group-commit state. Lock ordering: sm may acquire mu, never the
	// reverse — appenders release mu before touching sm, the sync leader
	// releases sm before taking mu.
	sm      sync.Mutex
	sc      *sync.Cond
	syncing bool
	synced  int64 // logical offset made durable

	// frame is the reusable append scratch buffer (guarded by mu): header
	// and payload are assembled here for the single WriteAt, so a
	// steady-state append allocates nothing once the buffer has grown to
	// the workload's record size.
	frame []byte

	appends atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64
	// sealedN/removedN count segment lifecycle events since open: rolls
	// that sealed an active segment, and sealed segments DropThrough
	// deleted.
	sealedN  atomic.Uint64
	removedN atomic.Uint64

	// obs holds the owner's latency histograms (nil fields record
	// nothing). Set once via Observe before the log sees concurrent use.
	// lastSyncApps tracks the append count at the previous durability
	// advance (guarded by sm), so each fsync can report its group size.
	obs          WALObserver
	lastSyncApps uint64
}

// WALObserver carries the instruments a SegmentedWAL feeds: per-append
// write duration, per-group fsync duration, and records made durable per
// fsync (the group-commit batch size). All fields are optional; recording
// on the histograms is zero-alloc, so the hot paths carry them at full
// speed.
type WALObserver struct {
	AppendNanos  *obs.Histogram
	FsyncNanos   *obs.Histogram
	FsyncRecords *obs.Histogram
}

// Observe attaches the observer. Call before the log sees concurrent
// appends (peb wires it during open); it is not synchronized against
// in-flight operations.
func (w *SegmentedWAL) Observe(o WALObserver) { w.obs = o }

// SegmentWALName returns the file name of segment idx of the log at path.
func SegmentWALName(path string, idx uint64) string {
	return fmt.Sprintf("%s.%06d", path, idx)
}

// parseSegmentIndex extracts the index from a segment file name, or 0.
func parseSegmentIndex(path, name string) uint64 {
	rest, ok := strings.CutPrefix(name, path+".")
	if !ok || len(rest) < 6 {
		return 0
	}
	idx, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0
	}
	return idx
}

// ListWALSegments returns the indices of the log's segment files at path,
// sorted ascending.
func ListWALSegments(fs VFS, path string) ([]uint64, error) {
	names, err := fs.ListDir(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, name := range names {
		if idx := parseSegmentIndex(path, name); idx > 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// SegmentedWALExists reports whether a log exists at path: any numbered
// segment, or a file at the bare path itself — which is no segment of this
// format, but must reach OpenSegmentedWAL to be refused rather than be
// mistaken for "no log here".
func SegmentedWALExists(fs VFS, path string) (bool, error) {
	if ok, err := fs.Exists(path); err != nil || ok {
		return ok, err
	}
	idxs, err := ListWALSegments(fs, path)
	return len(idxs) > 0, err
}

// RemoveSegmentedWAL deletes every segment of the log at path. Best
// effort: the first error is returned but the sweep continues.
func RemoveSegmentedWAL(fs VFS, path string) error {
	idxs, err := ListWALSegments(fs, path)
	if err != nil {
		return err
	}
	var firstErr error
	for _, idx := range idxs {
		if err := fs.Remove(SegmentWALName(path, idx)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// OpenSegmentedWAL opens (creating if needed) the segmented log at path
// and scans it: the returned records are the durable committed prefix
// across all segments, in append order. A torn or corrupt tail in the
// final segment is truncated away; an invalid tail in any earlier
// (sealed) segment is corruption and fails the open.
//
// A file at the bare path is not part of this format (logs once lived in
// one file there): the open refuses it with codec.ErrUnsupportedFormat
// before touching anything.
//
// rollSize is the seal threshold; <= 0 selects DefaultWALSegmentBytes.
func OpenSegmentedWAL(fs VFS, path string, policy WALSyncPolicy, rollSize int64) (*SegmentedWAL, [][]byte, error) {
	if rollSize <= 0 {
		rollSize = DefaultWALSegmentBytes
	}
	if ok, err := fs.Exists(path); err != nil {
		return nil, nil, fmt.Errorf("store: probe %s: %w", path, err)
	} else if ok {
		return nil, nil, fmt.Errorf("store: %w: %s is a single-file log, not a segment", codec.ErrUnsupportedFormat, path)
	}
	idxs, err := ListWALSegments(fs, path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list wal segments: %w", err)
	}
	if len(idxs) == 0 {
		idxs = []uint64{1}
	}

	w := &SegmentedWAL{fs: fs, path: path, policy: policy, window: DefaultGroupWindow, rollSize: rollSize}
	w.sc = sync.NewCond(&w.sm)

	var records [][]byte
	for i, idx := range idxs {
		last := i == len(idxs)-1
		name := SegmentWALName(path, idx)
		f, err := fs.OpenFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("store: open wal segment %s: %w", name, err)
		}
		size, err := f.Size()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: stat wal segment %s: %w", name, err)
		}
		var data []byte
		if size > 0 {
			data = make([]byte, size)
			if _, err := f.ReadAt(data, 0); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("store: read wal segment %s: %w", name, err)
			}
		}
		segRecords, valid := scanWAL(data)
		if int64(valid) < size && !last {
			// Sealing fsyncs before the next segment is created, so only
			// the final segment can carry a torn tail (see type comment).
			f.Close()
			return nil, nil, fmt.Errorf("store: wal segment %s has an invalid tail but is not the last segment", name)
		}
		records = append(records, segRecords...)
		if !last {
			f.Close()
			w.sealed = append(w.sealed, segInfo{idx: idx, base: w.base, size: int64(valid)})
			w.base += int64(valid)
			continue
		}
		if int64(valid) < size {
			if err := f.Truncate(int64(valid)); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("store: drop torn wal tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("store: sync truncated wal: %w", err)
			}
		}
		w.f = f
		w.activeIdx = idx
		w.activeOff = int64(valid)
	}
	w.synced = w.base + w.activeOff
	return w, records, nil
}

// ScanWALFrames parses the CRC-framed records at the front of data,
// returning the payloads and the number of framed bytes consumed. It is
// the tailing primitive replicas read segments with: a torn or in-flight
// frame simply ends the scan (consumed < len(data)), and the caller
// re-reads once more bytes land.
func ScanWALFrames(data []byte) ([][]byte, int) {
	return scanWAL(data)
}

// scanWAL walks the framing and returns the valid records plus the byte
// length of the valid prefix. A zero length is treated as tail garbage,
// not an empty record: an all-zero header would otherwise self-validate
// (the CRC-32C of an empty payload is 0), and a crashed filesystem often
// leaves exactly that — a file extended with zeros before the data
// reached disk. Append enforces the matching non-empty invariant.
func scanWAL(data []byte) ([][]byte, int) {
	var records [][]byte
	off := 0
	for {
		if off+8 > len(data) {
			return records, off
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if n == 0 || n > walMaxRecord || off+8+n > len(data) {
			return records, off
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, walCRC) != crc {
			return records, off
		}
		records = append(records, append([]byte(nil), payload...))
		off += 8 + n
	}
}

// Poison permanently disables the log with err: every subsequent Append
// and Commit fails. Owners call it when they applied a mutation but could
// not produce its record — the log now has a hole, and fail-stop is the
// only state that cannot silently lose the unlogged commit on recovery.
func (w *SegmentedWAL) Poison(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = fmt.Errorf("store: wal poisoned: %w", err)
	}
}

// Stats returns the number of records appended and fsyncs performed since
// open (seal fsyncs included).
func (w *SegmentedWAL) Stats() (appends, syncs uint64) {
	return w.appends.Load(), w.syncs.Load()
}

// SegmentStats returns the number of segments sealed and removed since
// open.
func (w *SegmentedWAL) SegmentStats() (sealed, removed uint64) {
	return w.sealedN.Load(), w.removedN.Load()
}

// BytesAppended returns the framed bytes appended since open. Segment
// removal does not reset it: it measures write volume, not file size.
func (w *SegmentedWAL) BytesAppended() uint64 {
	return w.bytes.Load()
}

// Append buffers one record at the log's tail, sealing and rolling the
// active segment first if it has reached the threshold. The returned
// token is the logical end offset, for Commit. On any error the log is
// poisoned.
func (w *SegmentedWAL) Append(payload []byte) (WALToken, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var start time.Time
	if w.obs.AppendNanos != nil {
		start = time.Now()
	}
	if w.err != nil {
		return 0, w.err
	}
	// Validation failures poison too: callers apply state before logging,
	// so ANY record this log fails to take leaves the log with a hole.
	if len(payload) == 0 {
		// Empty records are indistinguishable from a zero-filled torn
		// tail (see scanWAL) and would be dropped by recovery.
		w.err = fmt.Errorf("store: wal record must not be empty")
		return 0, w.err
	}
	if len(payload) > walMaxRecord {
		w.err = fmt.Errorf("store: wal record %d bytes exceeds limit", len(payload))
		return 0, w.err
	}
	if w.activeOff >= w.rollSize && w.activeOff > 0 {
		if err := w.rollLocked(); err != nil {
			return 0, err
		}
	}
	if need := 8 + len(payload); cap(w.frame) < need {
		w.frame = make([]byte, need)
	}
	buf := w.frame[:8+len(payload)]
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:], crc32.Checksum(payload, walCRC))
	copy(buf[8:], payload)
	if _, err := w.f.WriteAt(buf, w.activeOff); err != nil {
		w.err = fmt.Errorf("store: wal append: %w", err)
		return 0, w.err
	}
	w.activeOff += int64(len(buf))
	w.appends.Add(1)
	w.bytes.Add(uint64(len(buf)))
	if w.obs.AppendNanos != nil {
		w.obs.AppendNanos.ObserveDuration(time.Since(start))
	}
	return WALToken(w.base + w.activeOff), nil
}

// rollLocked seals the active segment and opens the next one. Caller
// holds mu. The seal fsync runs under every sync policy: sealed segments
// must be durable in full (see the type comment for why both the
// watermark protocol and recovery depend on it).
//
// The durability watermark is NOT advanced here (mu holders never touch
// sm): a commit waiting on a sealed-segment record simply elects a sync
// leader, whose capture of the logical end under mu already covers the
// sealed bytes — its fsync of the new active file completes the claim.
func (w *SegmentedWAL) rollLocked() error {
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("store: wal seal sync: %w", err)
		return w.err
	}
	w.syncs.Add(1)
	next := w.activeIdx + 1
	nf, err := w.fs.OpenFile(SegmentWALName(w.path, next))
	if err != nil {
		w.err = fmt.Errorf("store: wal roll: %w", err)
		return w.err
	}
	w.sealed = append(w.sealed, segInfo{idx: w.activeIdx, base: w.base, size: w.activeOff})
	_ = w.f.Close()
	w.f = nf
	w.base += w.activeOff
	w.activeIdx = next
	w.activeOff = 0
	w.sealedN.Add(1)
	return nil
}

// Seal seals the active segment now, whatever its size, and starts a fresh
// one: every record appended so far then lives in a sealed, fully fsynced
// segment that DropThrough can delete whole. An empty active segment is
// left as it is.
func (w *SegmentedWAL) Seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.activeOff == 0 {
		return nil
	}
	return w.rollLocked()
}

// Commit waits until the record identified by token is durable, per the
// sync policy. Records in removed segments count as durable (the
// checkpoint that removed them made them redundant).
func (w *SegmentedWAL) Commit(token WALToken) error {
	if token == 0 {
		return nil
	}
	if w.policy == WALSyncNone {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.err
	}
	return w.syncTo(int64(token))
}

// Sync forces everything appended so far to disk, regardless of policy.
func (w *SegmentedWAL) Sync() error {
	w.mu.Lock()
	target := w.base + w.activeOff
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.syncTo(target)
}

// syncTo blocks until the logical offset target is durable, electing a
// group-commit leader as needed. The leader fsyncs only the active
// segment, which suffices because every sealed segment was fsynced when it
// was sealed.
func (w *SegmentedWAL) syncTo(target int64) error {
	w.sm.Lock()
	for {
		// Durability first, poison second: a record some earlier fsync
		// already covered is committed, and a failure that poisoned the log
		// afterwards must not retroactively fail it.
		if w.synced >= target {
			w.sm.Unlock()
			return nil
		}
		w.mu.Lock()
		err := w.err
		w.mu.Unlock()
		if err != nil {
			w.sm.Unlock()
			return err
		}
		if !w.syncing {
			break
		}
		w.sc.Wait()
	}
	w.syncing = true
	w.sm.Unlock()

	if w.policy == WALSyncGrouped && w.window > 0 {
		// Gather companions: commits arriving during the window ride this
		// fsync instead of paying their own.
		time.Sleep(w.window)
	}
	// Capture end and handle together under mu: every byte <= end outside
	// the captured file lives in a sealed (already durable) segment, so
	// fsyncing the capture covers the whole claim even if a roll swaps the
	// active file before the fsync runs (the stale capture fsyncs the
	// now-sealed file — harmless).
	w.mu.Lock()
	end := w.base + w.activeOff
	f := w.f
	w.mu.Unlock()
	var fstart time.Time
	if w.obs.FsyncNanos != nil {
		fstart = time.Now()
	}
	serr := f.Sync()
	if serr == nil && w.obs.FsyncNanos != nil {
		w.obs.FsyncNanos.ObserveDuration(time.Since(fstart))
	}

	w.sm.Lock()
	w.syncing = false
	if serr == nil {
		if end > w.synced {
			w.synced = end
		}
		w.syncs.Add(1)
		if w.obs.FsyncRecords != nil {
			// The durability advance covers every record appended since
			// the previous advance — the group this fsync committed.
			a := w.appends.Load()
			w.obs.FsyncRecords.Observe(a - w.lastSyncApps)
			w.lastSyncApps = a
		}
	}
	w.sc.Broadcast()
	w.sm.Unlock()

	if serr != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = fmt.Errorf("store: wal sync: %w", serr)
		}
		err := w.err
		w.mu.Unlock()
		return err
	}
	return nil
}

// Mark returns the log's current append position. A checkpoint captures
// the mark at its cut (while its lock excludes appenders) and passes it
// to DropThrough at its publish, so only segments the checkpoint covers
// entirely are dropped.
func (w *SegmentedWAL) Mark() SegPos {
	w.mu.Lock()
	defer w.mu.Unlock()
	return SegPos{Seg: w.activeIdx, Off: w.activeOff}
}

// DropThrough deletes every sealed segment the mark covers entirely —
// segments below mark.Seg, plus mark.Seg itself when the mark sits at or
// past its end. Nothing is ever rewritten: records in a partially
// covered segment stay where they are (recovery skips them by sequence
// number), and the active segment is never removed. Returns the bytes
// and segment count removed.
//
// Removal is pure space reclamation, so a failed delete does not poison
// the log: the stale segment replays harmlessly and the next checkpoint
// retries. The first error is still reported.
func (w *SegmentedWAL) DropThrough(mark SegPos) (removed int64, segments int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, 0, w.err
	}
	kept := w.sealed[:0]
	for _, s := range w.sealed {
		covered := s.idx < mark.Seg || (s.idx == mark.Seg && mark.Off >= s.size)
		if !covered {
			kept = append(kept, s)
			continue
		}
		if rerr := w.fs.Remove(SegmentWALName(w.path, s.idx)); rerr != nil {
			if err == nil {
				err = fmt.Errorf("store: drop wal segment %06d: %w", s.idx, rerr)
			}
			kept = append(kept, s)
			continue
		}
		removed += s.size
		segments++
		w.removedN.Add(1)
	}
	w.sealed = kept
	return removed, segments, err
}

// Size returns the log's current on-disk length in bytes: the retained
// sealed segments plus the active one. This is what recovery would
// replay, the quantity AutoCheckpoint thresholds measure.
func (w *SegmentedWAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	size := w.activeOff
	for _, s := range w.sealed {
		size += s.size
	}
	return size
}

// Close syncs and closes the log. A clean Close therefore loses nothing
// even under WALSyncNone.
func (w *SegmentedWAL) Close() error {
	serr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	cerr := w.f.Close()
	if w.err == nil {
		w.err = fmt.Errorf("store: wal is closed")
	}
	if serr != nil {
		return serr
	}
	return cerr
}
