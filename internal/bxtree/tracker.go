package bxtree

import (
	"math"
	"sort"

	"repro/internal/motion"
)

// PartitionRef identifies one active index partition at query time.
type PartitionRef struct {
	TID uint64  // partition id (the key's TID component)
	Gap float64 // |tq − tlab|, the window-enlargement time gap
}

// PartitionTracker records which label timestamp each object is stored
// under, so query processing can visit exactly the partitions that hold
// objects. It is shared by the Bx-tree and the PEB-tree (internal/core),
// whose keys differ only below the TID component.
type PartitionTracker struct {
	cfg        Config
	objLabel   map[motion.UserID]int64
	labelCount map[int64]int
}

// NewPartitionTracker returns an empty tracker for cfg's label layout.
func NewPartitionTracker(cfg Config) *PartitionTracker {
	return &PartitionTracker{
		cfg:        cfg,
		objLabel:   make(map[motion.UserID]int64),
		labelCount: make(map[int64]int),
	}
}

// Set records that uid is now stored under label index li, replacing any
// previous label.
func (pt *PartitionTracker) Set(uid motion.UserID, li int64) {
	if old, ok := pt.objLabel[uid]; ok {
		pt.dec(old)
	}
	pt.objLabel[uid] = li
	pt.labelCount[li]++
}

// Remove forgets uid. Removing an untracked uid is a no-op.
func (pt *PartitionTracker) Remove(uid motion.UserID) {
	if old, ok := pt.objLabel[uid]; ok {
		pt.dec(old)
		delete(pt.objLabel, uid)
	}
}

// Clone returns an independent deep copy of the tracker. Pinned snapshots
// use it to keep a stable partition picture while the original mutates.
func (pt *PartitionTracker) Clone() *PartitionTracker {
	c := &PartitionTracker{
		cfg:        pt.cfg,
		objLabel:   make(map[motion.UserID]int64, len(pt.objLabel)),
		labelCount: make(map[int64]int, len(pt.labelCount)),
	}
	for uid, li := range pt.objLabel {
		c.objLabel[uid] = li
	}
	for li, n := range pt.labelCount {
		c.labelCount[li] = n
	}
	return c
}

// Label returns uid's current label index.
func (pt *PartitionTracker) Label(uid motion.UserID) (int64, bool) {
	li, ok := pt.objLabel[uid]
	return li, ok
}

// Size returns the number of tracked objects.
func (pt *PartitionTracker) Size() int { return len(pt.objLabel) }

// LabelCount returns the number of distinct active label timestamps.
func (pt *PartitionTracker) LabelCount() int { return len(pt.labelCount) }

func (pt *PartitionTracker) dec(li int64) {
	pt.labelCount[li]--
	if pt.labelCount[li] == 0 {
		delete(pt.labelCount, li)
	}
}

// UpdateGap returns the largest |tq − T| over the update times T the live
// labels can hold: an update at T is stored under label index
// li = LabelIndex(T), so (li−2)·d < T ≤ (li−1)·d for the label duration d,
// and the labels' intervals reach from the lowest live label's to the
// highest's. Zero when no label is live.
func (pt *PartitionTracker) UpdateGap(tq float64) float64 {
	if len(pt.labelCount) == 0 {
		return 0
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for li := range pt.labelCount {
		lo, hi = min(lo, li), max(hi, li)
	}
	d := pt.cfg.LabelDuration()
	return max(math.Abs(tq-float64(lo-2)*d), math.Abs(tq-float64(hi-1)*d))
}

// Active returns one entry per label timestamp currently holding objects,
// sorted by label, each with its partition id and the absolute time gap to
// tq used for window enlargement. Labels aliasing to the same partition
// (possible only if updates overrun ∆tmu) are merged under the larger gap
// so each partition is scanned once with a safe enlargement.
func (pt *PartitionTracker) Active(tq float64) []PartitionRef {
	labels := make([]int64, 0, len(pt.labelCount))
	for li := range pt.labelCount {
		labels = append(labels, li)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	byTID := make(map[uint64]int, len(labels))
	var out []PartitionRef
	for _, li := range labels {
		gap := pt.cfg.LabelTime(li) - tq
		if gap < 0 {
			gap = -gap
		}
		tid := pt.cfg.PartitionOf(li)
		if i, ok := byTID[tid]; ok {
			if gap > out[i].Gap {
				out[i].Gap = gap
			}
			continue
		}
		byTID[tid] = len(out)
		out = append(out, PartitionRef{TID: tid, Gap: gap})
	}
	return out
}
