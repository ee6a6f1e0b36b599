package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/workload"
	"repro/peb"
	"repro/peb/sharded"
)

// env is one run's configuration.
type env struct {
	seed   int64
	sz     sizes
	window time.Duration
	// dir is scratch space for file-backed targets; the caller removes it.
	dir string
	// rec and fs are nil on plain runs.
	rec  *recorder
	fs   *traceFS
	logf func(format string, args ...any)
}

func (e *env) traced() bool { return e.rec != nil }

// options returns the engine options common to every target: the dataset's
// space and speed bound, the given buffer size and, on traced runs, the
// device wrapper and the commit-hook timestamp.
func (e *env) options(bufferPages int) peb.Options {
	o := peb.Options{
		SpaceSide:   spaceSide,
		MaxSpeed:    workload.DefaultMaxSpeed,
		DayLength:   workload.DefaultDayLen,
		BufferPages: bufferPages,
	}
	if e.traced() {
		o.FS = e.fs
		o.OnCommit = func(peb.CommitInfo, *peb.CommitView) { e.rec.hook() }
	}
	return o
}

// stager is the staging surface peb.Batch and sharded.Batch share.
type stager interface {
	DefineRelation(owner, peer peb.UserID, role peb.Role)
	Grant(owner peb.UserID, role peb.Role, locr peb.Region, tint peb.TimeInterval)
	Upsert(o peb.Object)
	Len() int
}

// populate brings an empty target to the world's state through its public
// write path: every policy in one batch, the offline encoding, then the
// objects in batches of 1000.
func populate[B stager](w *world, newBatch func() B, apply func(B) error, encode func() error) error {
	b := newBatch()
	for _, g := range w.grants {
		b.DefineRelation(g.owner, g.viewer, g.p.Role)
		b.Grant(g.owner, g.p.Role, g.p.Locr, g.p.Tint)
	}
	if err := apply(b); err != nil {
		return fmt.Errorf("load policies: %w", err)
	}
	if err := encode(); err != nil {
		return fmt.Errorf("encode policies: %w", err)
	}
	b = newBatch()
	for i, o := range w.model {
		b.Upsert(o)
		if b.Len() == 1000 || i == len(w.model)-1 {
			if err := apply(b); err != nil {
				return fmt.Errorf("bulk load: %w", err)
			}
			b = newBatch()
		}
	}
	return nil
}

// openPeb opens a peb.DB with opts and populates it.
func openPeb(w *world, opts peb.Options) (*peb.DB, error) {
	db, err := peb.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := populate(w, db.NewBatch, db.Apply, db.EncodePolicies); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// openDurablePeb builds a file-backed peb.DB under dir: populated without
// a log, checkpointed, closed, and reopened with DurabilitySync, so the
// log holds only what the measurement commits.
func openDurablePeb(w *world, dir string, opts peb.Options) (*peb.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts.Path = filepath.Join(dir, "peb.idx")
	db, err := openPeb(w, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	opts.Durability = peb.DurabilitySync
	return peb.Open(opts)
}

// buildSharded creates a sharded.DB under dir, populates it, checkpoints
// and closes it. It loads without a log: openSharded attaches one.
func buildSharded(w *world, dir string, shards int, opts peb.Options) error {
	opts.Durability, opts.AutoCheckpoint = peb.DurabilityNone, peb.AutoCheckpointPolicy{}
	// sharded.Open creates its directories only on store.OSFS; under
	// traceFS they must exist already.
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), 0o755); err != nil {
			return err
		}
	}
	db, err := sharded.Open(sharded.Options{Shards: shards, Dir: dir, DB: opts})
	if err != nil {
		return err
	}
	if err := populate(w, db.NewBatch, db.Apply, db.EncodePolicies); err != nil {
		db.Close()
		return err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// openSharded reopens the directory buildSharded left, with opts as the
// per-shard options plus DurabilitySync: the flush policy of every durable
// workload, and the only way to reopen at all, since without durability
// sharded.Open starts every shard fresh.
func openSharded(dir string, opts peb.Options) (*sharded.DB, error) {
	opts.Durability = peb.DurabilitySync
	return sharded.Open(sharded.Options{Dir: dir, DB: opts})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
