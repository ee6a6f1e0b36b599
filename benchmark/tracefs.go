package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// fileKind classifies a file of a peb or peb/sharded directory.
type fileKind int

const (
	kindWAL  fileKind = iota // a write-ahead-log segment, <Path>.wal.NNNNNN
	kindPage                 // the page file, peb.idx or *.idx
	kindSide                 // checkpoint side files, the manifest, txn.log
	numKinds
)

var kindNames = [numKinds]string{"wal", "page", "side"}

func kindOf(name string) fileKind {
	base := filepath.Base(name)
	switch {
	case strings.Contains(base, ".wal."):
		return kindWAL
	case strings.HasSuffix(base, ".idx"):
		return kindPage
	default:
		return kindSide
	}
}

// deviceCounts is one file kind's device traffic.
type deviceCounts struct {
	writes, writeBytes, syncs, reads atomic.Uint64
}

// traceFS is the benchmark's store.VFS: the operating system's, with every
// WriteAt, Sync and ReadAt counted per file kind and, while the recorder is
// on, recorded as a store.device.<kind>.<op> span. Passed as
// peb.Options.FS, it observes the device boundary without touching the
// engine.
type traceFS struct {
	store.OSFS
	rec    *recorder
	counts [numKinds]deviceCounts
}

// OpenFile creates the parent directory first: sharded.Open only does so
// itself for store.OSFS.
func (t *traceFS) OpenFile(name string) (store.VFile, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := t.OSFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	k := kindOf(name)
	prefix := "store.device." + kindNames[k] + "."
	return &traceFile{VFile: f, fs: t, kind: k,
		writeSpan: prefix + "write", readSpan: prefix + "read", syncSpan: prefix + "sync"}, nil
}

// deviceTotals is a snapshot of traceFS counters summed over file kinds.
type deviceTotals struct{ writes, writeBytes, syncs, reads uint64 }

func (t *traceFS) totals() deviceTotals {
	var d deviceTotals
	for k := range t.counts {
		c := &t.counts[k]
		d.writes += c.writes.Load()
		d.writeBytes += c.writeBytes.Load()
		d.syncs += c.syncs.Load()
		d.reads += c.reads.Load()
	}
	return d
}

func (d deviceTotals) sub(o deviceTotals) deviceTotals {
	return deviceTotals{d.writes - o.writes, d.writeBytes - o.writeBytes, d.syncs - o.syncs, d.reads - o.reads}
}

type traceFile struct {
	store.VFile
	fs   *traceFS
	kind fileKind

	writeSpan, readSpan, syncSpan string
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.VFile.WriteAt(p, off)
	c := &f.fs.counts[f.kind]
	c.writes.Add(1)
	c.writeBytes.Add(uint64(n))
	f.fs.rec.device(f.writeSpan, start)
	return n, err
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.VFile.ReadAt(p, off)
	f.fs.counts[f.kind].reads.Add(1)
	f.fs.rec.device(f.readSpan, start)
	return n, err
}

func (f *traceFile) Sync() error {
	start := time.Now()
	err := f.VFile.Sync()
	f.fs.counts[f.kind].syncs.Add(1)
	f.fs.rec.device(f.syncSpan, start)
	return err
}
