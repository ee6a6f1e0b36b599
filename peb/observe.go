package peb

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Observability. Every DB carries a metrics registry and a bounded event
// log, always on: the hot-path instruments (commit and query latency
// histograms, WAL append/fsync timings) record with zero allocations, so
// there is no enablement knob to forget. The registry is scraped through
// peb/obs.Handler (Prometheus text at /metrics, JSON at /statusz); the
// event log records maintainer decisions — checkpoints, recovery, 2PC
// verdicts — and mirrors them to Options.Logger when set.

// dbMetrics holds the DB's registered hot-path instruments. Registration
// happens once in initObs; recording is lock-free atomic adds.
type dbMetrics struct {
	reg         *obs.Registry
	commit      *obs.Histogram // peb_commit_seconds
	prq         *obs.Histogram // peb_query_seconds{op="prq"}
	pknn        *obs.Histogram // peb_query_seconds{op="pknn"}
	walAppend   *obs.Histogram // peb_wal_append_seconds
	walFsync    *obs.Histogram // peb_wal_fsync_seconds
	walGroup    *obs.Histogram // peb_wal_fsync_records
	ckptCut     *obs.Histogram // peb_checkpoint_cut_seconds
	ckptBuild   *obs.Histogram // peb_checkpoint_build_seconds
	ckptPublish *obs.Histogram // peb_checkpoint_publish_seconds
	cqDelta     *obs.Histogram // peb_cq_commit_delta_seconds
}

// initObs builds the DB's registry and event log. Called during
// construction, before any commit can run.
func (db *DB) initObs() {
	var cl []obs.Label
	if db.opts.MetricsLabel != "" {
		cl = append(cl, obs.Label{Key: "shard", Value: db.opts.MetricsLabel})
	}
	reg := obs.NewRegistry(cl...)
	m := &db.met
	m.reg = reg
	m.commit = reg.Histogram("peb_commit_seconds",
		"Commit latency of write operations, through WAL append and fsync.", 1e-9)
	m.prq = reg.Histogram("peb_query_seconds",
		"One-shot query latency on the published view.", 1e-9, obs.Label{Key: "op", Value: "prq"})
	m.pknn = reg.Histogram("peb_query_seconds",
		"One-shot query latency on the published view.", 1e-9, obs.Label{Key: "op", Value: "pknn"})
	m.walAppend = reg.Histogram("peb_wal_append_seconds",
		"Write-ahead-log append duration (framing + write).", 1e-9)
	m.walFsync = reg.Histogram("peb_wal_fsync_seconds",
		"Write-ahead-log fsync duration per group commit.", 1e-9)
	m.walGroup = reg.Histogram("peb_wal_fsync_records",
		"Records made durable per fsync (group-commit batch size).", 1)
	m.ckptCut = reg.Histogram("peb_checkpoint_cut_seconds",
		"Checkpoint cut-phase duration (write lock held).", 1e-9)
	m.ckptBuild = reg.Histogram("peb_checkpoint_build_seconds",
		"Checkpoint build-phase duration (no write lock).", 1e-9)
	m.ckptPublish = reg.Histogram("peb_checkpoint_publish_seconds",
		"Checkpoint publish-phase duration (write lock held).", 1e-9)
	m.cqDelta = reg.Histogram("peb_cq_commit_delta_seconds",
		"Commit-to-delta latency of continuous-query evaluation.", 1e-9)
	db.events = obs.NewEventLog(obs.DefaultEventLogSize, db.opts.Logger)
	reg.Collect(db.collectMetrics)
}

// observeWAL attaches the WAL's instruments. Called wherever a log is
// opened (fresh open and both recovery paths), before concurrent commits.
func (db *DB) observeWAL() {
	if db.wal == nil {
		return
	}
	db.wal.Observe(store.WALObserver{
		AppendNanos:  db.met.walAppend,
		FsyncNanos:   db.met.walFsync,
		FsyncRecords: db.met.walGroup,
	})
}

// collectMetrics emits the pull-based series at scrape time, reading the
// same counters the Stats() structs expose — no double bookkeeping on the
// hot paths. It takes the DB's read lock briefly per stats read; scrapes
// are rare, so this never contends measurably.
func (db *DB) collectMetrics(e *obs.Emit) {
	ws := db.WALStats()
	e.Counter("peb_wal_appends_total", "WAL records appended since open.", float64(ws.Appends))
	e.Counter("peb_wal_syncs_total", "WAL fsyncs performed since open.", float64(ws.Syncs))
	e.Counter("peb_wal_bytes_appended_total", "Framed WAL bytes written since open.", float64(ws.BytesAppended))
	e.Counter("peb_wal_segments_sealed_total", "WAL segments sealed since open.", float64(ws.SegmentsSealed))
	e.Counter("peb_wal_segments_removed_total", "Sealed WAL segments deleted by checkpoints.", float64(ws.SegmentsRemoved))
	e.Gauge("peb_wal_size_bytes", "Live write-ahead-log size.", float64(db.walSizeBytes()))

	cs := db.CheckpointStats()
	e.Counter("peb_checkpoints_total", "Checkpoints committed since open.", float64(cs.Checkpoints))
	e.Counter("peb_checkpoints_auto_total", "Checkpoints triggered by the AutoCheckpoint maintainer.", float64(cs.AutoTriggered))
	e.Counter("peb_checkpoint_pages_flushed_total", "Pages flushed by checkpoint builds.", float64(cs.PagesFlushed))
	e.Counter("peb_checkpoint_pages_reclaimed_total", "Dead pages reclaimed by checkpoints.", float64(cs.PagesReclaimed))
	e.Counter("peb_checkpoint_wal_bytes_truncated_total", "WAL bytes released by checkpoint publication.", float64(cs.WALBytesTruncated))

	io := db.IOStats()
	e.Counter("peb_buffer_hits_total", "Buffer-pool hits.", float64(io.Hits))
	e.Counter("peb_buffer_misses_total", "Buffer-pool misses (page reads from disk).", float64(io.Misses))
	if acc := io.Accesses(); acc > 0 {
		e.Gauge("peb_buffer_hit_ratio", "Buffer-pool hit ratio since the last stats reset.", float64(io.Hits)/float64(acc))
	}

	e.Counter("peb_commit_seq", "WAL sequence number of the latest commit.", float64(db.CommitSeq()))
	e.Counter("peb_view_swaps_total", "Query-view republishes since open.", float64(db.ViewSwaps()))
	e.Gauge("peb_size", "Indexed population.", float64(db.Size()))
	e.Counter("peb_events_total", "Events recorded since open (the ring retains the tail).", float64(db.events.Total()))
}

// walSizeBytes returns the live log size (0 without durability).
func (db *DB) walSizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// Metrics returns the DB's metrics registry. peb/obs.Handler scrapes it;
// subsystems layered on the DB (peb/cq) register their own series here so
// one endpoint exports the whole engine.
func (db *DB) Metrics() *obs.Registry { return db.met.reg }

// Events returns the DB's bounded event log: maintainer decisions
// (checkpoints, recovery, transaction verdicts) with their inputs, newest
// retained.
func (db *DB) Events() *obs.EventLog { return db.events }

// CQDeltaHistogram returns the pre-registered commit-to-delta latency
// histogram the continuous-query engine feeds (peb/cq).
func (db *DB) CQDeltaHistogram() *obs.Histogram { return db.met.cqDelta }
