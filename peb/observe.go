package peb

import "repro/internal/obs"

// Observability. Every DB carries a metrics registry and a bounded event
// log, always on: the commit-latency histogram records with zero
// allocations, so there is no enablement knob to forget. The registry is
// scraped through peb/obs.Handler (Prometheus text at /metrics, JSON at
// /statusz); the event log records maintainer decisions — checkpoints,
// recovery — and mirrors them to Options.Logger when set.

// dbMetrics holds the DB's registered hot-path instruments. Registration
// happens once in initObs; recording is lock-free atomic adds.
type dbMetrics struct {
	reg    *obs.Registry
	commit *obs.Histogram // peb_commit_seconds
}

// initObs builds the DB's registry and event log. Called during
// construction, before any commit can run.
func (db *DB) initObs() {
	var cl []obs.Label
	if db.opts.MetricsLabel != "" {
		cl = append(cl, obs.Label{Key: "shard", Value: db.opts.MetricsLabel})
	}
	reg := obs.NewRegistry(cl...)
	db.met = dbMetrics{reg: reg, commit: reg.Histogram("peb_commit_seconds",
		"Commit latency of write operations, through WAL append and fsync.", 1e-9)}
	db.events = obs.NewEventLog(obs.DefaultEventLogSize, db.opts.Logger)
	reg.Collect(db.collectMetrics)
}

// collectMetrics emits the pull-based series at scrape time, reading the
// same counters the Stats() structs expose — no double bookkeeping on the
// hot paths. It takes the DB's read lock briefly per stats read; scrapes
// are rare, so this never contends measurably.
func (db *DB) collectMetrics(e *obs.Emit) {
	ws := db.WALStats()
	e.Counter("peb_wal_appends_total", "WAL records appended since open.", float64(ws.Appends))
	e.Counter("peb_wal_syncs_total", "WAL fsyncs performed since open.", float64(ws.Syncs))
	e.Counter("peb_checkpoints_total", "Checkpoints committed since open.", float64(db.CheckpointStats().Checkpoints))
	io := db.IOStats()
	e.Counter("peb_buffer_hits_total", "Buffer-pool hits.", float64(io.Hits))
	e.Counter("peb_buffer_misses_total", "Buffer-pool misses (page reads from disk).", float64(io.Misses))
	e.Counter("peb_view_swaps_total", "Query-view republishes since open.", float64(db.ViewSwaps()))
	e.Gauge("peb_size", "Indexed population.", float64(db.Size()))
}

// Metrics returns the DB's metrics registry. peb/obs.Handler scrapes it;
// subsystems layered on the DB (peb/cq) register their own series here so
// one endpoint exports the whole engine.
func (db *DB) Metrics() *obs.Registry { return db.met.reg }

// Events returns the DB's bounded event log: maintainer decisions
// (checkpoints, recovery, transaction verdicts) with their inputs, newest
// retained.
func (db *DB) Events() *obs.EventLog { return db.events }
