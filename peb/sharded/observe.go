package sharded

import (
	"fmt"

	"repro/internal/obs"
)

// Router-level observability. Each shard engine carries its own registry
// (const label shard="NNN", the stable shard id) and event log; the router
// adds a registry of its own for topology-scoped series — per-shard
// routed load, split/merge counters — plus an event log for
// maintainer decisions (AutoReshard verdicts, cross-shard fail-stops and
// recoveries).
// MetricsRegistries gathers all of them for one exposition endpoint; the
// set changes as shards split and merge, so callers re-gather per scrape
// rather than caching.

// initObs builds the router's registry and event log. Called from Open
// before the DB is shared.
func (db *DB) initObs() {
	db.obsReg = obs.NewRegistry()
	db.events = obs.NewEventLog(obs.DefaultEventLogSize, db.opts.DB.Logger)
	db.obsReg.Collect(db.collectMetrics)
}

// shardLabel renders a shard id the way per-engine registries do, so
// router series and engine series join on the same label value.
func shardLabel(id int) string { return fmt.Sprintf("%03d", id) }

// policiesLabel is the policy engine's shard label value.
const policiesLabel = "policies"

// collectMetrics emits the router's scrape-time series. It runs without
// the barrier held by the caller (MetricsRegistries returns before text
// rendering starts), so taking the read barrier here is deadlock-free.
func (db *DB) collectMetrics(e *obs.Emit) {
	st := db.Stats()
	for _, ss := range st.Shards {
		lbl := obs.Label{Key: "shard", Value: shardLabel(ss.ID)}
		e.Counter("peb_shard_commits_total", "Commits the router routed to the shard.", float64(ss.Commits), lbl)
		e.Counter("peb_shard_queries_total", "One-shot queries that consulted the shard.", float64(ss.Queries), lbl)
		e.Gauge("peb_shard_commit_rate", "EWMA routed commits per second (the hot-shard detector's input).", ss.CommitRate, lbl)
		e.Gauge("peb_shard_size", "Shard's indexed population.", float64(ss.Size), lbl)
	}
	e.Gauge("peb_router_shards", "Live shards in the topology.", float64(len(st.Shards)))
	e.Counter("peb_router_epoch", "Topology version (advances on every routing change).", float64(st.Epoch))
	e.Counter("peb_router_splits_total", "Completed online shard splits since open.", float64(st.Splits))
	e.Counter("peb_router_merges_total", "Completed online shard merges since open.", float64(st.Merges))
}

// MetricsRegistries returns the router's registry plus every live shard
// engine's and the policy engine's (labelled shard="policies"), for one
// merged exposition (internal/obs.WriteText merges the per-engine families
// under shared HELP/TYPE headers). The set follows the topology: gather it
// per scrape, not once.
func (db *DB) MetricsRegistries() []*obs.Registry {
	db.smu.RLock()
	defer db.smu.RUnlock()
	out := make([]*obs.Registry, 0, len(db.shards)+2)
	out = append(out, db.obsReg)
	for _, s := range db.shards {
		out = append(out, s.Metrics())
	}
	return append(out, db.pe.Metrics())
}

// Events returns the router's event log: AutoReshard decisions with the
// observed rates that drove them, and cross-shard transaction aborts and
// recoveries. Per-shard maintainer events (checkpoints, recovery) live on
// each shard's own log.
func (db *DB) Events() *obs.EventLog { return db.events }
