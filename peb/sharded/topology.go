package sharded

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/internal/zcurve"
	"repro/peb"
)

// Dynamic shard topology. PR 5 fixed the shard count at creation; the
// topology now lives in the manifest and changes online: a hot shard's
// Hilbert range splits at its population median, a pair of cold adjacent
// shards merges (see reshard.go). Every shard therefore carries two curve
// intervals:
//
//   - route: where NEW writes for these values go. Routes are disjoint
//     and exhaust the curve at every moment, so every position has exactly
//     one write owner. A shard being merged away has no route at all.
//   - cover: the values the shard may still HOLD objects for. cover ⊇
//     route; the two differ only while a migration is in flight — the
//     split source still covers the half it no longer routes, the merge
//     source still covers the range it is draining — and queries prune by
//     cover, so in-flight migrations are invisible to readers.
//
// Shard identity is a small integer id that names the on-disk directory
// (shard-NNN) and never changes; ids are allocated monotonically and never
// reused, so a crash-orphaned directory can never be mistaken for a live
// shard's. The slice position of a shard in DB.shards/DB.metas (its
// "slot") is an in-memory artifact that shifts when a merge removes a
// shard.

// shardMeta is one shard's place in the topology, parallel to DB.shards,
// plus the router-side state that travels with the shard through splits
// and merges: its load meter, which sits behind a pointer so copies of
// the record share it.
type shardMeta struct {
	id      int
	route   zcurve.Interval
	noRoute bool // true while the shard drains into a merge peer
	cover   zcurve.Interval
	load    *loadMeter
}

// pendingKind names the two in-flight topology changes.
type pendingKind string

const (
	pendingSplit pendingKind = "split"
	pendingMerge pendingKind = "merge"
)

// pendingOp records an in-flight split or merge. It is persisted in the
// manifest: its presence after a crash tells recovery which migration to
// roll forward (the manifest write that introduces it is the atomic
// commit point of the topology change — before it, the change does not
// exist; after it, it always completes).
type pendingOp struct {
	Kind pendingKind `json:"kind"`
	// Src is the shard being drained: the split source (still covering
	// the half it gave away) or the merge source (no longer routing).
	Src int `json:"src"`
	// Dst is the shard receiving the moving objects: the split's new
	// shard or the merge's absorbing neighbor.
	Dst int `json:"dst"`
	// SplitAt is the last curve value the split source keeps (split only).
	SplitAt uint64 `json:"split_at,omitempty"`
}

// manifest is the router's persisted identity and topology: the full
// range list plus any in-flight topology change.
type manifest struct {
	Version   int
	Shards    int // informational: len(Topology)
	SpaceSide float64
	GridOrder int

	Epoch    uint64          `json:"Epoch,omitempty"`
	NextID   int             `json:"NextID,omitempty"`
	Topology []manifestShard `json:"Topology,omitempty"`
	Pending  *pendingOp      `json:"Pending,omitempty"`
}

// manifestShard is one topology entry in the manifest.
type manifestShard struct {
	ID      int
	RouteLo uint64
	RouteHi uint64
	NoRoute bool `json:",omitempty"`
	CoverLo uint64
	CoverHi uint64
}

// manifestVersion is the one manifest generation unmarshalManifest reads.
// Version 4 roots keep the policies once, in the policy engine's directory;
// version 3 kept a copy in every shard's checkpoint and log, and is
// refused.
const manifestVersion = 4

// marshalManifest serializes the router's identity record.
func marshalManifest(m manifest) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("sharded: marshal manifest: %w", err)
	}
	return data, nil
}

func unmarshalManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("sharded: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("sharded: %w: manifest version %d (want %d)",
			codec.ErrUnsupportedFormat, m.Version, manifestVersion)
	}
	return m, nil
}

// topoState is the in-memory image of the manifest's topology section.
type topoState struct {
	epoch   uint64
	nextID  int
	metas   []shardMeta
	pending *pendingOp
}

// freshTopo builds the creation-time topology: n shards with ids 0..n-1
// over near-equal ranges, exactly the PR 5 static layout.
func freshTopo(order, n int) topoState {
	ivs := zcurve.SplitRange(order, n)
	metas := make([]shardMeta, n)
	for i, iv := range ivs {
		metas[i] = shardMeta{id: i, route: iv, cover: iv, load: newLoadMeter()}
	}
	return topoState{epoch: 1, nextID: n, metas: metas}
}

// toManifest serializes the topology section.
func (ts topoState) toManifest(side float64) manifest {
	m := manifest{
		Version:   manifestVersion,
		Shards:    len(ts.metas),
		SpaceSide: side,
		GridOrder: peb.DefaultGridOrder,
		Epoch:     ts.epoch,
		NextID:    ts.nextID,
		Pending:   ts.pending,
	}
	for _, sm := range ts.metas {
		m.Topology = append(m.Topology, manifestShard{
			ID:      sm.id,
			RouteLo: sm.route.Lo, RouteHi: sm.route.Hi, NoRoute: sm.noRoute,
			CoverLo: sm.cover.Lo, CoverHi: sm.cover.Hi,
		})
	}
	return m
}

// topoFromManifest rebuilds the in-memory topology from a parsed manifest.
func topoFromManifest(m manifest, order int) (topoState, error) {
	if len(m.Topology) == 0 {
		return topoState{}, fmt.Errorf("sharded: manifest carries no topology")
	}
	ts := topoState{epoch: m.Epoch, nextID: m.NextID, pending: m.Pending}
	for _, e := range m.Topology {
		sm := shardMeta{
			id:      e.ID,
			route:   zcurve.Interval{Lo: e.RouteLo, Hi: e.RouteHi},
			noRoute: e.NoRoute,
			cover:   zcurve.Interval{Lo: e.CoverLo, Hi: e.CoverHi},
			load:    newLoadMeter(),
		}
		if sm.id < 0 || sm.id >= ts.nextID || sm.id >= policiesID {
			return topoState{}, fmt.Errorf("sharded: manifest shard id %d outside [0,%d)", sm.id, ts.nextID)
		}
		ts.metas = append(ts.metas, sm)
	}
	if err := ts.validate(order); err != nil {
		return topoState{}, err
	}
	return ts, nil
}

// validate checks the topology invariants: unique ids, covers containing
// routes, and routes that partition the curve exactly.
func (ts topoState) validate(order int) error {
	total := uint64(1) << uint(2*order)
	seen := make(map[int]bool, len(ts.metas))
	var routed []zcurve.Interval
	for _, sm := range ts.metas {
		if seen[sm.id] {
			return fmt.Errorf("sharded: manifest repeats shard id %d", sm.id)
		}
		seen[sm.id] = true
		if sm.cover.Hi < sm.cover.Lo || sm.cover.Hi >= total {
			return fmt.Errorf("sharded: shard %d cover %v outside the curve", sm.id, sm.cover)
		}
		if sm.noRoute {
			continue
		}
		if sm.route.Hi < sm.route.Lo {
			return fmt.Errorf("sharded: shard %d route %v inverted", sm.id, sm.route)
		}
		if sm.route.Lo < sm.cover.Lo || sm.route.Hi > sm.cover.Hi {
			return fmt.Errorf("sharded: shard %d route %v escapes cover %v", sm.id, sm.route, sm.cover)
		}
		routed = append(routed, sm.route)
	}
	sort.Slice(routed, func(a, b int) bool { return routed[a].Lo < routed[b].Lo })
	var next uint64
	for _, iv := range routed {
		if iv.Lo != next {
			return fmt.Errorf("sharded: routes leave a gap or overlap at value %d", next)
		}
		next = iv.Hi + 1
	}
	if next != total {
		return fmt.Errorf("sharded: routes cover %d of %d curve values", next, total)
	}
	if p := ts.pending; p != nil {
		if !seen[p.Src] || !seen[p.Dst] {
			return fmt.Errorf("sharded: pending %s names unknown shards %d->%d", p.Kind, p.Src, p.Dst)
		}
	}
	return nil
}

// routeEntry maps one routed interval to its shard slot, for shardOf.
type routeEntry struct {
	iv   zcurve.Interval
	slot int
}

// rebuildRoutes derives the sorted route table and the per-slot cover
// list from the metas. Caller holds the write barrier (or is still
// constructing the DB). Both slices are rebuilt fresh rather than
// mutated: concurrent readers under the read barrier never see them
// mid-update across a barrier release.
func (db *DB) rebuildRoutes() {
	routes := make([]routeEntry, 0, len(db.metas))
	covers := make([]zcurve.Interval, len(db.metas))
	for i, sm := range db.metas {
		if !sm.noRoute {
			routes = append(routes, routeEntry{iv: sm.route, slot: i})
		}
		covers[i] = sm.cover
	}
	sort.Slice(routes, func(a, b int) bool { return routes[a].iv.Lo < routes[b].iv.Lo })
	db.routes = routes
	db.covers = covers
}

// slotOf returns the slice position of the shard with the given id.
func (db *DB) slotOf(id int) (int, bool) {
	for i, sm := range db.metas {
		if sm.id == id {
			return i, true
		}
	}
	return 0, false
}

// writeManifest persists the current topology; the atomic rename inside is
// the durable commit point of whatever change the caller staged.
func (db *DB) writeManifest() error {
	return db.persistTopo(topoState{epoch: db.epoch, nextID: db.nextID, metas: db.metas, pending: db.pending})
}

// persistTopo persists an explicit topology image — used by merge
// finalization, which must commit the post-merge manifest BEFORE mutating
// memory irreversibly. Memory deployments (no Dir) skip persistence —
// their topology lives and dies with the process.
func (db *DB) persistTopo(ts topoState) error {
	if db.opts.Dir == "" {
		return nil
	}
	data, err := marshalManifest(ts.toManifest(db.sideLen()))
	if err != nil {
		return err
	}
	path := filepath.Join(db.opts.Dir, "sharded.json")
	if err := store.WriteFileAtomic(db.fs, path, data); err != nil {
		return fmt.Errorf("sharded: write manifest: %w", err)
	}
	return nil
}

// sideLen is the configured space side with the default applied.
func (db *DB) sideLen() float64 {
	if db.opts.DB.SpaceSide != 0 {
		return db.opts.DB.SpaceSide
	}
	return peb.DefaultSpaceSide
}

// loadTopology reads (or initializes) the manifest and returns the
// topology to open under. Options.Shards counts only at creation: an
// existing directory's topology is adopted as-is — it may have split and
// merged far away from the initial count — and only a genuinely corrupt
// or incompatible manifest is an error.
func loadTopology(fsys store.VFS, opts Options) (topoState, error) {
	side := opts.DB.SpaceSide
	if side == 0 {
		side = peb.DefaultSpaceSide
	}
	if opts.Dir == "" {
		return freshTopo(peb.DefaultGridOrder, opts.Shards), nil
	}
	path := filepath.Join(opts.Dir, "sharded.json")
	ok, err := fsys.Exists(path)
	if err != nil {
		return topoState{}, fmt.Errorf("sharded: probe manifest: %w", err)
	}
	if !ok {
		ts := freshTopo(peb.DefaultGridOrder, opts.Shards)
		data, err := marshalManifest(ts.toManifest(side))
		if err != nil {
			return topoState{}, err
		}
		// Written before any shard is created, so a crash can never leave
		// shards whose layout the next open has to guess.
		if err := store.WriteFileAtomic(fsys, path, data); err != nil {
			return topoState{}, fmt.Errorf("sharded: write manifest: %w", err)
		}
		return ts, nil
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return topoState{}, fmt.Errorf("sharded: read manifest: %w", err)
	}
	m, err := unmarshalManifest(data)
	if err != nil {
		return topoState{}, err
	}
	// The router keeps nothing in the root but its manifest: any other file
	// (a log an older generation kept there) is refused, not ignored.
	names, err := fsys.ListDir(opts.Dir)
	if err != nil {
		return topoState{}, fmt.Errorf("sharded: list root: %w", err)
	}
	for _, name := range names {
		if base := filepath.Base(name); base != "sharded.json" && base != "sharded.json.tmp" {
			return topoState{}, fmt.Errorf("sharded: %w: unrecognized file %s in the root", codec.ErrUnsupportedFormat, name)
		}
	}
	if m.SpaceSide != side {
		return topoState{}, fmt.Errorf("sharded: directory space side %g does not match options %g", m.SpaceSide, side)
	}
	if m.GridOrder != peb.DefaultGridOrder {
		// Shard ranges are value ranges on this curve order; reopening
		// them on a different order would silently misroute queries.
		return topoState{}, fmt.Errorf("sharded: directory grid order %d does not match engine order %d", m.GridOrder, peb.DefaultGridOrder)
	}
	return topoFromManifest(m, peb.DefaultGridOrder)
}
