package sharded

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
	"repro/peb"
)

// BenchmarkRouterCheckpoint is the checkpoint probe: a durable 4-shard
// router holding the benchmark's population (internal/workload at seed 1,
// 20 000 users × 20 policies) checkpoints after every 500 single Upserts.
// ckpt-ms is one router Checkpoint (every shard's and the policy engine's
// pipeline); shard-meta-B is the mean size of a shard's checkpoint meta,
// policy-meta-B the policy engine's; reopen-ms is one Open of the closed
// router.
func BenchmarkRouterCheckpoint(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.NumUsers, cfg.PoliciesPerUser, cfg.Seed = 20000, 20, 1
	ds, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Shards: 4, Dir: b.TempDir(), DB: peb.Options{Durability: peb.DurabilitySync}}
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	loadDataset(b, db, ds)

	var spent time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for _, o := range ds.UpdateBatch(500/float64(cfg.NumUsers), 60+float64(n%60)) {
			if err := db.Upsert(o); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		spent += time.Since(start)
	}
	b.StopTimer()

	var shardMeta int64
	for _, m := range db.metas {
		shardMeta += fileSize(b, filepath.Join(shardDir(opts.Dir, m.id), "peb.idx.meta"))
	}
	shardMeta /= int64(len(db.metas))
	policyMeta := fileSize(b, filepath.Join(policiesDir(opts.Dir), "peb.idx.meta"))
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	re, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	reopen := time.Since(start)
	if err := re.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(spent.Microseconds())/1e3/float64(b.N), "ckpt-ms")
	b.ReportMetric(float64(shardMeta), "shard-meta-B")
	b.ReportMetric(float64(policyMeta), "policy-meta-B")
	b.ReportMetric(float64(reopen.Microseconds())/1e3, "reopen-ms")
}

// loadDataset brings an empty router to ds's state the way the benchmark
// harness does: every policy in one batch, in (owner, viewer) order, the
// offline encoding, then the objects in batches of 1000.
func loadDataset(b *testing.B, db *DB, ds *workload.Dataset) {
	b.Helper()
	type grant struct {
		owner, viewer policy.UserID
		p             policy.Policy
	}
	var grants []grant
	ds.Policies.ForEachGrant(func(owner, viewer policy.UserID, p policy.Policy) bool {
		grants = append(grants, grant{owner, viewer, p})
		return true
	})
	slices.SortFunc(grants, func(a, b grant) int {
		return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.viewer, b.viewer))
	})
	pb := db.NewBatch()
	for _, g := range grants {
		pb.DefineRelation(UserID(g.owner), UserID(g.viewer), g.p.Role)
		pb.Grant(UserID(g.owner), g.p.Role, g.p.Locr, g.p.Tint)
	}
	if err := db.Apply(pb); err != nil {
		b.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(ds.Objects); i += 1000 {
		ob := db.NewBatch()
		for _, o := range ds.Objects[i:min(i+1000, len(ds.Objects))] {
			ob.Upsert(o)
		}
		if err := db.Apply(ob); err != nil {
			b.Fatal(err)
		}
	}
}

// fileSize returns the size of the file at path.
func fileSize(b *testing.B, path string) int64 {
	b.Helper()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return info.Size()
}
