package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/peb"
	"repro/peb/sharded"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

func TestServeDB(t *testing.T) {
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 1; i <= 10; i++ {
		if err := db.Upsert(peb.Object{UID: peb.UserID(i), X: float64(i), Y: float64(i), T: 1}); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Serve("localhost:0", ForDB(db))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	metrics := scrape(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE peb_commit_seconds histogram",
		"peb_commit_seconds_count 10",
		"peb_size 10",
		"peb_view_swaps_total 11",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var status struct {
		Status struct {
			Size      int    `json:"size"`
			ViewSwaps uint64 `json:"view_swaps"`
		} `json:"status"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &status); err != nil {
		t.Fatalf("parse /statusz: %v", err)
	}
	if status.Status.Size != 10 || status.Status.ViewSwaps != 11 {
		t.Errorf("statusz: size %d swaps %d, want 10/11", status.Status.Size, status.Status.ViewSwaps)
	}

	if !strings.Contains(scrape(t, base+"/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}

	// Every non-empty commit is observed exactly once — rebuilds and policy
	// loads go through the same pipeline as an Upsert — and an empty batch
	// not at all.
	if err := db.EncodePolicies(); err != nil {
		t.Fatal(err)
	}
	enc, err := db.ComputeEncoding(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEncoding(enc); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := db.SavePolicies(&saved); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadPolicies(&saved); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(db.NewBatch()); err != nil {
		t.Fatal(err)
	}
	if want := "peb_commit_seconds_count 13"; !strings.Contains(scrape(t, base+"/metrics"), want) {
		t.Errorf("/metrics after 3 rebuild commits and an empty Apply: missing %q", want)
	}
}

func TestServeSharded(t *testing.T) {
	db, err := sharded.Open(sharded.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	side := db.Stats() // warm nothing; just prove it's callable pre-write
	_ = side
	bounds := 1000.0
	for i := 1; i <= 40; i++ {
		o := peb.Object{UID: peb.UserID(i), X: float64(i) * bounds / 41, Y: float64(i) * bounds / 41, T: 1}
		if err := db.Upsert(o); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Serve("localhost:0", ForSharded(db))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	metrics := scrape(t, base+"/metrics")
	for _, want := range []string{
		`peb_shard_commits_total{shard="000"}`,
		`peb_shard_commits_total{shard="003"}`,
		`peb_commit_seconds_count{shard="000"}`,
		"peb_router_shards 4",
		"peb_router_epoch",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The per-shard families merge under a single header.
	if n := strings.Count(metrics, "# TYPE peb_commit_seconds histogram"); n != 1 {
		t.Errorf("peb_commit_seconds TYPE header appears %d times, want 1", n)
	}

	var status struct {
		Status struct {
			Stats struct {
				Shards []struct {
					ID   int `json:"ID"`
					Size int `json:"Size"`
				} `json:"Shards"`
			} `json:"stats"`
		} `json:"status"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &status); err != nil {
		t.Fatalf("parse /statusz: %v", err)
	}
	if len(status.Status.Stats.Shards) != 4 {
		t.Fatalf("statusz topology: %d shards, want 4", len(status.Status.Stats.Shards))
	}
	total := 0
	for _, ss := range status.Status.Stats.Shards {
		total += ss.Size
	}
	if total != 40 {
		t.Errorf("statusz population %d, want 40", total)
	}
}

// TestServeAutoReshard scrapes a router whose AutoReshard maintainer is
// live, under the skewed load of sharded's TestAutoReshardSplitsHotShard:
// one small rectangle hammered, the rest of the space still. /metrics must
// serve the per-shard commit rates the maintainer reads, and /statusz must
// record the split it decides on.
func TestServeAutoReshard(t *testing.T) {
	db, err := sharded.Open(sharded.Options{
		Shards:           4,
		LoadRateHalfLife: 50 * time.Millisecond,
		AutoReshard: sharded.AutoReshardPolicy{
			Interval:        10 * time.Millisecond,
			SplitCommitRate: 50,
			MergeCommitRate: 5,
			MaxShards:       5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve("localhost:0", ForSharded(db))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	rng := rand.New(rand.NewSource(9))
	const hotUsers, coldUsers = 64, 64
	hotObj := func(u int) peb.Object {
		return peb.Object{UID: peb.UserID(u), X: 200 + rng.Float64()*100, Y: 200 + rng.Float64()*100, T: 1}
	}
	for u := 1; u <= hotUsers; u++ {
		if err := db.Upsert(hotObj(u)); err != nil {
			t.Fatal(err)
		}
	}
	for u := hotUsers + 1; u <= hotUsers+coldUsers; u++ {
		if err := db.Upsert(peb.Object{UID: peb.UserID(u), X: rng.Float64() * 1000, Y: rng.Float64() * 1000, T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	var rate, split bool
	for !rate || !split {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s of skewed load: per-shard commit rate served %v, reshard.split event recorded %v", rate, split)
		}
		for i := 0; i < 50; i++ {
			if err := db.Upsert(hotObj(1 + rng.Intn(hotUsers))); err != nil {
				t.Fatal(err)
			}
		}
		rate = rate || strings.Contains(scrape(t, base+"/metrics"), "peb_shard_commit_rate{shard=")
		split = split || strings.Contains(scrape(t, base+"/statusz"), "reshard.split")
	}
}
