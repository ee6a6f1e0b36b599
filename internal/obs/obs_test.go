package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusTextGolden pins the exposition format byte-for-byte: one
// HELP/TYPE header per family, families sorted by name, const labels
// before series labels, histogram buckets cumulative with empty buckets
// skipped, +Inf always present.
func TestPrometheusTextGolden(t *testing.T) {
	r := NewRegistry(Label{Key: "shard", Value: "007"})
	h := r.Histogram("test_latency_seconds", "Latency.", 1e-9, Label{Key: "op", Value: "prq"})
	h.Observe(0)    // bucket 0, le=0
	h.Observe(1)    // bucket 1, le=1e-09
	h.Observe(1)    // bucket 1
	h.Observe(1000) // bucket 10, le=1.023e-06
	r.Collect(func(e *Emit) {
		e.Counter("test_commits_total", "Commits since open.", 42)
		e.Gauge("test_size", "Indexed population.", 3.5)
		e.Counter("test_dyn_total", "Collector-emitted.", 5, Label{Key: "k", Value: "v"})
		e.Gauge("test_pull", "Pull-based value.", 7)
	})

	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := strings.Join([]string{
		`# HELP test_commits_total Commits since open.`,
		`# TYPE test_commits_total counter`,
		`test_commits_total{shard="007"} 42`,
		`# HELP test_dyn_total Collector-emitted.`,
		`# TYPE test_dyn_total counter`,
		`test_dyn_total{shard="007",k="v"} 5`,
		`# HELP test_latency_seconds Latency.`,
		`# TYPE test_latency_seconds histogram`,
		`test_latency_seconds_bucket{shard="007",op="prq",le="0"} 1`,
		`test_latency_seconds_bucket{shard="007",op="prq",le="1e-09"} 3`,
		`test_latency_seconds_bucket{shard="007",op="prq",le="1.023e-06"} 4`,
		`test_latency_seconds_bucket{shard="007",op="prq",le="+Inf"} 4`,
		`test_latency_seconds_sum{shard="007",op="prq"} 1.002e-06`,
		`test_latency_seconds_count{shard="007",op="prq"} 4`,
		`# HELP test_pull Pull-based value.`,
		`# TYPE test_pull gauge`,
		`test_pull{shard="007"} 7`,
		`# HELP test_size Indexed population.`,
		`# TYPE test_size gauge`,
		`test_size{shard="007"} 3.5`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteTextMergesRegistries proves families appearing in several
// registries render under a single HELP/TYPE header — the sharded router
// exports N per-shard registries with identical family names.
func TestWriteTextMergesRegistries(t *testing.T) {
	merged := func(v float64) func(*Emit) {
		return func(e *Emit) { e.Counter("merged_total", "Merged family.", v) }
	}
	r1 := NewRegistry(Label{Key: "shard", Value: "000"})
	r1.Collect(merged(1))
	r2 := NewRegistry(Label{Key: "shard", Value: "001"})
	r2.Collect(merged(2))

	var buf bytes.Buffer
	if err := WriteText(&buf, r1, r2); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE merged_total counter"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1:\n%s", n, out)
	}
	for _, line := range []string{`merged_total{shard="000"} 1`, `merged_total{shard="001"} 2`} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestInstrumentAllocs gates the hot-path promise: recording on a
// histogram allocates nothing.
func TestInstrumentAllocs(t *testing.T) {
	h := NewRegistry().Histogram("h", "", 1e-9)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocates %v/op, want 0", n)
	}
}

// TestNilSafety proves the histogram and the event log are no-ops on nil
// receivers, so call sites need no enablement branches.
func TestNilSafety(t *testing.T) {
	var h *Histogram
	var l *EventLog
	h.Observe(1)
	h.ObserveDuration(time.Second)
	l.Record("x", "y", "k", 1)
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram returned a non-zero count")
	}
	if got := l.Recent(10); got != nil {
		t.Errorf("nil EventLog.Recent = %v, want nil", got)
	}
	if l.Total() != 0 {
		t.Error("nil EventLog.Total != 0")
	}
}

// TestRegistryRaceStress hammers a histogram from concurrent writers
// while a scraper renders and a registrar adds series — the -race gate
// for the whole registry.
func TestRegistryRaceStress(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stress_seconds", "", 1e-9)
	l := NewEventLog(16, nil)
	r.Collect(func(e *Emit) {
		e.Gauge("stress_events", "", float64(l.Total()))
	})

	const writers = 8
	const iters = 2000
	var writeWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < iters; i++ {
				h.Observe(uint64(i * w))
				if i%500 == 0 {
					l.Record("stress", "tick", "writer", w, "i", i)
				}
			}
		}(w)
	}
	writeWG.Add(1)
	go func() { // late registrar races the scraper's gather
		defer writeWG.Done()
		for i := 0; i < 50; i++ {
			lbl := Label{Key: "i", Value: string(rune('a' + i%26))}
			r.Histogram("stress_late_seconds", "", 1e-9, lbl).Observe(uint64(i))
			r.Collect(func(e *Emit) { e.Gauge("stress_late", "", float64(i), lbl) })
		}
	}()
	scrapeWG.Add(1)
	go func() { // scraper
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := WriteText(&buf, r); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			l.Recent(8)
		}
	}()
	writeWG.Wait()
	close(stop)
	scrapeWG.Wait()

	if s := h.Snapshot(); s.Count != writers*iters {
		t.Errorf("histogram count = %d, want %d", s.Count, writers*iters)
	}
}

// TestHistogramQuantileAndMerge checks snapshot mergeability and the
// bucket upper edges the exposition renders — the quantile bounds a
// scraper reads.
func TestHistogramQuantileAndMerge(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("q1", "", 1)
	h2 := r.Histogram("q2", "", 1)
	for i := 0; i < 90; i++ {
		h1.Observe(100) // bucket le=127
	}
	for i := 0; i < 10; i++ {
		h2.Observe(100000) // bucket le=131071
	}
	s := h1.Snapshot()
	s.Merge(h2.Snapshot())
	if s.Count != 100 {
		t.Fatalf("merged count = %d, want 100", s.Count)
	}
	if s.Sum != 90*100+10*100000 {
		t.Errorf("merged sum = %d", s.Sum)
	}
	r.Collect(func(e *Emit) { e.Histogram("merged", "", s, 1) })
	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, line := range []string{
		`merged_bucket{le="127"} 90`,     // the p50 bound: upper edge of 100's bucket
		`merged_bucket{le="131071"} 100`, // the p99 bound: upper edge of 100000's bucket
		`merged_bucket{le="+Inf"} 100`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, buf.String())
		}
	}
}

// TestEventLogRing checks bounded retention, newest-first ordering, seq
// continuity, and the slog sink.
func TestEventLogRing(t *testing.T) {
	var sb bytes.Buffer
	sink := slog.New(slog.NewTextHandler(&sb, nil))
	l := NewEventLog(4, sink)
	for i := 0; i < 10; i++ {
		l.Record("tick", "tick happened", "i", i, "d", 3*time.Millisecond)
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	got := l.Recent(0)
	if len(got) != 4 {
		t.Fatalf("Recent(0) len = %d, want 4 (ring capacity)", len(got))
	}
	for k, ev := range got {
		if want := uint64(10 - k); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (newest first)", k, ev.Seq, want)
		}
		if ev.Type != "tick" || ev.KV["d"] != "3ms" {
			t.Errorf("event %d = %+v, want normalized duration", k, ev)
		}
	}
	if n := l.Recent(2); len(n) != 2 || n[0].Seq != 10 {
		t.Errorf("Recent(2) = %+v", n)
	}
	if !strings.Contains(sb.String(), "event=tick") || !strings.Contains(sb.String(), "tick happened") {
		t.Errorf("slog sink missing event: %s", sb.String())
	}
}
