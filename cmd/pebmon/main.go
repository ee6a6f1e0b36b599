// Command pebmon is a one-shot console client for a running engine's
// observability endpoint (repro/peb/obs): it fetches /statusz and
// /metrics from the target address and prints a condensed live view —
// topology, per-shard rates, mean commit latency, recent maintainer
// events. For dashboards, point a real Prometheus scraper at /metrics
// instead; pebmon is for a quick look from a terminal.
//
// Usage:
//
//	pebmon [-addr localhost:6060] [-events 10] [-raw]
//	pebmon -watch 2s
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		addr   = flag.String("addr", "localhost:6060", "observability endpoint address (host:port)")
		events = flag.Int("events", 10, "recent events to print (0 = none)")
		raw    = flag.Bool("raw", false, "dump the raw /metrics text instead of the condensed view")
		watch  = flag.Duration("watch", 0, "refresh continuously at this interval (0 = one shot)")
	)
	flag.Parse()

	for {
		if err := report(*addr, *events, *raw); err != nil {
			fmt.Fprintf(os.Stderr, "pebmon: %v\n", err)
			if *watch == 0 {
				os.Exit(1)
			}
		}
		if *watch == 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Println(strings.Repeat("-", 72))
	}
}

func fetch(url string) ([]byte, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// event mirrors internal/obs.Event's JSON shape (pebmon speaks only the
// wire format, so it can monitor any binary serving the endpoint).
type event struct {
	Seq  uint64                 `json:"seq"`
	Time time.Time              `json:"time"`
	Type string                 `json:"type"`
	Msg  string                 `json:"msg"`
	KV   map[string]interface{} `json:"kv,omitempty"`
}

func report(addr string, eventCount int, rawDump bool) error {
	return reportTo(os.Stdout, addr, eventCount, rawDump)
}

func reportTo(w io.Writer, addr string, eventCount int, rawDump bool) error {
	base := "http://" + addr
	metrics, err := fetch(base + "/metrics")
	if err != nil {
		return err
	}
	if rawDump {
		_, err := w.Write(metrics)
		return err
	}

	var statusz struct {
		Time   time.Time       `json:"time"`
		Status json.RawMessage `json:"status"`
		Events []event         `json:"events"`
	}
	if sz, err := fetch(base + "/statusz"); err == nil {
		_ = json.Unmarshal(sz, &statusz)
	}

	samples := parseMetrics(metrics)
	fmt.Fprintf(w, "pebmon %s at %s\n\n", addr, time.Now().Format("15:04:05"))
	printScalars(w, samples)
	printShards(w, samples)
	printLatency(w, samples)
	if eventCount > 0 && len(statusz.Events) > 0 {
		n := eventCount
		if n > len(statusz.Events) {
			n = len(statusz.Events)
		}
		fmt.Fprintf(w, "\nrecent events (%d of %d shown):\n", n, len(statusz.Events))
		for _, ev := range statusz.Events[:n] {
			var kv []string
			for k, v := range ev.KV {
				kv = append(kv, fmt.Sprintf("%s=%v", k, v))
			}
			sort.Strings(kv)
			fmt.Fprintf(w, "  %s  %-16s %s  %s\n",
				ev.Time.Format("15:04:05.000"), ev.Type, ev.Msg, strings.Join(kv, " "))
		}
	}
	return nil
}

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels string // raw {...} text, "" when unlabeled
	value  float64
}

func parseMetrics(text []byte) []sample {
	var out []sample
	sc := bufio.NewScanner(strings.NewReader(string(text)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			continue
		}
		key := line[:sp]
		name, labels := key, ""
		if b := strings.IndexByte(key, '{'); b >= 0 {
			name, labels = key[:b], key[b:]
		}
		out = append(out, sample{name: name, labels: labels, value: v})
	}
	return out
}

func find(samples []sample, name string) (float64, bool) {
	var total float64
	found := false
	for _, s := range samples {
		if s.name == name {
			total += s.value
			found = true
		}
	}
	return total, found
}

func printScalars(w io.Writer, samples []sample) {
	rows := []struct{ label, metric string }{
		{"population", "peb_size"},
		{"commits", "peb_commit_seconds_count"},
		{"wal appends", "peb_wal_appends_total"},
		{"wal fsyncs", "peb_wal_syncs_total"},
		{"checkpoints", "peb_checkpoints_total"},
		{"buffer hits", "peb_buffer_hits_total"},
		{"buffer misses", "peb_buffer_misses_total"},
		{"shards", "peb_router_shards"},
		{"splits", "peb_router_splits_total"},
		{"merges", "peb_router_merges_total"},
	}
	for _, r := range rows {
		if v, ok := find(samples, r.metric); ok {
			fmt.Fprintf(w, "  %-16s %.0f\n", r.label, v)
		}
	}
}

func printShards(w io.Writer, samples []sample) {
	type shardRow struct {
		commits, queries, rate, size float64
	}
	shards := map[string]*shardRow{}
	get := func(labels string) (*shardRow, bool) {
		i := strings.Index(labels, `shard="`)
		if i < 0 {
			return nil, false
		}
		rest := labels[i+len(`shard="`):]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return nil, false
		}
		id := rest[:j]
		r, ok := shards[id]
		if !ok {
			r = &shardRow{}
			shards[id] = r
		}
		return r, true
	}
	for _, s := range samples {
		r, ok := get(s.labels)
		if !ok {
			continue
		}
		switch s.name {
		case "peb_shard_commits_total":
			r.commits = s.value
		case "peb_shard_queries_total":
			r.queries = s.value
		case "peb_shard_commit_rate":
			r.rate = s.value
		case "peb_shard_size":
			r.size = s.value
		}
	}
	if len(shards) == 0 {
		return
	}
	ids := make([]string, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "\n  %-6s %10s %10s %12s %8s\n", "shard", "commits", "queries", "commit/s", "size")
	for _, id := range ids {
		r := shards[id]
		fmt.Fprintf(w, "  %-6s %10.0f %10.0f %12.1f %8.0f\n", id, r.commits, r.queries, r.rate, r.size)
	}
}

func printLatency(w io.Writer, samples []sample) {
	var count, sum float64
	for _, s := range samples {
		switch s.name {
		case "peb_commit_seconds_count":
			count += s.value
		case "peb_commit_seconds_sum":
			sum += s.value
		}
	}
	if count > 0 {
		fmt.Fprintf(w, "\n  commit latency mean %.1fµs over %.0f commits\n", sum/count*1e6, count)
	}
}
