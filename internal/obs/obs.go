// Package obs is the engine's observability kernel: a metrics registry
// whose instruments the hot paths can feed with zero allocations, and a
// bounded structured event log for maintainer decisions (events.go).
//
// The design splits the cost asymmetrically. Recording — Histogram.Observe
// — is a handful of atomic adds on a pre-registered instrument: no locks,
// no allocations, safe from any goroutine, so the commit path carries
// instrumentation at full speed. Everything else is pulled: collectors
// read the engine's own counters at scrape time. Reading — WriteText —
// takes the registry lock, runs the collectors, renders label strings,
// and sorts families; it allocates freely because scrapes are rare and
// never on a hot path.
//
// Every method on a nil *Histogram or *EventLog is a no-op, so call sites
// need no "is observability enabled" branches.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// histBuckets is the fixed bucket count: index i = bits.Len64(v), so
// bucket 0 holds exactly v = 0 and bucket i ≥ 1 holds 2^(i-1) ≤ v < 2^i.
// 65 buckets cover the full uint64 range with power-of-two resolution —
// ~±50% relative error, plenty for latency distributions — and make any
// two histograms mergeable by adding bucket arrays.
const histBuckets = 65

// Histogram is a fixed-bucket log-spaced histogram over uint64 samples
// (typically nanoseconds). Observe is three atomic adds: no locks, no
// allocations. Mult converts raw sample units to export units at scrape
// time (1e-9 renders nanosecond samples as Prometheus-conventional
// seconds); it never touches the hot path.
type Histogram struct {
	mult    float64
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration sample in nanoseconds, clamping
// negative values (clock steps) to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistSnapshot is a point-in-time copy of a histogram's state, in raw
// (pre-Mult) units. Snapshots from histograms with the same bucketing
// merge by addition.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Snapshot copies the current state. Concurrent Observes may straddle the
// copy (count and buckets are read independently); the skew is at most
// the handful of in-flight samples and monotonicity per cell still holds.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Merge adds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// bucketUpper is bucket i's inclusive upper edge in raw units: 2^i − 1
// (bucket 0 holds only zero). The last bucket's edge is the uint64 max.
func bucketUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return float64(uint64(1)<<uint(i) - 1)
}

type metricEntry struct {
	name   string
	help   string
	labels []Label
	h      *Histogram
}

// Registry holds a set of registered instruments plus pull-based
// collectors. Registration is cold-path (allocates, takes the lock);
// recording on the returned instruments is hot-path-safe. A registry's
// constant labels are attached to every series it exports — the sharded
// router labels each engine's registry with its stable shard id this way.
type Registry struct {
	mu         sync.Mutex
	constLbls  []Label
	metrics    []*metricEntry
	collectors []func(*Emit)
}

// NewRegistry returns an empty registry whose exported series all carry
// constLabels.
func NewRegistry(constLabels ...Label) *Registry {
	return &Registry{constLbls: constLabels}
}

// Histogram registers and returns a histogram series. mult converts raw
// sample units to export units at scrape time (1e-9 for ns → s; 1 for
// dimensionless samples like records-per-fsync).
func (r *Registry) Histogram(name, help string, mult float64, labels ...Label) *Histogram {
	if mult == 0 {
		mult = 1
	}
	h := &Histogram{mult: mult}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, &metricEntry{name: name, help: help, labels: labels, h: h})
	return h
}

// Collect registers a collector: a callback run at every scrape that may
// emit any number of series. Collectors are how dynamic series — per-shard
// rates whose shard set changes under splits and merges — are exported
// without re-registering instruments on topology changes.
func (r *Registry) Collect(fn func(*Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Sample is one exported line: a fully suffixed sample name (e.g.
// name_bucket), a pre-rendered sorted label string, and the value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Family is one metric family: every sample sharing a base name, with one
// HELP/TYPE header.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "histogram"
	Samples []Sample
}

// Emit accumulates families during a gather; collectors receive it to add
// scrape-time series.
type Emit struct {
	constLbls []Label
	fams      map[string]*Family
	order     []string
}

func newEmit() *Emit {
	return &Emit{fams: make(map[string]*Family)}
}

func (e *Emit) family(name, help, typ string) *Family {
	f, ok := e.fams[name]
	if !ok {
		f = &Family{Name: name, Help: help, Type: typ}
		e.fams[name] = f
		e.order = append(e.order, name)
	}
	return f
}

func (e *Emit) sample(name, help, typ, suffix string, v float64, labels []Label, extra ...Label) {
	f := e.family(name, help, typ)
	all := make([]Label, 0, len(e.constLbls)+len(labels)+len(extra))
	all = append(all, e.constLbls...)
	all = append(all, labels...)
	all = append(all, extra...)
	f.Samples = append(f.Samples, Sample{Name: name + suffix, Labels: renderLabels(all), Value: v})
}

// Counter emits one counter sample.
func (e *Emit) Counter(name, help string, v float64, labels ...Label) {
	e.sample(name, help, "counter", "", v, labels)
}

// Gauge emits one gauge sample.
func (e *Emit) Gauge(name, help string, v float64, labels ...Label) {
	e.sample(name, help, "gauge", "", v, labels)
}

// Histogram emits a full histogram sample set (cumulative buckets, sum,
// count) from a snapshot. Empty buckets are skipped — the cumulative
// counts at the emitted bounds stay exact — so series volume tracks the
// distribution's support, not the fixed bucket count.
func (e *Emit) Histogram(name, help string, s HistSnapshot, mult float64, labels ...Label) {
	if mult == 0 {
		mult = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if b == 0 {
			continue
		}
		le := strconv.FormatFloat(bucketUpper(i)*mult, 'g', -1, 64)
		e.sample(name, help, "histogram", "_bucket", float64(cum), labels, Label{Key: "le", Value: le})
	}
	e.sample(name, help, "histogram", "_bucket", float64(s.Count), labels, Label{Key: "le", Value: "+Inf"})
	e.sample(name, help, "histogram", "_sum", float64(s.Sum)*mult, labels)
	e.sample(name, help, "histogram", "_count", float64(s.Count), labels)
}

// gatherInto renders the registry's instruments and collectors into e.
func (r *Registry) gatherInto(e *Emit) {
	r.mu.Lock()
	metrics := append([]*metricEntry(nil), r.metrics...)
	collectors := make([]func(*Emit), len(r.collectors))
	copy(collectors, r.collectors)
	constLbls := r.constLbls
	r.mu.Unlock()

	saved := e.constLbls
	e.constLbls = constLbls
	defer func() { e.constLbls = saved }()

	for _, m := range metrics {
		e.Histogram(m.name, m.help, m.h.Snapshot(), m.h.mult, m.labels...)
	}
	for _, fn := range collectors {
		fn(e)
	}
}

// WriteText renders every registry's series in the Prometheus text
// exposition format, merging families that appear in several registries
// (the sharded router gathers the per-shard engine registries this way)
// and sorting families by name so output is stable and golden-testable.
func WriteText(w io.Writer, regs ...*Registry) error {
	e := newEmit()
	for _, r := range regs {
		if r != nil {
			r.gatherInto(e)
		}
	}
	names := append([]string(nil), e.order...)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := e.fams[name]
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			if s.Labels == "" {
				fmt.Fprintf(&b, "%s %s\n", s.Name, formatValue(s.Value))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", s.Name, s.Labels, formatValue(s.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a label set as `k1="v1",k2="v2"` with values
// escaped per the exposition format. Label order is preserved (const
// labels first, then series labels) so related series group naturally.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
