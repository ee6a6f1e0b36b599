package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Root spans wrap a client's
// call into peb or peb/sharded; store.device.* spans are recorded by
// traceFS below that call and name the root as their parent. Mark, when
// non-zero, is the instant the engine's OnCommit hook fired inside a root
// span: it splits a commit into its pre-hook part (lock, index, view
// republish) and post-hook part (log append, fsync). Times are nanoseconds
// since the recorder started.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Mark   int64  `json:"mark_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so plain runs share the traced runs' call sites.
//
// Traced passes run one client, so at most one root span is open at a
// time; a device span that starts while it is open — on the client's own
// goroutine or on one the router fanned the call out to — is its child.
// Background work (a checkpoint build) that overlaps a root is charged to
// that root too: the trace cannot tell them apart from outside the engine.
type recorder struct {
	t0   time.Time
	on   atomic.Bool
	root atomic.Uint32
	mark atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a root span and returns its id (0 when not recording).
func (r *recorder) begin(name string) uint32 {
	if !r.enabled() {
		return 0
	}
	r.mu.Lock()
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: r.now()})
	r.mu.Unlock()
	r.mark.Store(0)
	r.root.Store(id)
	return id
}

// end closes the root span begin returned.
func (r *recorder) end(id uint32) {
	if id == 0 {
		return
	}
	end := r.now()
	r.root.Store(0)
	r.mu.Lock()
	s := &r.spans[id-1]
	s.End = end
	if m := r.mark.Load(); m >= s.Start {
		s.Mark = m
	}
	r.mu.Unlock()
}

// hook is installed as peb.Options.OnCommit on traced targets.
func (r *recorder) hook() {
	if r.enabled() {
		r.mark.Store(r.now())
	}
}

// device records a finished store.device span under the open root.
func (r *recorder) device(name string, start time.Time) {
	if !r.enabled() {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: uint32(len(r.spans) + 1), Parent: r.root.Load(), Name: name,
		Start: int64(start.Sub(r.t0)), End: end,
	})
	r.mu.Unlock()
}

// durations returns the length of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (a scatter-gather reads several shards at once) and may overhang the
// parent; only the union of their intervals inside the parent counts.
func selfTimes(spans []span) map[uint32]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[uint32][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// ladderSelf turns the p50 of each rung, bottom first, into each rung's
// self time: its p50 minus the p50 of the rung below.
func ladderSelf(p50 []float64) []float64 {
	out := make([]float64, len(p50))
	below := 0.0
	for i, v := range p50 {
		out[i] = v - below
		below = v
	}
	return out
}

// unattributedShare is the part of an end-to-end p50 that the rungs' self
// times, summed, leave unexplained.
func unattributedShare(e2e float64, rungP50 []float64) float64 {
	if e2e == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ladderSelf(rungP50) {
		sum += s
	}
	d := (e2e - sum) / e2e
	if d < 0 {
		d = -d
	}
	return d
}

// spanSummary aggregates one span name for the trace file.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// maxSpansWritten caps the span file; the summary always covers every span.
const maxSpansWritten = 100000

// write stores the ladder, the per-name summary and the first
// maxSpansWritten spans at path.
func (r *recorder) write(path string, meta runMeta, ladder *ladderReport) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	self := selfTimes(spans)
	summary := make(map[string]*spanSummary)
	for _, s := range spans {
		sum := summary[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			summary[s.Name] = sum
		}
		sum.Count++
		sum.TotalUS += float64(s.End-s.Start) / 1e3
		sum.SelfUS += float64(self[s.ID]) / 1e3
	}
	total := len(spans)
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	data, err := json.Marshal(struct {
		Meta       runMeta                 `json:"meta"`
		Ladder     *ladderReport           `json:"ladder"`
		TotalSpans int                     `json:"total_spans"`
		Summary    map[string]*spanSummary `json:"summary"`
		Spans      []span                  `json:"spans"`
	}{meta, ladder, total, summary, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
