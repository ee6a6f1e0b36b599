package obs

import (
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Event is one recorded maintainer decision or notable occurrence: a
// checkpoint committed, an automatic split fired, a transaction aborted.
// Fields carry the decision's inputs (observed rates, thresholds,
// durations) so the log answers "why did it do that".
type Event struct {
	// Seq numbers events since open; gaps in a Recent() listing mean the
	// ring overwrote older entries.
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Type string         `json:"type"`
	Msg  string         `json:"msg"`
	KV   map[string]any `json:"kv,omitempty"`
}

// EventLog is a bounded ring of structured events plus an optional
// log/slog sink. Record is cold-path only (it allocates and takes a
// mutex): callers record decisions and transitions, never per-commit or
// per-query activity. A nil *EventLog drops everything.
type EventLog struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
	sink *slog.Logger
}

// DefaultEventLogSize bounds an event log when the capacity is zero.
const DefaultEventLogSize = 256

// NewEventLog returns a ring holding the last capacity events
// (DefaultEventLogSize when capacity ≤ 0). sink, when non-nil,
// additionally receives every event as a structured log record.
func NewEventLog(capacity int, sink *slog.Logger) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, capacity), sink: sink}
}

// Record appends one event. kv is alternating key/value pairs (slog
// style); a trailing key without a value is dropped. Duration and Time
// values are normalized to strings so the JSON rendering stays readable.
func (l *EventLog) Record(typ, msg string, kv ...any) {
	if l == nil {
		return
	}
	var m map[string]any
	if len(kv) >= 2 {
		m = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				k = fmt.Sprint(kv[i])
			}
			m[k] = normalizeValue(kv[i+1])
		}
	}
	l.mu.Lock()
	l.seq++
	ev := Event{Seq: l.seq, Time: time.Now(), Type: typ, Msg: msg, KV: m}
	l.buf[l.next] = ev
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		args := make([]any, 0, 2+2*len(m))
		args = append(args, "event", typ)
		for k, v := range m {
			args = append(args, k, v)
		}
		sink.Info(msg, args...)
	}
}

func normalizeValue(v any) any {
	switch t := v.(type) {
	case time.Duration:
		return t.String()
	case time.Time:
		return t.Format(time.RFC3339Nano)
	case error:
		return t.Error()
	default:
		return v
	}
}

// Recent returns up to n events, newest first (every retained event when
// n ≤ 0).
func (l *EventLog) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.next
	if l.full {
		size = len(l.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// Total returns the number of events ever recorded (not just retained).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}
