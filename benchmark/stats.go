package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// value returns the named value, or 0 when the metric was not measured.
func (m metrics) value(name string) float64 { return m[name].Value }

// quantileUS returns the q-quantile of d in microseconds (nearest rank),
// or 0 for an empty sample. It sorts d in place.
func quantileUS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(d[i].Nanoseconds()) / 1e3
}

// midmeanUS returns the interquartile mean of d in microseconds: the mean
// of the middle half of the sample. Like the median it ignores both tails;
// unlike it, it averages hundreds of samples instead of reading one, so
// on a broad distribution (a routed PRQ spans 1 to 17 ms between its first
// and last decile) it moves about half as much from run to run. It sorts
// d in place.
func midmeanUS(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	mid := d[len(d)/4 : len(d)-len(d)/4]
	var sum time.Duration
	for _, v := range mid {
		sum += v
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(mid))
}

// median returns the middle value of v (mean of the two middle values for
// an even count). It sorts v in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0: the per-op form of a counter over a
// pass that may have run no such op.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeEach runs fn(0..n-1) and returns each call's duration.
func timeEach(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		s := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(s))
	}
	return out, nil
}
