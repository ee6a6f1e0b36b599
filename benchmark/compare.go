package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series is one metric's values over a file's runs of one workload.
func series(w *workloadRuns, name string) []float64 {
	var out []float64
	for _, run := range w.Runs {
		if m, ok := run[name]; ok {
			out = append(out, m.Value)
		}
	}
	sort.Float64s(out)
	return out
}

// spread is the width of a sorted sample as a share of its median: the
// distance between its quartiles from four runs up, its range below that.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 || len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[len(v)-1]
	if len(v) >= 4 {
		lo, hi = v[len(v)/4], v[len(v)-1-len(v)/4]
	}
	return (hi - lo) / med
}

// verdict judges b against a for one metric, by the choosing-metrics
// guide's rule: worse when b's median is worse than a's by more than the
// bound; unresolved when either side's own spread exceeds the bound, unless
// every run of b reads better than every run of a; within otherwise.
func verdict(a, b []float64, better string, bound float64) string {
	// loss is how much worse b's median is, as a share of a's; a metric
	// that was 0 (failed_share) is worse by any amount at all.
	ma, mb := median(a), median(b)
	loss, allBetter := mb-ma, b[len(b)-1] < a[0]
	if better == higher {
		loss, allBetter = ma-mb, b[0] > a[len(a)-1]
	}
	if ma != 0 {
		loss /= ma
	} else if loss > 0 {
		loss = math.Inf(1)
	}
	switch {
	case loss > bound:
		return "worse"
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		return "unresolved"
	default:
		return "within"
	}
}

// compareFiles prints one row per workload and named end-to-end metric:
// both medians, their ratio with a as its base, the bound, and the verdict.
// It reports whether any row read worse.
func compareFiles(out io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	sameSeed := a.Meta.Seed == b.Meta.Seed
	fmt.Fprintf(out, "a = %s (seed %d, commit %s)\nb = %s (seed %d, commit %s)\n",
		pathA, a.Meta.Seed, a.Meta.Commit, pathB, b.Meta.Seed, b.Meta.Commit)
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %10s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range namedMetrics {
			va, vb := series(wa, def.Name), series(wb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue // not reported on this workload
			}
			bound := def.Bound
			if def.Exact && sameSeed {
				bound = 0 // a count from the counted pass repeats exactly
			}
			v := verdict(va, vb, def.Better, bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-16s %-22s %14.4f %14.4f %10.4f %5.0f%%  %s\n",
				name, def.Name, median(va), median(vb), ratio(median(vb), median(va)), 100*bound, v)
		}
	}
	return anyWorse, nil
}
