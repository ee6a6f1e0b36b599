// Command benchmark is the repository's benchmark of record (issue 11):
// four workloads through peb and peb/sharded, a layer ladder, and a trace
// recorded from outside the engine. See README.md.
//
//	go run . -seed 1                          every workload, every named metric
//	go run . -seed 1 -trace 1                 the per-layer numbers and span files
//	go run . -workload paper_queries -seed 1 -seconds 10 -trace 0
//	                                          one run, as BENCHMARK.json's command makes it
//	go run . -compare a.json b.json           judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runMeta is recorded in every result and trace file.
type runMeta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Users      int     `json:"users"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
}

// workloadRuns is one workload's section of a result file.
type workloadRuns struct {
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Runs      []metrics `json:"runs"`
}

// resultFile is what a run writes under benchmark/out and -compare reads.
type resultFile struct {
	Meta      runMeta                  `json:"meta"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// procs is the benchmark's GOMAXPROCS: the sandbox's nproc.
const procs = 2

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's result line")
		seed     = flag.Int64("seed", 1, "seed of the generated dataset and ops")
		seconds  = flag.Float64("seconds", 8, "length of each timed window")
		trace    = flag.Int("trace", 0, "1: one client, spans and the layer ladder; print the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs of each workload to store in the result file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			err = fmt.Errorf("b is worse than a beyond a bound")
		}
		return err
	}
	runtime.GOMAXPROCS(procs)

	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	scratch := filepath.Join(root, ".bench_build", "data", fmt.Sprintf("run-%d", os.Getpid()))
	for _, dir := range []string{outDir, scratch} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(scratch)

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	meta := runMeta{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Users: fullSizes.users,
		GoVersion: runtime.Version(), GOMAXPROCS: procs, NProc: runtime.NumCPU(), Commit: commit(),
	}
	file := resultFile{Meta: meta, Workloads: map[string]*workloadRuns{}}
	var last *result
	failed := int64(0)
	for _, name := range names {
		wr := &workloadRuns{}
		file.Workloads[name] = wr
		for i := 0; i < *runs; i++ {
			e := &env{
				seed: *seed, sz: fullSizes,
				window: time.Duration(*seconds * float64(time.Second)),
				dir:    filepath.Join(scratch, fmt.Sprintf("%s-%d", name, i)),
				logf:   func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
			}
			if meta.Trace {
				e.rec = newRecorder()
				e.fs = &traceFS{rec: e.rec}
			}
			start := time.Now()
			r, err := runWorkload(name, e)
			if err != nil {
				return err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return err
			}
			e.logf("%s: run %d took %.1fs", name, i+1, time.Since(start).Seconds())
			if meta.Trace {
				path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", name))
				if err := e.rec.write(path, meta, r.ladder); err != nil {
					return err
				}
			}
			wr.Attempted += r.attempted
			wr.Failed += r.failed
			wr.Runs = append(wr.Runs, r.m)
			failed += r.failed
			printMetrics(name, r)
			last = r
		}
	}

	suffix := ""
	if meta.Trace {
		suffix += "-trace"
	}
	if *workload != "" {
		suffix += "-" + *workload
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d%s.json", *seed, suffix))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if *workload != "" {
		line, err := driverLine(last, meta.Trace)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed the oracle", failed)
	}
	return nil
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json: the checkout the driver runs the benchmark from.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// commit is the revision the binary was built from, when the toolchain
// could stamp one: the driver's checkout is not a git repository.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// printMetrics prints every metric the run measured, by name, with its
// unit.
func printMetrics(workload string, r *result) {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s (attempted %d, failed %d)\n", workload, r.attempted, r.failed)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
}

// driverLine is the result line BENCHMARK.json's contract asks for: the
// gated end-to-end metrics of a plain run, or every per-layer metric of a
// traced one. A layer the workload left idle reads 0.
func driverLine(r *result, traced bool) (string, error) {
	defs := gatedMetrics
	if traced {
		defs = layerMetrics
	}
	out := make(metrics, len(defs))
	for _, d := range defs {
		out.set(d.Name, d.Unit, r.m.value(d.Name))
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	return string(line), err
}
