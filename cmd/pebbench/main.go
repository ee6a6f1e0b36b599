// Command pebbench reproduces the paper's experiments: it builds the
// PEB-tree and the spatial-index baseline over identical synthetic
// workloads and reports the mean query I/O cost per data point for every
// figure of Sec. 7 (plus four ablation studies).
//
// Usage:
//
//	pebbench -list
//	pebbench -exp fig12a [-scale 0.5] [-seed 1] [-parallel 4] [-queries 200] [-csv] [-v]
//	pebbench -all -scale 0.25 -o results/
//
// The -scale flag multiplies every population size in a sweep, so full
// paper-scale sweeps (-scale 1, the default) and quick shape checks
// (-scale 0.1) use the same code path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and default settings")
		expID    = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Float64("scale", 1, "population scale factor")
		seed     = flag.Int64("seed", 1, "workload seed")
		parallel = flag.Int("parallel", 0, "concurrent data points (0 = auto)")
		queries  = flag.Int("queries", 0, "queries per data point (0 = 200)")
		csv      = flag.Bool("csv", false, "print CSV instead of an aligned table")
		outDir   = flag.String("o", "", "also write <id>.csv files into this directory")
		verbose  = flag.Bool("v", false, "log per-point progress to stderr")
		quick    = flag.Bool("quick", false, "smoke-test preset: tiny populations, few queries (CI)")
	)
	flag.Parse()
	if *quick {
		if *scale > 0.02 {
			*scale = 0.02
		}
		if *queries == 0 {
			*queries = 20
		}
	}

	switch {
	case *list:
		printList()
		return
	case *expID == "" && !*all:
		fmt.Fprintln(os.Stderr, "pebbench: need -exp <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	opts := exp.Options{
		Scale:      *scale,
		Seed:       *seed,
		Parallel:   *parallel,
		QueryCount: *queries,
	}
	if *verbose {
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, time.Now().Format("15:04:05 ")+format+"\n", args...)
		}
	}

	var targets []exp.Experiment
	if *all {
		targets = exp.Experiments
	} else {
		e, ok := exp.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "pebbench: unknown experiment %q (see -list)\n", *expID)
			os.Exit(2)
		}
		targets = []exp.Experiment{e}
	}

	for _, e := range targets {
		start := time.Now()
		table, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pebbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Print(table.String())
			fmt.Printf("(%s in %v at scale %g)\n\n", e.ID, time.Since(start).Round(time.Second), *scale)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "pebbench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "pebbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func printList() {
	fmt.Println("Experiments (paper figure → id):")
	for _, e := range exp.Experiments {
		fmt.Printf("  %-22s %s\n", e.ID, e.Title)
	}
	cfg := exp.DefaultConfig()
	fmt.Println("\nDefault settings (Table 1, bold values):")
	fmt.Printf("  users               %d\n", cfg.Workload.NumUsers)
	fmt.Printf("  policies per user   %d\n", cfg.Workload.PoliciesPerUser)
	fmt.Printf("  grouping factor     %g\n", cfg.Workload.GroupingFactor)
	fmt.Printf("  space               %g x %g\n", cfg.Workload.Space, cfg.Workload.Space)
	fmt.Printf("  max speed           %g\n", cfg.Workload.MaxSpeed)
	fmt.Printf("  query window side   %g\n", cfg.WindowSide)
	fmt.Printf("  k                   %d\n", cfg.K)
	fmt.Printf("  buffer              %d pages\n", cfg.Buffer)
	fmt.Printf("  queries per point   %d\n", cfg.QueryCount)
}
