package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSpecMatchesBenchmarkFile pins the tables in spec.go to BENCHMARK.json.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: file has %v, spec.go has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(f.EndToEnd, gatedMetrics) {
		t.Errorf("end_to_end differs:\nfile    %+v\nspec.go %+v", f.EndToEnd, gatedMetrics)
	}
	if !reflect.DeepEqual(f.PerLayer, layerMetrics) {
		t.Errorf("per_layer differs from spec.go's layerMetrics")
	}
}

// TestSmoke runs every workload, plain and traced, at 1000 users with
// 0.2 s windows, and checks that each run emits exactly the metrics
// BENCHMARK.json names, all finite and with their units, and that no op
// failed the oracle.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			mode := map[bool]string{false: "plain", true: "traced"}[traced]
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel() // no timing is asserted here
				smokeRun(t, f, name, traced)
			})
		}
	}
}

func smokeRun(t *testing.T, f benchmarkFile, name string, traced bool) {
	e := &env{seed: 1, sz: smokeSizes, window: 200 * time.Millisecond, dir: t.TempDir(), logf: t.Logf}
	want := f.EndToEnd
	if traced {
		e.rec = newRecorder()
		e.fs = &traceFS{rec: e.rec}
		want = f.PerLayer
	}
	r, err := runWorkload(name, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.m.value("failed_share") != 0 {
		t.Errorf("%d of %d ops failed the oracle", r.failed, r.attempted)
	}
	var line struct {
		Metrics metrics `json:"metrics"`
	}
	text, err := driverLine(r, traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(text), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
	}
	for _, def := range want {
		got, ok := r.m[def.Name]
		switch {
		case !ok && !traced:
			t.Errorf("end-to-end metric %s not measured", def.Name)
		case ok && (math.IsNaN(got.Value) || math.IsInf(got.Value, 0)):
			t.Errorf("%s = %v", def.Name, got.Value)
		case ok && got.Unit != def.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", def.Name, got.Unit, def.Unit)
		}
		if line.Metrics[def.Name].Unit != def.Unit {
			t.Errorf("result line lacks %s in %s", def.Name, def.Unit)
		}
	}
}
