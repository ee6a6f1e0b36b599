package peb

import (
	"runtime"
	"time"
)

// WAL codec measurement: the binary record encoder over a synthetic record
// stream. pebbench -json embeds the result in its report; the BENCH_pr*.json
// files pin the trajectory (the gob_* fields older ones carry measured the
// retired gob encoder and are ignored on read).

// WALCodecBench holds one codec measurement.
type WALCodecBench struct {
	Records int `json:"records"`
	// Bytes per record, averaged over the stream. Deterministic for a
	// fixed Records, so safe to diff across runs.
	BinaryBytesPerRecord float64 `json:"binary_bytes_per_record"`
	// Encode allocations per record. The encoder reuses one buffer (the
	// production append path does the same), so steady state is zero.
	BinaryAllocsPerOp float64 `json:"binary_allocs_per_op"`
	// Encode wall time per record. Informational: machine-dependent, not
	// a counter to diff in CI.
	BinaryNsPerOp float64 `json:"binary_ns_per_op"`
}

// benchWALRecord builds the i-th record of the synthetic stream: the
// single-op upsert shape that dominates a movement workload's log.
func benchWALRecord(i int) walRecord {
	uid := UserID(i%1000 + 1)
	return walRecord{
		Seq:    uint64(i + 1),
		NextSV: float64(i%97) + 0.5,
		Ops: []walOp{{
			Kind: walOpUpsert,
			Obj: Object{
				UID: uid,
				X:   float64(i * 37 % 1000),
				Y:   float64(i * 59 % 1000),
				VX:  float64(i%5) - 2,
				VY:  float64(i%3) - 1,
				T:   float64(i % 50),
			},
		}},
	}
}

// benchAllocsPerRun reports the average mallocs per call of fn, pinned to
// one P so unrelated goroutines cannot pollute the counter (the same
// discipline as testing.AllocsPerRun, without importing testing into the
// library).
func benchAllocsPerRun(runs int, fn func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn(0) // warm caches and lazy allocations outside the measured window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// RunWALCodecBench encodes a records-long stream with the binary codec and
// reports size, allocation, and time per record.
func RunWALCodecBench(records int) WALCodecBench {
	if records <= 0 {
		records = 1
	}
	res := WALCodecBench{Records: records}

	var binBytes int
	var buf []byte
	for i := 0; i < records; i++ {
		rec := benchWALRecord(i)
		buf = appendRecord(buf[:0], &rec)
		binBytes += len(buf)
	}
	res.BinaryBytesPerRecord = float64(binBytes) / float64(records)

	res.BinaryAllocsPerOp = benchAllocsPerRun(records, func(i int) {
		rec := benchWALRecord(i)
		buf = appendRecord(buf[:0], &rec)
	})
	// Subtract the record-construction cost so the encoder is what the
	// number shows. Construction is alloc-free (value types), so only the
	// timing loop needs the control measurement.
	ctrl := timePerOp(records, func(i int) {
		rec := benchWALRecord(i)
		_ = rec
	})
	res.BinaryNsPerOp = timePerOp(records, func(i int) {
		rec := benchWALRecord(i)
		buf = appendRecord(buf[:0], &rec)
	}) - ctrl
	return res
}

func timePerOp(runs int, fn func(i int)) float64 {
	fn(0)
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs)
}
