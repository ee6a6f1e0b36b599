package peb

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/core"
)

// Fuzz coverage for the binary WAL record codec (walcodec.go).
//
// Two properties are pinned:
//
//   - Round-trip identity: any record the encoder can produce decodes to a
//     value that re-encodes to the identical bytes. (Byte-level identity
//     sidesteps NaN's x != x and nil-vs-empty slice questions — if the
//     bytes agree, the values agree for every purpose replay has.)
//
//   - Decode totality: arbitrary input NEVER panics the decoder — it
//     either yields a record or an error. Recovery reads these bytes off
//     a crashed disk; a panic would turn recoverable corruption into an
//     unrecoverable process.

// gobEraRecord is a log record as the engine wrote it before the binary
// codec existed: a bare encoding/gob stream. No reader is left for it; the
// decoder must refuse it.
func gobEraRecord(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "gob-era-record.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fuzzRecord deterministically builds a walRecord from fuzz-controlled
// raw material, exercising every op kind and field shape.
func fuzzRecord(seq, txnID uint64, txnState uint8, numOps, kindSeed int, f1, f2, f3 float64, role string, blob []byte) walRecord {
	rec := walRecord{Seq: seq, NextSV: f1, TxnID: txnID, TxnState: txnState}
	n := int(uint(numOps) % 9)
	for i := 0; i < n; i++ {
		kind := uint(kindSeed+i) % 7
		uid := UserID(seq>>16) + UserID(i)
		switch kind {
		case uint(core.OpSetSV):
			rec.Ops.Idx = append(rec.Ops.Idx, core.BatchOp{Kind: core.OpSetSV, UID: uid, SV: f2})
		case uint(core.OpUpsert):
			rec.Ops.Idx = append(rec.Ops.Idx, core.BatchOp{Kind: core.OpUpsert,
				Obj: Object{UID: uid, X: f1, Y: f2, VX: f3, VY: -f1, T: f3 * 0.5}})
		case uint(core.OpRemove):
			rec.Ops.Idx = append(rec.Ops.Idx, core.BatchOp{Kind: core.OpRemove, UID: uid})
		default:
			op := polOp{Kind: polOpKind(kind)}
			switch op.Kind {
			case polOpRelation:
				op.Own, op.Peer, op.Role = uid, uid+1, Role(role)
			case polOpGrant:
				op.Own, op.Role = uid, Role(role)
				op.Locr = Region{MinX: f1, MinY: f2, MaxX: f1 + 10, MaxY: f2 + 10}
				op.Tint = TimeInterval{Start: f3, End: f3 + 1}
			case polOpEncode:
				n := int(txnID % 5)
				for j := 0; j < n; j++ {
					op.Assign = append(op.Assign, assignRec{UID: uid + UserID(j), SV: f2 + float64(j)})
				}
				op.MaxSV, op.Groups = f3, n
			case polOpLoadPolicies:
				op.Blob = blob
			}
			rec.Ops.Pol = append(rec.Ops.Pol, op)
		}
	}
	return rec
}

func FuzzWALRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(0), 3, 0, 1.5, -2.25, 100.0, "f", []byte("pol"))
	f.Add(uint64(1<<40), uint64(7), uint8(1), 8, 3, math.Inf(1), math.NaN(), math.Copysign(0, -1), "coworker", []byte{})
	f.Add(uint64(0), uint64(1<<63), uint8(3), 7, 6, 1e-300, 1e300, 0.1, "", []byte{0xB6, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, seq, txnID uint64, txnState uint8, numOps, kindSeed int, f1, f2, f3 float64, role string, blob []byte) {
		rec := fuzzRecord(seq, txnID, txnState, numOps, kindSeed, f1, f2, f3, role, blob)
		enc := appendRecord(nil, &rec)
		dec, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded record failed: %v", err)
		}
		re := appendRecord(nil, &dec)
		if !bytes.Equal(enc, re) {
			t.Fatalf("round trip not identical:\n enc %x\n re  %x", enc, re)
		}
		if dec.Seq != rec.Seq || dec.TxnID != rec.TxnID || dec.TxnState != rec.TxnState ||
			len(dec.Ops.Pol) != len(rec.Ops.Pol) || len(dec.Ops.Idx) != len(rec.Ops.Idx) {
			t.Fatalf("header mismatch: %+v vs %+v", dec, rec)
		}
	})
}

func FuzzWALRecordDecode(f *testing.F) {
	for _, seed := range fuzzDecodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic: a record, or an error — and for bytes that do
		// not open with the record magic (a gob-era record among them),
		// the one error that says so.
		rec, err := decodeRecord(data)
		if len(data) == 0 || data[0] != codec.MagicWALRecord {
			if !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("unstamped bytes: err = %v, want ErrUnsupportedFormat", err)
			}
			return
		}
		if err == nil {
			// Whatever decoded must re-encode without panicking too.
			_ = appendRecord(nil, &rec)
		}
	})
}

// fuzzDecodeSeeds builds the decode corpus: valid records of every shape,
// plus systematic corruptions (truncations, flipped bytes, inflated
// counts) and a gob-era record, which must be refused.
func fuzzDecodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	recs := []walRecord{
		{Seq: 1, NextSV: 2},
		fuzzRecord(7, 3, 1, 8, 0, 1.5, -0.25, 12, "f", []byte("blob")),
		fuzzRecord(1<<50, 1<<62, 3, 7, 4, math.Inf(-1), math.NaN(), 1e308, "c", []byte{0, 1, 2}),
	}
	for i := range recs {
		enc := appendRecord(nil, &recs[i])
		seeds = append(seeds, enc)
		// Truncations at interesting depths.
		for _, cut := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
			if cut < len(enc) {
				seeds = append(seeds, enc[:cut])
			}
		}
		// Flip every byte of the smallest record, one at a time.
		if i == 0 {
			for j := range enc {
				mut := bytes.Clone(enc)
				mut[j] ^= 0xFF
				seeds = append(seeds, mut)
			}
		}
		// Trailing garbage.
		seeds = append(seeds, append(bytes.Clone(enc), 0xDE, 0xAD))
	}
	// Absurd op count (would OOM without the count cap).
	seeds = append(seeds, []byte{0xB6, 0x01, 0x01, 0x02, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Another codec version.
	seeds = append(seeds, []byte{0xB6, 0x63, 0x01})
	gb := gobEraRecord(t)
	seeds = append(seeds, gb, gb[:len(gb)/2])
	seeds = append(seeds, []byte{}, []byte{0xB6}, []byte{0x00}, []byte{0xFF})
	return seeds
}

// TestWALCodecRejectsCorruption spot-checks decode strictness outside the
// fuzzer: truncation, trailing bytes, unknown kinds, other versions and
// oversized counts must all error (not panic, not succeed).
func TestWALCodecRejectsCorruption(t *testing.T) {
	rec := fuzzRecord(42, 7, 1, 6, 0, 3.5, -1, 9, "f", []byte("pp"))
	enc := appendRecord(nil, &rec)
	if _, err := decodeRecord(enc); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeRecord(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeRecord(append(bytes.Clone(enc), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for _, v := range []byte{0x00, 0x02} {
		if _, err := decodeRecord([]byte{0xB6, v, 0x01}); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("codec version %d: err = %v, want ErrUnsupportedFormat", v, err)
		}
	}
	bad := bytes.Clone(enc)
	bad[len(bad)-1] ^= 0x80 // damage the tail varint
	if _, err := decodeRecord(bad); err == nil {
		t.Log("tail flip decoded (can legitimately remain valid); corpus covers systematic flips")
	}
}

// upsertStreamRecord is the i-th record of a synthetic movement log: one
// single-object Upsert, the shape that dominates a real one.
func upsertStreamRecord(i int) walRecord {
	return walRecord{
		Seq:    uint64(i + 1),
		NextSV: float64(i%97) + 0.5,
		Ops: opList{Idx: []core.BatchOp{{
			Kind: core.OpUpsert,
			Obj: Object{
				UID: UserID(i%1000 + 1),
				X:   float64(i * 37 % 1000),
				Y:   float64(i * 59 % 1000),
				VX:  float64(i%5) - 2,
				VY:  float64(i%3) - 1,
				T:   float64(i % 50),
			},
		}}},
	}
}

// TestWALCodecUpsertRecordCost pins what the encoder charges for that
// record: its size, exactly (the stream is fixed, so any format change
// moves the total), and no allocation once the caller's buffer has grown
// — the append path reuses one buffer the same way.
func TestWALCodecUpsertRecordCost(t *testing.T) {
	const records, wantBytes = 4000, 111847 // 27.96 B/record
	var buf []byte
	total := 0
	for i := 0; i < records; i++ {
		rec := upsertStreamRecord(i)
		buf = appendRecord(buf[:0], &rec)
		total += len(buf)
	}
	if total != wantBytes {
		t.Errorf("%d single-Upsert records encode to %d bytes (%.2f each), recorded %d",
			records, total, float64(total)/records, wantBytes)
	}
	i := 0
	allocs := testing.AllocsPerRun(records, func() {
		rec := upsertStreamRecord(i)
		i++
		buf = appendRecord(buf[:0], &rec)
	})
	if allocs != 0 {
		t.Errorf("encoding a record allocates %.2f times, recorded 0", allocs)
	}
}

// TestWALCodecFilesInterleavedOps: the writer emits the policy group, then
// the index group, but the format does not say so — a record that
// interleaves them decodes into the same two groups, each in its own
// order, which is all applyOps ever honoured. Also pins what the split
// bought: an index operation is a core.BatchOp, not a union of every kind.
func TestWALCodecFilesInterleavedOps(t *testing.T) {
	rec := func(ops opList) []byte { return appendRecord(nil, &walRecord{Seq: 3, NextSV: 8, Ops: ops}) }
	hdr := len(rec(opList{})) // the header ends with a one-byte op count
	grant := []polOp{{Kind: polOpGrant, Own: 4, Role: "f", Locr: goldenRegion(4), Tint: goldenDay}}
	upsert := core.BatchOp{Kind: core.OpUpsert, Obj: goldenObj(61, 2)}
	remove := core.BatchOp{Kind: core.OpRemove, UID: 9}
	canonical := rec(opList{Pol: grant, Idx: []core.BatchOp{upsert, remove}})
	mixed := bytes.Clone(canonical[:hdr])
	for _, one := range []opList{{Idx: []core.BatchOp{upsert}}, {Pol: grant}, {Idx: []core.BatchOp{remove}}} {
		mixed = append(mixed, rec(one)[hdr:]...)
	}
	got, err := decodeRecord(mixed)
	if err != nil || bytes.Equal(mixed, canonical) || !bytes.Equal(appendRecord(nil, &got), canonical) {
		t.Fatalf("interleaved record decoded to %+v (%v), want [grant] and [upsert remove]", got.Ops, err)
	}
	if size := unsafe.Sizeof(core.BatchOp{}); size > 72 {
		t.Errorf("an index op is %d bytes, recorded 72", size)
	}
}

// TestRegenerateFuzzCorpus writes the decode seed corpus into
// testdata/fuzz/FuzzWALRecordDecode in the native `go test fuzz v1`
// format, so the interesting inputs above are exercised by plain `go
// test` runs on every machine, not only by explicit -fuzz sessions. Run
// with PEB_REGEN_FUZZ=1 when the seed set changes.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PEB_REGEN_FUZZ") == "" {
		t.Skip("set PEB_REGEN_FUZZ=1 to rewrite testdata/fuzz/FuzzWALRecordDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALRecordDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := fuzzDecodeSeeds(t)
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(seeds), dir)
}
