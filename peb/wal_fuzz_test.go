package peb

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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

// marshalRecordGob is the original encoding/gob record serialization, the
// writer side of unmarshalRecord's fallback: tests mint gob-era records
// with it.
func marshalRecordGob(rec *walRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// fuzzRecord deterministically builds a walRecord from fuzz-controlled
// raw material, exercising every op kind and field shape.
func fuzzRecord(seq, txnID uint64, txnState uint8, numOps, kindSeed int, f1, f2, f3 float64, role string, blob []byte) walRecord {
	rec := walRecord{Seq: seq, NextSV: f1, TxnID: txnID, TxnState: txnState}
	n := int(uint(numOps) % 9)
	for i := 0; i < n; i++ {
		kind := walOpKind(uint(kindSeed+i) % 7)
		op := walOp{Kind: kind}
		uid := UserID(seq>>16) + UserID(i)
		switch kind {
		case walOpSetSV:
			op.UID, op.SV = uid, f2
		case walOpUpsert:
			op.Obj = Object{UID: uid, X: f1, Y: f2, VX: f3, VY: -f1, T: f3 * 0.5}
		case walOpRemove:
			op.UID = uid
		case walOpRelation:
			op.Own, op.Peer, op.Role = uid, uid+1, Role(role)
		case walOpGrant:
			op.Own, op.Role = uid, Role(role)
			op.Locr = Region{MinX: f1, MinY: f2, MaxX: f1 + 10, MaxY: f2 + 10}
			op.Tint = TimeInterval{Start: f3, End: f3 + 1}
		case walOpEncode:
			n := int(txnID % 5)
			for j := 0; j < n; j++ {
				op.Assign = append(op.Assign, assignRec{UID: uid + UserID(j), SV: f2 + float64(j)})
			}
			op.MaxSV, op.Groups = f3, n
		case walOpLoadPolicies:
			op.Blob = blob
		}
		rec.Ops = append(rec.Ops, op)
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
		dec, err := unmarshalRecord(enc)
		if err != nil {
			t.Fatalf("decode of freshly encoded record failed: %v", err)
		}
		re := appendRecord(nil, &dec)
		if !bytes.Equal(enc, re) {
			t.Fatalf("round trip not identical:\n enc %x\n re  %x", enc, re)
		}
		if dec.Seq != rec.Seq || dec.TxnID != rec.TxnID || dec.TxnState != rec.TxnState || len(dec.Ops) != len(rec.Ops) {
			t.Fatalf("header mismatch: %+v vs %+v", dec, rec)
		}
	})
}

func FuzzWALRecordDecode(f *testing.F) {
	for _, seed := range fuzzDecodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic: a record, or an error. (Covers both the binary
		// decoder and the legacy gob fallback dispatch.)
		rec, err := unmarshalRecord(data)
		if err == nil {
			// Whatever decoded must re-encode without panicking too.
			_ = appendRecord(nil, &rec)
		}
	})
}

// fuzzDecodeSeeds builds the decode corpus: valid records of every shape,
// plus systematic corruptions (truncations, flipped bytes, inflated
// counts) and legacy gob bytes for the fallback path.
func fuzzDecodeSeeds() [][]byte {
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
	// Future codec version.
	seeds = append(seeds, []byte{0xB6, 0x63, 0x01})
	// Legacy gob record (fallback path).
	gobRec := walRecord{Seq: 9, NextSV: 4, Ops: []walOp{{Kind: walOpRemove, UID: 3}}}
	if gb, err := marshalRecordGob(&gobRec); err == nil {
		seeds = append(seeds, gb)
		seeds = append(seeds, gb[:len(gb)/2])
	}
	seeds = append(seeds, []byte{}, []byte{0xB6}, []byte{0x00}, []byte{0xFF})
	return seeds
}

// TestWALCodecRejectsCorruption spot-checks decode strictness outside the
// fuzzer: truncation, trailing bytes, unknown kinds, future versions and
// oversized counts must all error (not panic, not succeed).
func TestWALCodecRejectsCorruption(t *testing.T) {
	rec := fuzzRecord(42, 7, 1, 6, 0, 3.5, -1, 9, "f", []byte("pp"))
	enc := appendRecord(nil, &rec)
	if _, err := unmarshalRecord(enc); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := unmarshalRecord(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := unmarshalRecord(append(bytes.Clone(enc), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := unmarshalRecord([]byte{0xB6, 0x02, 0x01}); err == nil {
		t.Fatal("future codec version accepted")
	}
	bad := bytes.Clone(enc)
	bad[len(bad)-1] ^= 0x80 // damage the tail varint
	if _, err := unmarshalRecord(bad); err == nil {
		t.Log("tail flip decoded (can legitimately remain valid); corpus covers systematic flips")
	}
}

// upsertStreamRecord is the i-th record of a synthetic movement log: one
// single-object Upsert, the shape that dominates a real one.
func upsertStreamRecord(i int) walRecord {
	return walRecord{
		Seq:    uint64(i + 1),
		NextSV: float64(i%97) + 0.5,
		Ops: []walOp{{
			Kind: walOpUpsert,
			Obj: Object{
				UID: UserID(i%1000 + 1),
				X:   float64(i * 37 % 1000),
				Y:   float64(i * 59 % 1000),
				VX:  float64(i%5) - 2,
				VY:  float64(i%3) - 1,
				T:   float64(i % 50),
			},
		}},
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

// TestWALCodecGobInterop pins the fallback dispatch: a gob-era record and
// its binary re-encoding decode to the same logical record.
func TestWALCodecGobInterop(t *testing.T) {
	rec := fuzzRecord(11, 0, 0, 8, 2, 1.25, 2.5, 3.75, "c", []byte("snapshot"))
	gb, err := marshalRecordGob(&rec)
	if err != nil {
		t.Fatal(err)
	}
	fromGob, err := unmarshalRecord(gb)
	if err != nil {
		t.Fatalf("gob fallback decode: %v", err)
	}
	a := appendRecord(nil, &fromGob)
	b := appendRecord(nil, &rec)
	if !bytes.Equal(a, b) {
		t.Fatal("gob-decoded record re-encodes differently from the original")
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
	for i, seed := range fuzzDecodeSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(fuzzDecodeSeeds()), dir)
}
