package codec

import (
	"bytes"
	"math"
	"testing"
)

func TestFloatRoundTrip(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 3.141592653589793,
		1e-300, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		42, 999.25, 1440, -273.15,
	}
	for _, f := range cases {
		b := AppendFloat(nil, f)
		r := NewReader(b, 0)
		got := r.TakeFloat("f")
		r.ExpectEnd()
		if err := r.Err(); err != nil {
			t.Fatalf("%g: %v", f, err)
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%g round-tripped to %g (bits %x vs %x)",
				f, got, math.Float64bits(f), math.Float64bits(got))
		}
	}
}

// TestFloatCompact pins the codec's reason to exist: typical small-
// magnitude coordinates cost a fraction of the flat 8 bytes.
func TestFloatCompact(t *testing.T) {
	for _, f := range []float64{0, 1, 2, 100, 512, 999} {
		if n := len(AppendFloat(nil, f)); n > 4 {
			t.Fatalf("AppendFloat(%g) = %d bytes, want ≤ 4", f, n)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("f"), []byte("role-name"), bytes.Repeat([]byte{0xAB}, 1000)} {
		b := AppendBytes(nil, payload)
		r := NewReader(b, 0)
		got := r.TakeBytes("p")
		r.ExpectEnd()
		if err := r.Err(); err != nil {
			t.Fatalf("%q: %v", payload, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %q -> %q", payload, got)
		}
	}
}

func TestReaderStrictness(t *testing.T) {
	// Truncated varint.
	r := NewReader([]byte{0x80}, 0)
	r.TakeUvarint("v")
	if r.Err() == nil {
		t.Fatal("truncated varint accepted")
	}
	// Byte-string length past the buffer.
	b := AppendUvarint(nil, 100)
	r = NewReader(append(b, 1, 2, 3), 0)
	r.TakeBytes("p")
	if r.Err() == nil {
		t.Fatal("oversized byte-string length accepted")
	}
	// Trailing garbage.
	r = NewReader(AppendUvarint(nil, 7), 0)
	r.TakeUvarint("v")
	r.ExpectEnd()
	if r.Err() != nil {
		t.Fatalf("clean end rejected: %v", r.Err())
	}
	r = NewReader(append(AppendUvarint(nil, 7), 0x00), 0)
	r.TakeUvarint("v")
	r.ExpectEnd()
	if r.Err() == nil {
		t.Fatal("trailing byte accepted")
	}
	// Count exceeding what the remaining bytes could back.
	r = NewReader(AppendUvarint(nil, 1<<40), 0)
	r.TakeCount("items", 1)
	if r.Err() == nil {
		t.Fatal("absurd count accepted")
	}
	// First error sticks: later takes return zero values, not panics.
	r = NewReader([]byte{0x80}, 0)
	r.TakeUvarint("v")
	first := r.Err()
	if got := r.TakeFloat("f"); got != 0 {
		t.Fatalf("take after error = %g, want 0", got)
	}
	if r.Err() != first {
		t.Fatal("later take replaced the first error")
	}
}
