package policy

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/codec"
)

func buildRandomStore(t testing.TB, seed int64, n, policies int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := NewStore(Region{MaxX: 1000, MaxY: 1000}, 1440)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		owner := UserID(i)
		for p := 0; p < policies; p++ {
			peer := UserID(rng.Intn(n) + 1)
			if peer == owner {
				continue
			}
			role := Role(rune('a' + p%5))
			s.SetRelation(owner, peer, role)
			pol := Policy{
				Role: role,
				Locr: Region{
					MinX: rng.Float64() * 500, MinY: rng.Float64() * 500,
					MaxX: 500 + rng.Float64()*500, MaxY: 500 + rng.Float64()*500,
				},
				Tint: TimeInterval{Start: rng.Float64() * 1440, End: rng.Float64() * 1440},
			}
			if err := s.AddPolicy(owner, pol); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := buildRandomStore(t, 3, 60, 6)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Space() != s.Space() || got.DayLength() != s.DayLength() {
		t.Fatal("domain parameters not preserved")
	}
	if got.NumPolicies() != s.NumPolicies() {
		t.Fatalf("policies = %d, want %d", got.NumPolicies(), s.NumPolicies())
	}
	// Behavioral equivalence: Allows, Compatibility, and Grantors agree.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		a := UserID(rng.Intn(60) + 1)
		b := UserID(rng.Intn(60) + 1)
		x, y := rng.Float64()*1000, rng.Float64()*1000
		tm := rng.Float64() * 1440
		if s.Allows(a, b, x, y, tm) != got.Allows(a, b, x, y, tm) {
			t.Fatalf("Allows(%d,%d) diverges", a, b)
		}
		if s.Compatibility(a, b) != got.Compatibility(a, b) {
			t.Fatalf("Compatibility(%d,%d) diverges", a, b)
		}
	}
	for u := UserID(1); u <= 60; u++ {
		g1, g2 := s.Grantors(u), got.Grantors(u)
		if len(g1) != len(g2) {
			t.Fatalf("Grantors(%d): %d vs %d", u, len(g1), len(g2))
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("Grantors(%d) diverge at %d", u, i)
			}
		}
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := buildRandomStore(t, 5, 40, 4)
	var b1, b2 bytes.Buffer
	if err := s.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two saves of the same store differ")
	}
}

func TestSequenceValuesSurviveRoundTrip(t *testing.T) {
	s := buildRandomStore(t, 7, 50, 5)
	users := make([]UserID, 50)
	for i := range users {
		users[i] = UserID(i + 1)
	}
	a1, err := AssignSequenceValues(s, users, AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AssignSequenceValues(loaded, users, AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if a1.SV[u] != a2.SV[u] {
			t.Fatalf("SV(%d) = %g vs %g after round trip", u, a1.SV[u], a2.SV[u])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// FuzzPolicyLoad feeds Load the bytes of a checkpoint's .policies side
// file or a logged policy blob. Load must be total (a store or an error,
// never a panic); bytes that do not open with the 0xC7 envelope — the bare
// gob stream of the generation before it among them — must be refused as
// another format; and a store it returns must be one Save can write and
// Load read back unchanged, whose grantor lists hold exactly its granted
// relations, each once.
func FuzzPolicyLoad(f *testing.F) {
	data, err := os.ReadFile("../../peb/testdata/golden/current/golden.idx.policies.1")
	if err != nil {
		f.Fatalf("golden policy snapshot: %v", err)
	}
	rd := codec.NewReader(data, 2) // past magic and version
	rd.TakeUvarint("crc")
	bare := rd.TakeBytes("body") // what Save wrote before the envelope
	if rd.Err() != nil {
		f.Fatalf("golden policy snapshot: %v", rd.Err())
	}
	for _, seed := range [][]byte{data, bare} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := bytes.Clone(seed)
		flipped[len(flipped)-1] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xC7})
	f.Add([]byte{0xC7, 0x02, 0x00, 0x00})
	f.Add([]byte{0xC7, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if len(data) == 0 || data[0] != codec.MagicPolicySnapshot {
			if !errors.Is(err, codec.ErrUnsupportedFormat) {
				t.Fatalf("unstamped bytes: err = %v, want ErrUnsupportedFormat", err)
			}
			return
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("loaded store does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved store does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("store changed across a save and load: %d policies, then %d", s.NumPolicies(), again.NumPolicies())
		}

		type grant struct{ o, v UserID }
		seen := map[grant]bool{}
		s.ForEachGrant(func(o, v UserID, _ Policy) bool {
			if seen[grant{o, v}] {
				t.Fatalf("relation %d→%d indexed twice", o, v)
			}
			seen[grant{o, v}] = true
			return true
		})
		n := 0
		for _, u := range s.users {
			g := u.grantors
			if !slices.IsSorted(g) || len(slices.Compact(slices.Clone(g))) != len(g) {
				t.Fatalf("Grantors(%d) = %v: not strictly ascending", u.id, g)
			}
			for _, o := range g {
				if !seen[grant{o, u.id}] {
					t.Fatalf("Grantors(%d) holds %d, which grants it nothing", u.id, o)
				}
			}
			n += len(g)
		}
		if n != len(seen) {
			t.Fatalf("grantor lists hold %d entries for %d grants", n, len(seen))
		}
	})
}
