package policy

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/codec"
)

// sealed wraps body in the current snapshot envelope.
func sealed(body []byte) []byte {
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

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
	if !got.Equal(s) || !s.Equal(got) {
		t.Fatal("loaded store is not Equal to the saved one")
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

// gobGeneration is a policies file of the generation before this one: the
// golden fixture's, as the version 1 envelope around a gob body wrote it.
const gobGeneration = "testdata/gob-policies.v1"

func TestLoadRefusesGobGeneration(t *testing.T) {
	data, err := os.ReadFile(gobGeneration)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != codec.MagicPolicySnapshot || data[1] != 1 {
		t.Fatalf("%s opens with % x, not the version 1 envelope", gobGeneration, data[:2])
	}
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, codec.ErrUnsupportedFormat) {
		t.Fatalf("gob-bodied snapshot: err = %v, want ErrUnsupportedFormat", err)
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
// never a panic) and size nothing from a count the bytes merely claim;
// bytes that do not open with the 0xC7 envelope and the current version —
// the gob-bodied file of the generation before it among them — must be
// refused as another format; and a store it returns must survive a save
// and load unchanged, and its grantor lists hold exactly its granted
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
	gob, err := os.ReadFile(gobGeneration)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob)
	// Counts that claim far more than the body holds.
	var body []byte
	for range 5 {
		body = codec.AppendFloat(body, 1000)
	}
	for range 4 {
		body = codec.AppendUvarint(body, 1<<40)
	}
	f.Add(sealed(body))

	f.Fuzz(func(t *testing.T, data []byte) {
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		s, err := Load(bytes.NewReader(data))
		metrics.Read(allocated)
		// The largest share a claimed count can size is an owner's 104
		// bytes for the 3 it costs at least.
		if grew := allocated[0].Value.Uint64() - before; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("Load of %d bytes allocated %d", len(data), grew)
		}
		if len(data) < 2 || data[0] != codec.MagicPolicySnapshot || data[1] != envelopeVersion {
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

// snapOwner and snapRole describe a policies file owner by owner, so a
// test can write one the way Save would, or out of its rules.
type snapOwner struct {
	id    UserID
	roles []snapRole
	rels  [][2]uint64 // peer, role index
}

type snapRole struct {
	name  string
	rules []rule
}

// snapFile encodes owners in the snapshot layout, with the totals they
// add up to, plus extra to each total.
func snapFile(owners []snapOwner, extra [4]int) []byte {
	totals := extra
	totals[0] += len(owners)
	for _, o := range owners {
		totals[1] += len(o.roles)
		for _, r := range o.roles {
			totals[2] += len(r.rules)
		}
		totals[3] += len(o.rels)
	}
	var body []byte
	for _, f := range []float64{0, 0, 1000, 1000, 1440} {
		body = codec.AppendFloat(body, f)
	}
	for _, n := range totals {
		body = codec.AppendUvarint(body, uint64(n))
	}
	for _, o := range owners {
		body = codec.AppendUvarint(body, uint64(o.id))
		body = codec.AppendUvarint(body, uint64(len(o.roles)))
		for _, r := range o.roles {
			body = codec.AppendBytes(body, []byte(r.name))
			body = codec.AppendUvarint(body, uint64(len(r.rules)))
			for _, p := range r.rules {
				for _, f := range []float64{p.Locr.MinX, p.Locr.MinY, p.Locr.MaxX, p.Locr.MaxY, p.Tint.Start, p.Tint.End} {
					body = codec.AppendFloat(body, f)
				}
			}
		}
		body = codec.AppendUvarint(body, uint64(len(o.rels)))
		for _, rel := range o.rels {
			body = codec.AppendUvarint(body, rel[0])
			body = codec.AppendUvarint(body, rel[1])
		}
	}
	return sealed(body)
}

// TestLoadRefusesNonCanonical: Load accepts the layout Save writes and
// nothing else — every order, every total and every role's reason to be
// in the table is checked — so a file it accepts is one store's only
// serialization.
func TestLoadRefusesNonCanonical(t *testing.T) {
	downtown := rule{Locr: Region{0, 0, 500, 500}, Tint: TimeInterval{0, 600}}
	uptown := rule{Locr: Region{500, 500, 1000, 1000}, Tint: TimeInterval{600, 1200}}
	valid := func() []snapOwner {
		return []snapOwner{
			{id: 2, roles: []snapRole{{"family", nil}, {"friend", []rule{downtown, uptown}}}, rels: [][2]uint64{{1, 1}, {7, 0}}},
			{id: 5, roles: []snapRole{{"friend", []rule{uptown}}}},
		}
	}
	if s, err := Load(bytes.NewReader(snapFile(valid(), [4]int{}))); err != nil {
		t.Fatalf("valid file refused: %v", err)
	} else if !slices.Equal(s.Grantors(1), []UserID{2}) || s.NumPolicies() != 3 {
		t.Fatalf("valid file loads as %d policies, Grantors(1) = %v", s.NumPolicies(), s.Grantors(1))
	}
	rows := []struct {
		name  string
		edit  func(o []snapOwner) []snapOwner
		extra [4]int
	}{
		{"owners out of order", func(o []snapOwner) []snapOwner { o[1].id = 2; return o }, [4]int{}},
		{"roles out of order", func(o []snapOwner) []snapOwner {
			o[0].roles[0].name = "zzz"
			return o
		}, [4]int{}},
		{"peers out of order", func(o []snapOwner) []snapOwner { o[0].rels[1][0] = 1; return o }, [4]int{}},
		{"relation to a role past the table", func(o []snapOwner) []snapOwner { o[0].rels[0][1] = 2; return o }, [4]int{}},
		{"role with neither policy nor relation", func(o []snapOwner) []snapOwner {
			o[0].rels = o[0].rels[:1]
			return o
		}, [4]int{}},
		{"owner holding nothing", func(o []snapOwner) []snapOwner {
			return append(o, snapOwner{id: 9})
		}, [4]int{}},
		{"policy twice under a role", func(o []snapOwner) []snapOwner {
			o[1].roles[0].rules = []rule{uptown, uptown}
			return o
		}, [4]int{}},
		{"invalid region", func(o []snapOwner) []snapOwner {
			o[1].roles[0].rules[0].Locr = Region{10, 10, 5, 5}
			return o
		}, [4]int{}},
		{"totals above the owners'", func(o []snapOwner) []snapOwner { return o }, [4]int{0, 0, 1, 0}},
		{"totals beyond the bytes", func(o []snapOwner) []snapOwner { return o }, [4]int{1 << 30, 0, 0, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(snapFile(row.edit(valid()), row.extra)))
			if err == nil {
				t.Fatal("accepted")
			}
			if errors.Is(err, codec.ErrUnsupportedFormat) {
				t.Fatalf("refused as another format: %v", err)
			}
		})
	}
}
