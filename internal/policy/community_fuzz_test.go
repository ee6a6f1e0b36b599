package policy

import (
	"cmp"
	"maps"
	"slices"
	"testing"
)

// FuzzAssignCommunities encodes random small relation graphs into random
// narrow fields. Every listed user gets one value of its own; a call with
// the users reversed agrees; each community's values form one band of
// consecutive steps, bands δ steps apart; the field refuses the
// assignment exactly when the values need more than its 2^Bits slots; and
// MaxSV leaves the top eighth of the field free whenever the finest step
// can.
//
// data[0] sets the number of users (high bit: leave the last one out of
// the list), data[1] the field, then each 3 bytes grant owner → peer one
// policy: owner, peer, and the policy's shape.
func FuzzAssignCommunities(f *testing.F) {
	f.Add([]byte{6, 0x0a, 0, 1, 0, 1, 2, 4, 3, 4, 8, 4, 5, 2})
	f.Add([]byte{0x89, 0x33, 0, 1, 1, 1, 0, 1, 2, 3, 3, 3, 2, 15, 7, 8, 0})
	f.Add([]byte{12, 0x62, 0, 1, 0, 0, 2, 0, 1, 2, 0, 3, 4, 10, 4, 5, 10, 5, 3, 10, 6, 7, 15, 8, 9, 3})
	f.Add([]byte{3, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		s, err := NewStore(Region{MaxX: 100, MaxY: 100}, 24)
		if err != nil {
			t.Fatal(err)
		}
		users := make([]UserID, 2+int(data[0]&0x7f)%30)
		for i := range users {
			users[i] = UserID(i*37 + 5)
		}
		listed := users[:len(users)-int(data[0]>>7)]
		bitsOf := 2 + int(data[1]&0x0f)%12
		field := SVCodec{Bits: bitsOf, FracBits: min(int(data[1]>>4)%7, bitsOf-1)}
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			owner, peer := users[int(data[0])%len(users)], users[int(data[1])%len(users)]
			role := Role(string(rune('a' + int(data[1])%len(users))))
			s.SetRelation(owner, peer, role)
			// fuzzRegions' last region is invalid, and AddPolicy refuses it.
			_ = s.AddPolicy(owner, Policy{Role: role, Locr: fuzzRegions[data[2]%4], Tint: fuzzTints[data[2]>>2%4]})
		}

		a, err := AssignCommunities(s, listed, field)
		g, label := communities(s, listed)
		community := make(map[UserID]int32, len(listed))
		for i, u := range g.users {
			community[u] = label[i]
		}
		nBands := len(slices.Compact(slices.Sorted(maps.Values(community))))
		top := uint64(bandGap + len(listed) - 1 + (nBands-1)*(bandGap-1))
		if fits := top < uint64(1)<<field.Bits; fits != (err == nil) {
			t.Fatalf("%d positions, %d-bit field: err = %v", top, field.Bits, err)
		}
		if err != nil {
			return
		}
		slots := uint64(1)<<field.Bits - 1
		if maxEnc, _ := field.Encode(a.MaxSV); top <= slots-slots/freshShare && maxEnc > slots-slots/freshShare {
			t.Fatalf("MaxSV %g encodes to %d of %d slots: the top eighth is not free", a.MaxSV, maxEnc, slots+1)
		}

		reversed := slices.Clone(listed)
		slices.Reverse(reversed)
		again, err := AssignCommunities(s, reversed, field)
		if err != nil || !maps.Equal(again.SV, a.SV) || again.MaxSV != a.MaxSV || again.Groups != a.Groups {
			t.Fatalf("reversed users: %v, or another assignment", err)
		}
		if len(a.SV) != len(listed) || a.Groups != nBands {
			t.Fatalf("%d values, %d bands; want %d, %d", len(a.SV), a.Groups, len(listed), nBands)
		}
		byValue := slices.SortedFunc(maps.Keys(a.SV), func(x, y UserID) int { return cmp.Compare(a.SV[x], a.SV[y]) })
		step := a.MaxSV / float64(top)
		runs := 1
		for i, u := range byValue {
			if _, err := field.Encode(a.SV[u]); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				continue
			}
			prev := byValue[i-1]
			want := step
			if community[u] != community[prev] {
				want = bandGap * step
				runs++
			}
			if d := a.SV[u] - a.SV[prev]; d != want {
				t.Fatalf("users %d, %d (communities %d, %d) are %g apart, want %g",
					prev, u, community[prev], community[u], d, want)
			}
		}
		if runs != nBands {
			t.Fatalf("%d communities in %d runs of values", nBands, runs)
		}
	})
}
