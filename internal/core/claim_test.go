package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/motion"
	"repro/internal/policy"
)

// claimRef is claim without the signature — the binary search alone, as it
// was before the bit test was put in front of it.
func claimRef(ft *friendTable, uid motion.UserID) bool {
	i, ok := slices.BinarySearchFunc(ft.friends, uid, func(f friend, uid motion.UserID) int { return cmp.Compare(f.uid, uid) })
	if !ok || ft.friends[i].seen {
		return false
	}
	ft.friends[i].seen = true
	ft.rows[ft.friends[i].row].unseen--
	return true
}

// claimView is a view holding just what friendGroups reads: every uid in
// grantors grants the issuer a policy, has a sequence value (one of a few,
// so rows are shared) and, unless listed in away, an entry in the index.
func claimView(t testing.TB, issuer motion.UserID, grantors, away []motion.UserID) *View {
	t.Helper()
	pol, err := policy.NewStore(policy.Region{MaxX: 1000, MaxY: 1000}, testDayLen)
	if err != nil {
		t.Fatal(err)
	}
	v := &View{policies: pol, svEnc: map[motion.UserID]uint64{}, cur: map[motion.UserID]btree.KV{}}
	for _, uid := range grantors {
		pol.SetRelation(policy.UserID(uid), policy.UserID(issuer), "f")
		p := policy.Policy{Role: "f", Locr: pol.Space(), Tint: policy.TimeInterval{Start: 0, End: testDayLen}}
		if err := pol.AddPolicy(policy.UserID(uid), p); err != nil {
			t.Fatal(err)
		}
		v.svEnc[uid] = uint64(uid % 7)
		if !slices.Contains(away, uid) {
			v.cur[uid] = btree.KV{Key: uint64(uid), UID: uint32(uid)}
		}
	}
	return v
}

// TestClaimSignatureExact: the signature in front of claim's binary search
// changes nothing — on friend sets that include uids equal mod 256, uid 0
// and the largest uid, claim answers and updates the table exactly as the
// search alone does, call for call, also when the table is refilled for
// another issuer.
func TestClaimSignatureExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1906))
	const top = ^motion.UserID(0)
	var ft friendTable // one table, refilled for every set as the pools refill theirs
	for set := 0; set < 300; set++ {
		issuer := motion.UserID(5000 + set)
		base := motion.UserID(rng.Uint32())
		grantors := []motion.UserID{base, base + 256, base + 512, base + 1<<16} // one signature bit
		for n := rng.Intn(40); n > 0; n-- {
			grantors = append(grantors, motion.UserID(rng.Uint32()>>uint(rng.Intn(32))))
		}
		switch set % 4 {
		case 0:
			grantors = append(grantors, 0, top)
		case 1:
			grantors = append(grantors, 0)
		case 2:
			grantors = append(grantors, top, top-256)
		}
		slices.Sort(grantors)
		grantors = slices.DeleteFunc(slices.Compact(grantors), func(uid motion.UserID) bool { return uid == issuer })
		away := []motion.UserID{grantors[rng.Intn(len(grantors))]}
		v := claimView(t, issuer, grantors, away)

		v.friendGroups(issuer, &ft)
		if len(ft.friends) != len(grantors)-1 {
			t.Fatalf("set %d: %d friends of %d grantors, one of them away", set, len(ft.friends), len(grantors))
		}
		ref := friendTable{friends: slices.Clone(ft.friends), rows: slices.Clone(ft.rows)}

		// Every grantor twice (the second meeting claims nothing), their
		// neighbours mod 256, the ends of the uid space, and strangers.
		probes := []motion.UserID{0, 1, 255, 256, top, top - 1, top - 255, top - 256, issuer}
		for _, uid := range grantors {
			probes = append(probes, uid, uid, uid+256, uid-256, uid^1, uid+1<<8*motion.UserID(1+rng.Intn(200)))
		}
		for i := 0; i < 400; i++ {
			probes = append(probes, motion.UserID(rng.Uint32()>>uint(rng.Intn(32))))
		}
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		claimed := 0
		for i, uid := range probes {
			got, want := ft.claim(uid), claimRef(&ref, uid)
			if got != want {
				t.Fatalf("set %d, call %d: claim(%d) = %v, the search alone says %v", set, i, uid, got, want)
			}
			if got {
				claimed++
			}
			if !slices.Equal(ft.friends, ref.friends) || !slices.Equal(ft.rows, ref.rows) {
				t.Fatalf("set %d, call %d: claim(%d) left the table differing from the search alone", set, i, uid)
			}
		}
		if claimed != len(ft.friends) {
			t.Fatalf("set %d: %d of %d friends claimed", set, claimed, len(ft.friends))
		}
		// A bit left over from the last issuer's friends would change no
		// answer, only send more strangers on to the search.
		var sig [4]uint64
		for _, f := range ft.friends {
			sig[f.uid>>6&3] |= 1 << (f.uid & 63)
		}
		if ft.sig != sig {
			t.Fatalf("set %d: signature %x, the friends' bits are %x", set, ft.sig, sig)
		}
	}
}

// BenchmarkClaim is what a query does with one fetched leaf: some 53
// entries, one of them a friend's, against a table of 20 friends.
func BenchmarkClaim(b *testing.B) {
	rng := rand.New(rand.NewSource(1907))
	var grantors []motion.UserID
	for len(grantors) < 20 {
		grantors = append(grantors, motion.UserID(1+rng.Intn(20000)))
	}
	slices.Sort(grantors)
	grantors = slices.Compact(grantors)
	v := claimView(b, 20001, grantors, nil)
	var ft friendTable
	v.friendGroups(20001, &ft)
	leaf := []motion.UserID{grantors[7]}
	for len(leaf) < 53 {
		leaf = append(leaf, motion.UserID(1+rng.Intn(20000)))
	}
	b.ResetTimer()
	claimed := 0
	for i := 0; i < b.N; i++ {
		for j := range ft.friends {
			ft.friends[j].seen = false
		}
		for _, uid := range leaf {
			if ft.claim(uid) {
				claimed++
			}
		}
	}
	if claimed < b.N {
		b.Fatalf("%d claims in %d leaves", claimed, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(leaf)), "ns/entry")
}
