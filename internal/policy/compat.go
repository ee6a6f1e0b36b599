package policy

// This file implements the policy-comparison phase of Sec. 5.1: the score
// α ∈ [0,1] and the compatibility degree C(u1, u2) of Eq. 4.

// Alpha computes the α score between u1 and u2 and reports whether the two
// policies are "simultaneous" (the paper's P1→2 ↔ P2→1 case: the users can
// sometimes see each other at the same time, i.e., their locr and tint
// overlap).
//
// Cases (Sec. 5.1):
//   - no policy either way: α = 0.
//   - both policies exist and their regions and intervals overlap:
//     α = O(locr1,locr2)/S · D(tint1,tint2)/T, mutual = true.
//   - both exist but never simultaneously visible, or only one exists:
//     α = ½(|locr1|/S·|tint1|/T + |locr2|/S·|tint2|/T), with the missing
//     term omitted; mutual = false. This α never exceeds 0.5.
func (s *Store) Alpha(u1, u2 UserID) (alpha float64, mutual bool) {
	if u2 < u1 {
		// Canonical argument order keeps floating-point summation order —
		// and therefore the result — exactly symmetric.
		u1, u2 = u2, u1
	}
	return s.alpha(s.rulesFor(u1, u2), s.rulesFor(u2, u1))
}

// alpha is Alpha over the two directions' rules, the smaller id's first:
// P1→2 and P2→1 are the first rule of each, when there is one.
func (s *Store) alpha(r12, r21 []rule) (alpha float64, mutual bool) {
	S := s.space.Area()
	T := s.dayLen

	if len(r12) == 0 && len(r21) == 0 {
		return 0, false
	}
	if len(r12) > 0 && len(r21) > 0 {
		p12, p21 := r12[0], r21[0]
		O := p12.Locr.OverlapArea(p21.Locr)
		D := p12.Tint.OverlapDuration(p21.Tint, T)
		if O > 0 && D > 0 {
			return O / S * D / T, true
		}
	}
	a := 0.0
	if len(r12) > 0 {
		a += r12[0].Locr.Area() / S * r12[0].Tint.Duration(T) / T
	}
	if len(r21) > 0 {
		a += r21[0].Locr.Area() / S * r21[0].Tint.Duration(T) / T
	}
	return a / 2, false
}

// Compatibility returns C(u1, u2) per Eq. 4:
//
//	C = (1 + α)/2   when the users can sometimes see each other
//	                simultaneously (always > 0.5),
//	C = α           when they cannot (never exceeds 0.5),
//	C = 0           when they are unrelated.
//
// Users with C > 0 are "related"; higher values mean the pair is more
// likely to appear in each other's query results, so they should be stored
// closer together.
func (s *Store) Compatibility(u1, u2 UserID) float64 {
	return eq4(s.Alpha(u1, u2))
}

// eq4 is Eq. 4 over an α score and its mutual flag.
func eq4(alpha float64, mutual bool) float64 {
	if alpha == 0 && !mutual {
		return 0
	}
	if mutual {
		return (1 + alpha) / 2
	}
	return alpha
}

// Related reports whether C(u1, u2) > 0.
func (s *Store) Related(u1, u2 UserID) bool {
	return s.Compatibility(u1, u2) > 0
}
