package policy

// Multi-policy compatibility — the first of the paper's future-work items
// (Sec. 8: "consider multiple policies between two users for computing
// policy compatibility degree"). The paper's α (Sec. 5.1) reads one policy
// per direction; these variants aggregate over every policy the owner's
// matching role carries.
//
// Semantics: the "simultaneously visible" measure generalizes to the
// space-time measure of the union of pairwise policy intersections. The
// union is approximated by the sum of pairwise intersection measures,
// capped at 1 (exact when policies do not overlap each other, an upper
// bound otherwise); the one-sided measure is likewise the capped sum over
// the owner's policies. The single-policy case reduces exactly to Alpha.

// AlphaMulti computes the α score between u1 and u2 over all policies in
// both directions, and reports whether any pair makes the users
// simultaneously visible (the P1→2 ↔ P2→1 case).
func (s *Store) AlphaMulti(u1, u2 UserID) (alpha float64, mutual bool) {
	if u2 < u1 {
		// Canonical argument order keeps floating-point summation order —
		// and therefore the result — exactly symmetric.
		u1, u2 = u2, u1
	}
	return s.alphaMulti(s.rulesFor(u1, u2), s.rulesFor(u2, u1))
}

// alphaMulti is AlphaMulti over the two directions' rules, the smaller
// id's first.
func (s *Store) alphaMulti(p12, p21 []rule) (alpha float64, mutual bool) {
	S := s.space.Area()
	T := s.dayLen

	if len(p12) == 0 && len(p21) == 0 {
		return 0, false
	}
	// Mutual case: sum of pairwise space-time intersections, capped.
	both := 0.0
	for _, p := range p12 {
		for _, q := range p21 {
			O := p.Locr.OverlapArea(q.Locr)
			D := p.Tint.OverlapDuration(q.Tint, T)
			if O > 0 && D > 0 {
				both += O / S * D / T
			}
		}
	}
	if both > 0 {
		if both > 1 {
			both = 1
		}
		return both, true
	}
	// One-sided / disjoint case: half the capped per-side measures. The
	// result is additionally capped at 0.5 so Eq. 4's priority invariant —
	// non-mutual compatibility never exceeds mutual compatibility — holds
	// even when a side's own policies overlap each other (the per-side sum
	// double-counts overlapping measure).
	side := func(ps []rule) float64 {
		m := 0.0
		for _, p := range ps {
			m += p.Locr.Area() / S * p.Tint.Duration(T) / T
		}
		if m > 1 {
			m = 1
		}
		return m
	}
	a := (side(p12) + side(p21)) / 2
	if a > 0.5 {
		a = 0.5
	}
	return a, false
}

// CompatibilityMulti is Eq. 4 evaluated over AlphaMulti.
func (s *Store) CompatibilityMulti(u1, u2 UserID) float64 {
	return eq4(s.AlphaMulti(u1, u2))
}
