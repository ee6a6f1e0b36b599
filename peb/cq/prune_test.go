package cq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/zcurve"
	"repro/peb"
)

// hilbertCover is the space prune the rectangle test replaced, kept as its
// reference: the slack-enlarged window decomposed into the Hilbert cells
// of the index's grid and coarsened to 32 intervals. A state is dismissed
// when its stored position's cell lies in none of them.
type hilbertCover struct {
	grid  zcurve.Grid
	ivs   zcurve.IntervalSet
	empty bool // the enlarged window misses the space: every cell is out
}

func newHilbertCover(t *testing.T, grid zcurve.Grid, r peb.Region, slack float64) *hilbertCover {
	c := &hilbertCover{grid: grid}
	rect, ok := grid.RectOf(r.MinX-slack, r.MinY-slack, r.MaxX+slack, r.MaxY+slack)
	if !ok {
		c.empty = true
		return c
	}
	ivs, err := zcurve.HilbertDecompose(rect, grid.Order, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range ivs {
		c.ivs.Add(iv)
	}
	return c
}

// dismisses applies the cover under the same speed and freshness guards
// as Engine.outside.
func (c *hilbertCover) dismisses(e *Engine, s *sub, o *peb.Object) bool {
	if o.Speed() > e.maxSpeed || math.Abs(s.T-o.T) > e.maxUI {
		return false
	}
	return c.empty || !c.ivs.Contains(c.grid.HilbertValue(o.X, o.Y))
}

// TestOutsideProperty draws subscriptions — windows inside the space, on
// its edge and past it, so that the enlargement leaves the space — and
// movement states within the speed and ∆tmu contract, stored inside the
// space, and checks that the rectangle prune is sound (it never dismisses
// a state Member admits) and at least as selective as the Hilbert cover it
// replaced (it dismisses every state the cover dismissed).
func TestOutsideProperty(t *testing.T) {
	const (
		issuer  = peb.UserID(1)
		grantor = peb.UserID(2)
		windows = 2000
		states  = 40
	)
	db, err := peb.Open(peb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One grantor that lets the issuer see it anywhere at any time, so
	// Member reduces to the geometric test the prune must respect.
	if err := db.DefineRelation(grantor, issuer, "peer"); err != nil {
		t.Fatal(err)
	}
	side := db.Bounds().MaxX
	if err := db.Grant(grantor, "peer", db.Bounds(), peb.TimeInterval{Start: 0, End: 1440}); err != nil {
		t.Fatal(err)
	}
	e, err := Attach(db)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	grid := zcurve.Grid{Side: side, Order: db.GridOrder()}

	rng := rand.New(rand.NewSource(43))
	// coord draws a window corner over the space and a margin around it.
	coord := func() float64 { return rng.Float64()*(side+2*e.slack+400) - e.slack - 200 }
	var members, dismissed, gained int
	err = db.WithCommitView(func(cv *peb.CommitView) error {
		for w := 0; w < windows; w++ {
			x, y := coord(), coord()
			r := peb.Region{MinX: x, MinY: y, MaxX: x + rng.Float64()*400, MaxY: y + rng.Float64()*400}
			s := &sub{Query: Query{Issuer: issuer, T: 100 + rng.Float64()*1200, Region: r}}
			cover := newHilbertCover(t, grid, r, e.slack)
			for i := 0; i < states; i++ {
				speed := e.maxSpeed * rng.Float64()
				if i%8 == 0 {
					speed = e.maxSpeed
				}
				angle := rng.Float64() * 2 * math.Pi
				dt := (2*rng.Float64() - 1) * e.maxUI
				o := peb.Object{
					UID: grantor,
					VX:  speed * math.Cos(angle),
					VY:  speed * math.Sin(angle),
					T:   s.T - dt,
				}
				if i%2 == 0 {
					// Aim at a point of the window at s.T: most such
					// states are members, and many sit near the rim.
					o.X = r.MinX + rng.Float64()*(r.MaxX-r.MinX) - o.VX*dt
					o.Y = r.MinY + rng.Float64()*(r.MaxY-r.MinY) - o.VY*dt
				} else {
					o.X = rng.Float64() * side
					o.Y = rng.Float64() * side
				}
				if o.X < 0 || o.X >= side || o.Y < 0 || o.Y >= side {
					continue // stored positions lie in the space
				}
				out := e.outside(s, &o)
				if cv.Member(issuer, r, o, s.T) {
					members++
					if out {
						t.Fatalf("window %+v at t=%g: outside dismisses member %+v", r, s.T, o)
					}
				}
				if out {
					dismissed++
				}
				if cover.dismisses(e, s, &o) {
					if !out {
						t.Fatalf("window %+v at t=%g: the Hilbert cover dismisses %+v, outside keeps it", r, s.T, o)
					}
				} else if out {
					gained++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if members == 0 || dismissed == 0 || gained == 0 {
		t.Fatalf("vacuous draw: %d members, %d dismissed, %d dismissed beyond the cover", members, dismissed, gained)
	}
	t.Logf("%d members, %d dismissed, %d of them beyond the Hilbert cover", members, dismissed, gained)
}
