// Package workload generates the synthetic datasets, query workloads, and
// update streams of the paper's empirical study (Sec. 7.1):
//
//   - uniformly distributed moving users (random position, direction, and
//     speed in [0, max]);
//   - network-based users moving between a configurable number of
//     destinations ("hubs"), re-implementing the behavior of the generator
//     of Šaltenis et al. [27]: three speed classes, acceleration away from
//     and deceleration toward destinations, random re-targeting;
//   - location-privacy policies controlled by the grouping factor
//     θ = Ngr/Np (Sec. 6): users are divided into groups and a fraction θ
//     of each user's Np policies point at same-group users, the rest at
//     random users; and
//   - privacy-aware range and kNN query workloads and fractional update
//     batches (Sec. 7.9).
//
// All generation is deterministic in Config.Seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/motion"
	"repro/internal/policy"
)

// Distribution selects how user positions and movement are generated.
type Distribution int

const (
	// Uniform scatters users uniformly with random directions (Sec. 7.1).
	Uniform Distribution = iota
	// Network moves users along routes between hub destinations [27].
	Network
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Config fixes a dataset. The zero value is not valid; use DefaultConfig.
type Config struct {
	NumUsers int     // N
	Space    float64 // side length of the square space
	MaxSpeed float64 // objects move at speeds in [0, MaxSpeed]
	DayLen   float64 // time-domain length for policy tint normalization

	PoliciesPerUser int     // Np
	GroupingFactor  float64 // θ ∈ [0, 1]
	GroupSize       int     // users per policy group; 0 = max(100, Np+1)

	// Policy shape: locr side lengths are uniform in
	// [RegionFracMin, RegionFracMax]·Space, and tint durations are uniform
	// in [TintFracMin, TintFracMax]·DayLen. Zero values select defaults.
	RegionFracMin, RegionFracMax float64
	TintFracMin, TintFracMax     float64

	Distribution Distribution
	NumHubs      int // Network only

	// UpdateWindow is the time span over which initial updates are spread:
	// object update times are uniform in [0, UpdateWindow). Zero selects
	// half the Bx-tree's default maximum update interval.
	UpdateWindow float64

	Seed int64
}

// Defaults from Table 1 (bold values).
const (
	DefaultNumUsers        = 60_000
	DefaultSpace           = 1000.0
	DefaultMaxSpeed        = 3.0
	DefaultDayLen          = 1440.0
	DefaultPoliciesPerUser = 50
	DefaultGroupingFactor  = 0.7
	DefaultRegionFracMin   = 0.2
	DefaultRegionFracMax   = 0.9
	DefaultTintFracMin     = 0.25
	DefaultTintFracMax     = 0.75
	DefaultUpdateWindow    = 60.0
)

// DefaultConfig returns the paper's default workload (60 K uniform users,
// 50 policies each, θ = 0.7).
func DefaultConfig() Config {
	return Config{
		NumUsers:        DefaultNumUsers,
		Space:           DefaultSpace,
		MaxSpeed:        DefaultMaxSpeed,
		DayLen:          DefaultDayLen,
		PoliciesPerUser: DefaultPoliciesPerUser,
		GroupingFactor:  DefaultGroupingFactor,
		Distribution:    Uniform,
		Seed:            1,
	}
}

// Validate checks the configuration and fills defaulted fields.
func (c *Config) Validate() error {
	if c.NumUsers <= 0 {
		return fmt.Errorf("workload: %d users", c.NumUsers)
	}
	if c.Space <= 0 {
		return fmt.Errorf("workload: space side %g", c.Space)
	}
	if c.MaxSpeed < 0 {
		return fmt.Errorf("workload: max speed %g", c.MaxSpeed)
	}
	if c.DayLen <= 0 {
		return fmt.Errorf("workload: day length %g", c.DayLen)
	}
	if c.PoliciesPerUser < 0 {
		return fmt.Errorf("workload: %d policies per user", c.PoliciesPerUser)
	}
	if c.GroupingFactor < 0 || c.GroupingFactor > 1 {
		return fmt.Errorf("workload: grouping factor %g outside [0,1]", c.GroupingFactor)
	}
	if c.GroupSize == 0 {
		c.GroupSize = c.PoliciesPerUser + 1
		if c.GroupSize < 100 {
			c.GroupSize = 100
		}
	}
	if c.GroupSize < 2 {
		return fmt.Errorf("workload: group size %d < 2", c.GroupSize)
	}
	if c.RegionFracMin == 0 && c.RegionFracMax == 0 {
		c.RegionFracMin, c.RegionFracMax = DefaultRegionFracMin, DefaultRegionFracMax
	}
	if c.TintFracMin == 0 && c.TintFracMax == 0 {
		c.TintFracMin, c.TintFracMax = DefaultTintFracMin, DefaultTintFracMax
	}
	if !(c.RegionFracMin > 0 && c.RegionFracMin <= c.RegionFracMax && c.RegionFracMax <= 1) {
		return fmt.Errorf("workload: region fractions [%g,%g]", c.RegionFracMin, c.RegionFracMax)
	}
	if !(c.TintFracMin > 0 && c.TintFracMin <= c.TintFracMax && c.TintFracMax <= 1) {
		return fmt.Errorf("workload: tint fractions [%g,%g]", c.TintFracMin, c.TintFracMax)
	}
	if c.Distribution == Network && c.NumHubs < 2 {
		return fmt.Errorf("workload: network distribution needs ≥ 2 hubs, have %d", c.NumHubs)
	}
	if c.UpdateWindow == 0 {
		c.UpdateWindow = DefaultUpdateWindow
	}
	if c.UpdateWindow < 0 {
		return fmt.Errorf("workload: update window %g", c.UpdateWindow)
	}
	return nil
}

// Dataset is a generated population: moving objects plus the policy store
// that holds every user's location-privacy policies.
type Dataset struct {
	Cfg      Config
	Objects  []motion.Object
	Policies *policy.Store
	Users    []policy.UserID

	// net carries the movement state for network datasets, used by the
	// update stream; nil for uniform datasets.
	net *networkSim
	rng *rand.Rand
	// cursor walks the population round-robin for UpdateBatch.
	cursor int
}

// Generate builds a dataset from cfg.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Cfg: cfg, rng: rng}

	d.Users = make([]policy.UserID, cfg.NumUsers)
	for i := range d.Users {
		d.Users[i] = policy.UserID(i + 1)
	}

	switch cfg.Distribution {
	case Uniform:
		d.Objects = genUniform(cfg, rng)
	case Network:
		d.net = newNetworkSim(cfg, rng)
		d.Objects = d.net.snapshot(cfg, rng)
	default:
		return nil, fmt.Errorf("workload: unknown distribution %d", int(cfg.Distribution))
	}

	pol, err := genPolicies(cfg, d.Users, rng)
	if err != nil {
		return nil, err
	}
	d.Policies = pol
	return d, nil
}

// genUniform scatters users uniformly with random directions and speeds.
func genUniform(cfg Config, rng *rand.Rand) []motion.Object {
	objs := make([]motion.Object, cfg.NumUsers)
	for i := range objs {
		speed := rng.Float64() * cfg.MaxSpeed
		dir := rng.Float64() * 2 * math.Pi
		objs[i] = motion.Object{
			UID: motion.UserID(i + 1),
			X:   rng.Float64() * cfg.Space,
			Y:   rng.Float64() * cfg.Space,
			VX:  speed * math.Cos(dir),
			VY:  speed * math.Sin(dir),
			T:   rng.Float64() * cfg.UpdateWindow,
		}
	}
	return objs
}

// genPolicies builds every user's policies under the grouping factor θ:
// users are split into groups of cfg.GroupSize consecutive ids; each user
// owns round(θ·Np) policies toward random distinct same-group peers and
// Np − round(θ·Np) toward random other users (Sec. 6). Each owner→peer
// pair gets a dedicated role, one relation, and one random policy. The
// grants are drawn first and applied to the store in one policy.Bulk,
// which builds the store SetRelation and AddPolicy calls in draw order
// would.
func genPolicies(cfg Config, users []policy.UserID, rng *rand.Rand) (*policy.Store, error) {
	space := policy.Region{MinX: 0, MinY: 0, MaxX: cfg.Space, MaxY: cfg.Space}
	pol, err := policy.NewStore(space, cfg.DayLen)
	if err != nil {
		return nil, err
	}
	grants := len(users) * cfg.PoliciesPerUser
	b := policy.NewBulk(grants, grants)
	drawPolicies(cfg, users, rng, func(owner, peer policy.UserID, p policy.Policy) {
		b.SetRelation(owner, peer, p.Role)
		b.AddPolicy(owner, p)
	})
	if err := b.ApplyTo(pol); err != nil {
		return nil, err
	}
	return pol, nil
}

// drawPolicies draws genPolicies' grants, owner by owner, and passes each
// to grant in draw order.
func drawPolicies(cfg Config, users []policy.UserID, rng *rand.Rand, grant func(owner, peer policy.UserID, p policy.Policy)) {
	n := len(users)
	if cfg.PoliciesPerUser == 0 {
		return
	}
	inGroup := int(math.Round(cfg.GroupingFactor * float64(cfg.PoliciesPerUser)))

	for i, owner := range users {
		gStart := i / cfg.GroupSize * cfg.GroupSize
		gEnd := gStart + cfg.GroupSize
		if gEnd > n {
			gEnd = n
		}
		chosen := make(map[policy.UserID]bool, cfg.PoliciesPerUser)
		add := func(peer policy.UserID) {
			role := policy.Role(fmt.Sprintf("p%d", peer))
			grant(owner, peer, randomPolicy(cfg, role, rng))
		}
		// In-group policies. Group size can undercut the target near the
		// tail of the id space; cap at the available distinct peers.
		target := inGroup
		if avail := gEnd - gStart - 1; target > avail {
			target = avail
		}
		for len(chosen) < target {
			peer := users[gStart+rng.Intn(gEnd-gStart)]
			if peer == owner || chosen[peer] {
				continue
			}
			chosen[peer] = true
			add(peer)
		}
		// Out-of-group policies toward anyone.
		for len(chosen) < cfg.PoliciesPerUser && len(chosen) < n-1 {
			peer := users[rng.Intn(n)]
			if peer == owner || chosen[peer] {
				continue
			}
			chosen[peer] = true
			add(peer)
		}
	}
}

// randomPolicy draws a policy with random spatial range and time interval
// within the configured fractions (Sec. 7.1: "random policies by varying
// the spatial ranges and time intervals").
func randomPolicy(cfg Config, role policy.Role, rng *rand.Rand) policy.Policy {
	frac := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	w := frac(cfg.RegionFracMin, cfg.RegionFracMax) * cfg.Space
	h := frac(cfg.RegionFracMin, cfg.RegionFracMax) * cfg.Space
	x := rng.Float64() * (cfg.Space - w)
	y := rng.Float64() * (cfg.Space - h)
	start := rng.Float64() * cfg.DayLen
	dur := frac(cfg.TintFracMin, cfg.TintFracMax) * cfg.DayLen
	return policy.Policy{
		Role: role,
		Locr: policy.Region{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
		Tint: policy.TimeInterval{Start: start, End: math.Mod(start+dur, cfg.DayLen)},
	}
}

// Assign runs the offline policy-encoding phase (Sec. 5.1) for the dataset.
func (d *Dataset) Assign() (policy.Assignment, error) {
	return policy.AssignSequenceValues(d.Policies, d.Users, policy.AssignOptions{})
}
