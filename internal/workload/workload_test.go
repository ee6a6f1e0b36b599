package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/policy"
)

// smallConfig returns a fast test configuration.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumUsers = 500
	cfg.PoliciesPerUser = 10
	cfg.GroupSize = 25
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero users", func(c *Config) { c.NumUsers = 0 }},
		{"negative speed", func(c *Config) { c.MaxSpeed = -1 }},
		{"theta > 1", func(c *Config) { c.GroupingFactor = 1.5 }},
		{"theta < 0", func(c *Config) { c.GroupingFactor = -0.1 }},
		{"bad region fracs", func(c *Config) { c.RegionFracMin = 0.9; c.RegionFracMax = 0.2 }},
		{"network no hubs", func(c *Config) { c.Distribution = Network; c.NumHubs = 1 }},
		{"negative update window", func(c *Config) { c.UpdateWindow = -5 }},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGenerateUniform(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Objects) != cfg.NumUsers {
		t.Fatalf("objects = %d, want %d", len(d.Objects), cfg.NumUsers)
	}
	for _, o := range d.Objects {
		if o.X < 0 || o.X > cfg.Space || o.Y < 0 || o.Y > cfg.Space {
			t.Fatalf("u%d out of space: (%g, %g)", o.UID, o.X, o.Y)
		}
		if sp := o.Speed(); sp > cfg.MaxSpeed+1e-9 {
			t.Fatalf("u%d speed %g > max %g", o.UID, sp, cfg.MaxSpeed)
		}
		if o.T < 0 || o.T >= d.Cfg.UpdateWindow {
			t.Fatalf("u%d update time %g outside [0, %g)", o.UID, o.T, d.Cfg.UpdateWindow)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Objects {
		if d1.Objects[i] != d2.Objects[i] {
			t.Fatalf("object %d differs across runs with same seed", i)
		}
	}
	if d1.Policies.NumPolicies() != d2.Policies.NumPolicies() {
		t.Fatal("policy counts differ across runs with same seed")
	}
	cfg2 := cfg
	cfg2.Seed = 999
	d3, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range d1.Objects {
		if d1.Objects[i] == d3.Objects[i] {
			same++
		}
	}
	if same == len(d1.Objects) {
		t.Error("different seeds produced identical objects")
	}
}

func TestPolicyCounts(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.NumUsers * cfg.PoliciesPerUser
	if got := d.Policies.NumPolicies(); got != want {
		t.Errorf("NumPolicies = %d, want %d", got, want)
	}
}

func TestGroupingFactorExtremes(t *testing.T) {
	// θ = 1: every policy stays in-group.
	cfg := smallConfig()
	cfg.GroupingFactor = 1
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Policies.RelatedPairs(func(a, b policy.UserID) {
		ga := (int(a) - 1) / cfg.GroupSize
		gb := (int(b) - 1) / cfg.GroupSize
		if ga != gb {
			t.Errorf("θ=1 produced cross-group pair (%d, %d)", a, b)
		}
	})

	// θ = 0: policies connect arbitrary users; expect a large majority of
	// pairs to cross group boundaries (in-group mass is GroupSize/N = 5%).
	cfg = smallConfig()
	cfg.GroupingFactor = 0
	d, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cross, total := 0, 0
	d.Policies.RelatedPairs(func(a, b policy.UserID) {
		total++
		if (int(a)-1)/cfg.GroupSize != (int(b)-1)/cfg.GroupSize {
			cross++
		}
	})
	if total == 0 {
		t.Fatal("no related pairs generated")
	}
	if frac := float64(cross) / float64(total); frac < 0.8 {
		t.Errorf("θ=0: only %.0f%% of pairs cross groups", frac*100)
	}
}

func TestGenerateNetwork(t *testing.T) {
	cfg := smallConfig()
	cfg.Distribution = Network
	cfg.NumHubs = 10
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range d.Objects {
		if o.X < -1e-9 || o.X > cfg.Space+1e-9 || o.Y < -1e-9 || o.Y > cfg.Space+1e-9 {
			t.Fatalf("u%d off-space at (%g, %g)", o.UID, o.X, o.Y)
		}
		if sp := o.Speed(); sp > cfg.MaxSpeed+1e-9 {
			t.Fatalf("u%d speed %g > max", o.UID, sp)
		}
	}
}

// TestNetworkSkew checks the property the hub count controls: fewer hubs
// concentrate users, so the average pairwise... rather, the fraction of
// occupied grid cells is smaller than under the uniform distribution.
func TestNetworkSkew(t *testing.T) {
	occupied := func(cfg Config) int {
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const cells = 32
		seen := make(map[int]bool)
		for _, o := range d.Objects {
			cx := int(o.X / cfg.Space * cells)
			cy := int(o.Y / cfg.Space * cells)
			if cx >= cells {
				cx = cells - 1
			}
			if cy >= cells {
				cy = cells - 1
			}
			seen[cy*cells+cx] = true
		}
		return len(seen)
	}
	uni := smallConfig()
	uni.NumUsers = 2000
	few := uni
	few.Distribution = Network
	few.NumHubs = 5
	many := uni
	many.Distribution = Network
	many.NumHubs = 200
	nUni, nFew, nMany := occupied(uni), occupied(few), occupied(many)
	if nFew >= nUni {
		t.Errorf("5-hub network occupies %d cells, uniform %d — expected skew", nFew, nUni)
	}
	if nFew >= nMany {
		t.Errorf("5 hubs occupy %d cells, 200 hubs %d — expected fewer", nFew, nMany)
	}
}

func TestGenPRQueries(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := d.GenPRQueries(50, 200, 60)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if got := q.W.MaxX - q.W.MinX; math.Abs(got-200) > 1e-9 {
			t.Fatalf("window width %g, want 200", got)
		}
		if q.T != 60 {
			t.Fatalf("query time %g", q.T)
		}
		if q.Issuer == 0 {
			t.Fatal("zero issuer")
		}
	}
}

func TestGenKNNQueries(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := d.GenKNNQueries(50, 5, 60)
	for _, q := range qs {
		if q.K != 5 || q.T != 60 {
			t.Fatalf("bad query %+v", q)
		}
		if q.X < 0 || q.X > cfg.Space || q.Y < 0 || q.Y > cfg.Space {
			t.Fatalf("qLoc (%g, %g) outside space", q.X, q.Y)
		}
	}
}

func TestUpdateBatch(t *testing.T) {
	cfg := smallConfig()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := 100.0
	batch := d.UpdateBatch(0.25, now)
	if len(batch) != cfg.NumUsers/4 {
		t.Fatalf("batch size %d, want %d", len(batch), cfg.NumUsers/4)
	}
	seen := make(map[int]bool)
	for _, o := range batch {
		if seen[int(o.UID)] {
			t.Fatalf("u%d updated twice in one batch", o.UID)
		}
		seen[int(o.UID)] = true
		if o.T != now {
			t.Fatalf("u%d update time %g, want %g", o.UID, o.T, now)
		}
		if o.X < 0 || o.X > cfg.Space || o.Y < 0 || o.Y > cfg.Space {
			t.Fatalf("u%d bounced outside space: (%g, %g)", o.UID, o.X, o.Y)
		}
		if d.Objects[o.UID-1] != o {
			t.Fatalf("dataset object not updated in place for u%d", o.UID)
		}
	}
	// Four batches of 25% must cover everyone exactly once.
	for i := 0; i < 3; i++ {
		for _, o := range d.UpdateBatch(0.25, now+float64(i+1)) {
			if seen[int(o.UID)] {
				t.Fatalf("u%d updated twice across batches", o.UID)
			}
			seen[int(o.UID)] = true
		}
	}
	if len(seen) != cfg.NumUsers {
		t.Fatalf("covered %d users, want %d", len(seen), cfg.NumUsers)
	}
}

func TestUpdateBatchNetwork(t *testing.T) {
	cfg := smallConfig()
	cfg.Distribution = Network
	cfg.NumHubs = 10
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := d.UpdateBatch(0.5, 120)
	for _, o := range batch {
		if o.X < -1e-9 || o.X > cfg.Space+1e-9 || o.Y < -1e-9 || o.Y > cfg.Space+1e-9 {
			t.Fatalf("u%d off-space after update: (%g, %g)", o.UID, o.X, o.Y)
		}
		if sp := o.Speed(); sp > cfg.MaxSpeed+1e-9 {
			t.Fatalf("u%d speed %g > max after update", o.UID, sp)
		}
	}
}

func TestAssign(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SV) != len(d.Users) {
		t.Fatalf("assigned %d SVs, want %d", len(a.SV), len(d.Users))
	}
	for u, sv := range a.SV {
		if sv <= 1 {
			t.Fatalf("u%d SV %g <= 1", u, sv)
		}
	}
}

// TestGenPoliciesBulkEqualsOneAtATime: the generator's store, applied in
// one Bulk, is Equal to the store its draws build one SetRelation and
// AddPolicy at a time, for every grouping factor and with no policies.
func TestGenPoliciesBulkEqualsOneAtATime(t *testing.T) {
	for _, perUser := range []int{10, 0} {
		for _, theta := range []float64{0, 0.7, 1} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := smallConfig()
				cfg.PoliciesPerUser, cfg.GroupingFactor = perUser, theta
				users := make([]policy.UserID, cfg.NumUsers)
				for i := range users {
					users[i] = policy.UserID(i + 1)
				}
				bulk, err := genPolicies(cfg, users, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				one, err := policy.NewStore(bulk.Space(), bulk.DayLength())
				if err != nil {
					t.Fatal(err)
				}
				drawPolicies(cfg, users, rand.New(rand.NewSource(seed)), func(owner, peer policy.UserID, p policy.Policy) {
					one.SetRelation(owner, peer, p.Role)
					if err := one.AddPolicy(owner, p); err != nil {
						t.Fatal(err)
					}
				})
				if want := cfg.NumUsers * perUser; bulk.NumPolicies() != want {
					t.Fatalf("Np %d, θ %g, seed %d: %d policies, want %d", perUser, theta, seed, bulk.NumPolicies(), want)
				}
				if !bulk.Equal(one) || !one.Equal(bulk) {
					t.Fatalf("Np %d, θ %g, seed %d: the bulk-built store differs from the one built a call at a time", perUser, theta, seed)
				}
			}
		}
	}
}
