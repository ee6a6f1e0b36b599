package core

import (
	"fmt"

	"repro/internal/bxtree"
	"repro/internal/policy"
)

// KeyLayout selects the component order inside a PEB key. The paper's
// design places the sequence value above the location value ("the
// construction of the PEB key gives higher priority to sequence values than
// to location mapping values", Sec. 5.2); the inverted layout exists for an
// ablation benchmark that demonstrates why that choice matters.
type KeyLayout int

const (
	// SVFirst is the paper's layout: PEB key = [TID]₂ ⊕ [SV]₂ ⊕ [ZV]₂ (Eq. 5).
	SVFirst KeyLayout = iota
	// ZVFirst is the ablation layout: PEB key = [TID]₂ ⊕ [ZV]₂ ⊕ [SV]₂.
	ZVFirst
)

// String implements fmt.Stringer.
func (l KeyLayout) String() string {
	switch l {
	case SVFirst:
		return "sv-first"
	case ZVFirst:
		return "zv-first"
	default:
		return fmt.Sprintf("KeyLayout(%d)", int(l))
	}
}

// SearchOrder selects how PkNN visits the friend × enlargement-round
// search matrix of Fig. 8. The paper argues for the triangular order of
// Fig. 9; column-major order exists for an ablation benchmark.
type SearchOrder int

const (
	// Triangular visits anti-diagonals (Fig. 9), interleaving policy
	// proximity and spatial proximity.
	Triangular SearchOrder = iota
	// ColumnMajor exhausts every friend at each enlargement round before
	// growing the window (the naive order the triangular order improves on).
	ColumnMajor
)

// String implements fmt.Stringer.
func (s SearchOrder) String() string {
	switch s {
	case Triangular:
		return "triangular"
	case ColumnMajor:
		return "column-major"
	default:
		return fmt.Sprintf("SearchOrder(%d)", int(s))
	}
}

// Config fixes the PEB-tree parameters: the underlying Bx-tree machinery
// (grid, label timestamps, partitions, enlargement speed) plus the sequence
// value codec and the key component order.
type Config struct {
	// Base supplies the moving-object machinery shared with the Bx-tree.
	Base bxtree.Config
	// SV is the fixed-point codec for sequence values embedded in keys.
	SV policy.SVCodec
	// Layout selects SV-first (the paper) or ZV-first (ablation).
	Layout KeyLayout
	// PKNNOrder selects the search-matrix traversal (ablation; default
	// Triangular, the paper's order).
	PKNNOrder SearchOrder
}

// Default sequence-value field sizing: 26 bits total with 6 fraction bits
// stores values up to 2^20 at resolution 1/64. Fig. 5 with δ = 2 assigns
// values up to about 2·(anchors) + 2, and 1/64 resolves its 1 − C(u1,u2)
// offsets, which lie in [0, 1). The engine's community encoding takes one
// step per user and δ steps between bands, N + bands·δ in all: integer
// steps fit up to about 900 000 users with the field's top eighth left for
// users added later, and past that it steps by fractions down to 1/64, so
// the field holds up to 2^26 slots' worth.
const (
	DefaultSVBits     = 26
	DefaultSVFracBits = 6
)

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Base:   bxtree.DefaultConfig(),
		SV:     policy.SVCodec{Bits: DefaultSVBits, FracBits: DefaultSVFracBits},
		Layout: SVFirst,
	}
}

// Validate checks the configuration and fills defaulted fields.
func (c *Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.SV.Bits <= 0 || c.SV.FracBits < 0 || c.SV.FracBits >= c.SV.Bits {
		return fmt.Errorf("core: invalid SV codec %+v", c.SV)
	}
	if c.Layout != SVFirst && c.Layout != ZVFirst {
		return fmt.Errorf("core: invalid key layout %d", int(c.Layout))
	}
	if c.PKNNOrder != Triangular && c.PKNNOrder != ColumnMajor {
		return fmt.Errorf("core: invalid PkNN search order %d", int(c.PKNNOrder))
	}
	total := c.Base.TIDBits() + c.SV.Bits + 2*c.Base.Grid.Order
	if total > 64 {
		return fmt.Errorf("core: key layout needs %d bits (tid %d + sv %d + zv %d), max 64",
			total, c.Base.TIDBits(), c.SV.Bits, 2*c.Base.Grid.Order)
	}
	return nil
}

// zvBits returns the width of the location component.
func (c Config) zvBits() int { return 2 * c.Base.Grid.Order }

// Key assembles a PEB key from its three components (Eq. 5).
func (c Config) Key(tid, sv, zv uint64) uint64 {
	switch c.Layout {
	case ZVFirst:
		return tid<<(c.SV.Bits+c.zvBits()) | zv<<c.SV.Bits | sv
	default:
		return tid<<(c.SV.Bits+c.zvBits()) | sv<<c.zvBits() | zv
	}
}

// SVRange returns the key interval covering partition tid, sequence value
// sv, and location values [zlo, zhi] under the SV-first layout — the
// [TID ⊕ SV ⊕ ZVs, TID ⊕ SV ⊕ ZVe] search ranges of Sec. 5.3.
func (c Config) SVRange(tid, sv, zlo, zhi uint64) (uint64, uint64) {
	return c.Key(tid, sv, zlo), c.Key(tid, sv, zhi)
}

// ZVRange returns the key interval covering partition tid, location values
// [zlo, zhi], and the full SV span under the ZV-first ablation layout.
func (c Config) ZVRange(tid, zlo, zhi uint64) (uint64, uint64) {
	maxSV := uint64(1)<<uint(c.SV.Bits) - 1
	return c.Key(tid, 0, zlo), c.Key(tid, maxSV, zhi)
}
