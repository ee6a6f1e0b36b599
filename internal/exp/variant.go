package exp

import (
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/workload"
)

// NewPEBVariant builds a second PEB-tree over the testbed's dataset and
// assignment with a modified configuration (different key layout, curve, or
// search order). Used by the ablation experiments.
func (tb *Testbed) NewPEBVariant(mutate func(*core.Config)) (*core.Tree, error) {
	cfg := tb.PEB.Config()
	mutate(&cfg)
	return tb.newPEB(cfg, tb.Assignment)
}

// newPEB builds a PEB-tree over the testbed's dataset under cfg and
// assignment. The tree gets its own disk and buffer pool so I/O
// comparisons are independent.
func (tb *Testbed) newPEB(cfg core.Config, assignment policy.Assignment) (*core.Tree, error) {
	tree, err := core.New(cfg, store.NewBufferPool(store.NewMemDisk(), tb.Cfg.Buffer), tb.DS.Policies, assignment)
	if err != nil {
		return nil, err
	}
	for _, o := range tb.DS.Objects {
		if err := tree.Insert(o); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// MeasurePRQOn replays range queries against a single PEB-tree (variant or
// primary) and returns its mean I/O.
func MeasurePRQOn(t *core.Tree, qs []workload.PRQuery) (float64, error) {
	if err := resetPool(t.Pool()); err != nil {
		return 0, err
	}
	for _, q := range qs {
		if _, err := t.PRQ(q.Issuer, q.W, q.T); err != nil {
			return 0, err
		}
	}
	return float64(t.Pool().Stats().Misses) / float64(len(qs)), nil
}

// MeasurePKNNOn replays kNN queries against a single PEB-tree and returns
// its mean I/O.
func MeasurePKNNOn(t *core.Tree, qs []workload.KNNQuery) (float64, error) {
	if err := resetPool(t.Pool()); err != nil {
		return 0, err
	}
	for _, q := range qs {
		if _, err := t.PKNN(q.Issuer, q.X, q.Y, q.K, q.T); err != nil {
			return 0, err
		}
	}
	return float64(t.Pool().Stats().Misses) / float64(len(qs)), nil
}
