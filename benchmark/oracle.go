package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/peb"
)

// oracle answers the paper's Definitions 2 and 3 by brute force: a linear
// scan over every object of the model, with policy.Store.Allows as the
// privacy predicate. It shares no code with the index.
type oracle struct {
	pol  *policy.Store
	objs []peb.Object
}

func (w *world) oracle() *oracle { return &oracle{pol: w.ds.Policies, objs: w.model} }

// allows reports whether issuer may see obj when obj is at (x, y) at t.
func (o *oracle) allows(issuer peb.UserID, obj peb.Object, x, y, t float64) bool {
	return obj.UID != issuer && o.pol.Allows(policy.UserID(obj.UID), policy.UserID(issuer), x, y, t)
}

// rangeQuery is Definition 2: the ids of the users inside r at t that
// issuer may see, ascending. The two conditions are independent, so the
// cheap one is tested first.
func (o *oracle) rangeQuery(issuer peb.UserID, r peb.Region, t float64) []peb.UserID {
	var out []peb.UserID
	for _, obj := range o.objs {
		if x, y := obj.PositionAt(t); r.Contains(x, y) && o.allows(issuer, obj, x, y, t) {
			out = append(out, obj.UID)
		}
	}
	return out // objs is in id order
}

// nearest is Definition 3: the distances of the k nearest users issuer may
// see at t, ascending, and the id at each rank.
func (o *oracle) nearest(issuer peb.UserID, qx, qy float64, k int, t float64) []peb.Neighbor {
	var all []peb.Neighbor
	for _, obj := range o.objs {
		if x, y := obj.PositionAt(t); o.allows(issuer, obj, x, y, t) {
			all = append(all, peb.Neighbor{Object: obj, Dist: math.Hypot(x-qx, y-qy)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Object.UID < all[j].Object.UID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// checkRange reports whether got is exactly the oracle's answer.
func (o *oracle) checkRange(issuer peb.UserID, r peb.Region, t float64, got []peb.Object) bool {
	want := o.rangeQuery(issuer, r, t)
	if len(got) != len(want) {
		return false
	}
	ids := make([]peb.UserID, len(got))
	for i, g := range got {
		ids[i] = g.UID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := range ids {
		if ids[i] != want[i] {
			return false
		}
	}
	return true
}

// distEps absorbs the difference between the index's and the oracle's
// floating-point evaluation order.
const distEps = 1e-6

// checkNearest reports whether got matches the oracle rank by rank. Ids
// must agree wherever the distance is not tied with a neighbouring rank.
func (o *oracle) checkNearest(issuer peb.UserID, qx, qy float64, k int, t float64, got []peb.Neighbor) bool {
	want := o.nearest(issuer, qx, qy, k+1, t)
	n := len(want)
	if n > k {
		n = k
	}
	if len(got) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if math.Abs(got[i].Dist-want[i].Dist) > distEps {
			return false
		}
		tied := (i > 0 && want[i].Dist-want[i-1].Dist <= distEps) ||
			(i+1 < len(want) && want[i+1].Dist-want[i].Dist <= distEps)
		if !tied && got[i].Object.UID != want[i].Object.UID {
			return false
		}
	}
	return true
}

// checker runs oracle checks beside the pass that produced the answers,
// one per processor: a brute-force PkNN scan costs several index queries,
// and a counted pass measures counts, which the extra load cannot move.
type checker struct {
	slots  chan struct{}
	wg     sync.WaitGroup
	failed atomic.Int64
}

func newChecker() *checker { return &checker{slots: make(chan struct{}, procs)} }

// check runs ok in the background, blocking while every slot is busy.
func (c *checker) check(ok func() bool) {
	c.slots <- struct{}{}
	c.wg.Add(1)
	go func() {
		defer func() { <-c.slots; c.wg.Done() }()
		if !ok() {
			c.failed.Add(1)
		}
	}()
}

// wait returns the number of failed checks once all have finished.
func (c *checker) wait() int64 {
	c.wg.Wait()
	return c.failed.Load()
}
