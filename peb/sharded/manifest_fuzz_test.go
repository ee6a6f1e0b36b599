package sharded

import (
	"reflect"
	"testing"

	"repro/peb"
)

// FuzzManifest feeds sharded.json bytes to the two functions Open reads
// them with. They must be total — an error or a topology, never a panic —
// a manifest they accept must carry the current version (the version 1
// seeds are refused, not upgraded), and a topology they accept must pass
// its own invariants and survive the trip through the manifest Open would
// write back.
func FuzzManifest(f *testing.F) {
	const order = peb.DefaultGridOrder
	f.Add([]byte(`{"Version":1,"Shards":4,"SpaceSide":1000,"GridOrder":10}`))
	split := freshTopo(order, 3)
	split.metas[2].noRoute = true
	split.metas[1].route.Hi = split.metas[2].route.Hi
	split.pending = &pendingOp{Kind: pendingMerge, Src: 2, Dst: 1}
	for _, ts := range []topoState{freshTopo(order, 1), freshTopo(order, 8), split} {
		data, err := marshalManifest(ts.toManifest(1000))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"Version":1,"Shards":1000000000000000000}`))
	f.Add([]byte(`{"Version":2,"NextID":1,"Topology":[{"ID":0,"RouteLo":0,"RouteHi":18446744073709551615,"CoverLo":0,"CoverHi":18446744073709551615}]}`))
	f.Add([]byte(`{"Version":3}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalManifest(data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion {
			t.Fatalf("accepted a version %d manifest", m.Version)
		}
		ts, err := topoFromManifest(m, order)
		if err != nil {
			return
		}
		if err := ts.validate(order); err != nil {
			t.Fatalf("accepted topology breaks its invariants: %v", err)
		}
		want := ts.toManifest(m.SpaceSide)
		out, err := marshalManifest(want)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := unmarshalManifest(out)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		ts2, err := topoFromManifest(m2, order)
		if err != nil {
			t.Fatalf("re-encoded topology rejected: %v", err)
		}
		if got := ts2.toManifest(m.SpaceSide); !reflect.DeepEqual(got, want) {
			t.Fatalf("topology changed across a re-encode:\n %+v\n %+v", want, got)
		}
	})
}
