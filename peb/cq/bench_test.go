package cq_test

import (
	"math/rand"
	"testing"

	"repro/peb"
	"repro/peb/cq"
)

// BenchmarkSubscribeRange times one range registration — the initial
// query and the subscription's installation — at the geofence_mixed
// benchmark's fence side of 300, placed so that its slack-enlarged window
// crosses two edges of the space, as most such fences' do. Each iteration
// closes what it registered.
func BenchmarkSubscribeRange(b *testing.B) {
	const nUsers = 2000
	rng := rand.New(rand.NewSource(1))
	db, err := peb.Open(peb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	seedPolicies(b, db, rng, nUsers)
	batch := db.NewBatch()
	for u := 1; u <= nUsers; u++ {
		batch.Upsert(randObject(rng, peb.UserID(u), 60))
	}
	if err := db.Apply(batch); err != nil {
		b.Fatal(err)
	}
	eng, err := cq.Attach(db)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	fence := peb.Region{MinX: 200, MinY: 450, MaxX: 500, MaxY: 750}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		sub, _, err := eng.SubscribeRange(peb.UserID(1+i%nUsers), fence, 70, cq.SubOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sub.Close()
	}
}
