// Geofence: standing, privacy-aware presence alerts on the peb/cq API.
//
// A dispatcher (for example, an event organizer) wants to know "which of
// the users that opted in are inside my venue?" — a privacy-aware range
// query (Definition 2). Earlier versions of this example polled: they
// re-ran the query at successive timestamps against a snapshot. Here the
// dispatcher instead registers the venue ONCE as a continuous query and
// the engine pushes enter/leave/update deltas at commit time, evaluating
// only the objects each commit touched. Users' policies restrict
// visibility to the venue area and to the event's hours — the
// <role, locr, tint> structure of the paper's policies — so bystanders
// who never opted in stay invisible no matter how they move.
//
// Deltas are enqueued synchronously under the commit critical section,
// so once Apply returns, every delta of that commit is already in the
// subscription's buffer: the non-blocking drain below is deterministic.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/peb"
	"repro/peb/cq"
)

// drain empties the subscription's buffered deltas into the dispatcher's
// presence mirror and reports the enters/leaves seen.
func drain(sub *cq.Subscription, present map[peb.UserID]bool) (enters, leaves int) {
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				return
			}
			switch d.Kind {
			case cq.Enter:
				present[d.Object.UID] = true
				enters++
			case cq.Leave:
				delete(present, d.Object.UID)
				leaves++
			}
		default:
			return
		}
	}
}

func main() {
	db, err := peb.Open(peb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	venue := peb.Region{MinX: 400, MinY: 400, MaxX: 600, MaxY: 600}
	eventHours := peb.TimeInterval{Start: 60, End: 240} // a 3-hour event

	// The dispatcher is user 1. 400 attendees opt in: they let the
	// dispatcher see them only while they are inside the venue during
	// event hours. Another 400 bystanders never opt in. All staged in one
	// batch.
	const (
		dispatcher = peb.UserID(1)
		attendees  = 400
		bystanders = 400
	)
	setup := db.NewBatch()
	for i := 0; i < attendees+bystanders; i++ {
		u := peb.UserID(10 + i)
		if i < attendees {
			setup.DefineRelation(u, dispatcher, "organizer")
			setup.Grant(u, "organizer", venue, eventHours)
		}
	}
	if err := db.Apply(setup); err != nil {
		log.Fatal(err)
	}
	if err := db.EncodePolicies(); err != nil {
		log.Fatal(err)
	}

	// Everyone starts scattered OUTSIDE the venue. Timestamps sit near the
	// subscription's evaluation time so the engine's enlarged-region prune
	// stays armed (the update contract: |t − tq| within ∆tmu).
	const tq = 150.0 // mid-event
	rng := rand.New(rand.NewSource(3))
	outside := func() (x, y float64) {
		x, y = rng.Float64()*1000, rng.Float64()*1000
		if x >= 350 && x <= 650 && y >= 350 && y <= 650 {
			x -= 350 // push out of the venue's neighborhood
		}
		return x, y
	}
	load := db.NewBatch()
	for i := 0; i < attendees+bystanders; i++ {
		x, y := outside()
		load.Upsert(peb.Object{UID: peb.UserID(10 + i), X: x, Y: y, T: 140})
	}
	if err := db.Apply(load); err != nil {
		log.Fatal(err)
	}

	// Register the standing query. The initial result seeds the mirror;
	// from here on, only deltas arrive.
	eng, err := cq.Attach(db)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	sub, initial, err := eng.SubscribeRange(dispatcher, venue, tq, cq.SubOptions{Buffer: 4096})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	present := make(map[peb.UserID]bool, attendees)
	for _, o := range initial {
		present[o.UID] = true
	}

	// move commits one batch of position updates: users[lo:hi) jump inside
	// the venue or back out, at time t.
	move := func(lo, hi int, intoVenue bool, t float64) {
		b := db.NewBatch()
		for i := lo; i < hi; i++ {
			var x, y float64
			if intoVenue {
				x = 410 + rng.Float64()*180
				y = 410 + rng.Float64()*180
			} else {
				x, y = outside()
			}
			b.Upsert(peb.Object{UID: peb.UserID(10 + i), X: x, Y: y, T: t})
		}
		if err := db.Apply(b); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("Standing privacy-aware venue watch (window = venue, evaluated mid-event):")
	phases := []struct {
		name string
		t    float64
		act  func(t float64)
	}{
		{"doors open", 145, func(t float64) {}},
		{"early arrivals", 155, func(t float64) { move(0, attendees/2, true, t) }},
		{"full house", 165, func(t float64) {
			move(attendees/2, attendees, true, t)
			// Bystanders wander in too — no grant, so no deltas fire.
			move(attendees, attendees+bystanders, true, t)
		}},
		{"milling crowd", 175, func(t float64) { move(0, attendees, true, t) }},
		{"everyone leaves", 185, func(t float64) { move(0, attendees+bystanders, false, t) }},
	}
	for _, ph := range phases {
		ph.act(ph.t)
		enters, leaves := drain(sub, present)
		fmt.Printf("  t=%3.0f (%-19s): %3d visible attendees (+%d/-%d)\n",
			ph.t, ph.name, len(present), enters, leaves)
	}

	st := eng.Stats()
	fmt.Printf("\nEngine: %d commits, %d deltas; evaluated %d candidates where naive re-runs cost %d (%.0fx less)\n",
		st.Commits, st.Deltas, st.Evaluated, st.Naive,
		float64(st.Naive)/float64(st.Evaluated))
}
