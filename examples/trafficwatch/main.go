// Trafficwatch: continuous spatial monitoring with object tracking.
//
// The example watches the Jackson stream for the paper's q5 event —
// exactly one car and one person with the car left of the person — and
// reports each *episode* (a maximal run of qualifying frames for the same
// car, keyed on the detector's track id) rather than every frame, the way
// a real surveillance deployment would raise alerts.
//
//	go run ./examples/trafficwatch
package main

import (
	"fmt"
	"log"
	"sort"

	"vmq"
)

// episode is a maximal run of qualifying frames for one tracked car.
type episode struct {
	carTrack   int
	start, end int
}

func main() {
	q, err := vmq.ParseQuery(`
		SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`)
	if err != nil {
		log.Fatal(err)
	}
	sess := vmq.NewSession(vmq.Jackson(), 7)
	sess.Tol = vmq.Tolerances{Location: 1} // the paper's OD-CCF/OD-CLF-1 combo

	plan, err := sess.Bind(q)
	if err != nil {
		log.Fatal(err)
	}

	const n = 6000             // ~3m20s of 30fps video
	const gap = 15             // frames of silence that close an episode (0.5 s)
	open := map[int]*episode{} // car track id -> open episode
	var episodes []episode
	matched, detectorCalls := 0, 0

	for i := 0; i < n; i++ {
		f := sess.Stream.Next()
		// Close episodes that have been silent too long.
		for id, ep := range open {
			if i-ep.end > gap {
				episodes = append(episodes, *ep)
				delete(open, id)
			}
		}
		// Filter stage: cheap, runs on every frame.
		out := sess.Backend.Evaluate(f)
		if plan.Where != nil && !plan.Where.EvalFilter(out, f.Bounds, sess.Tol) {
			continue
		}
		// Confirmation stage: detector and exact predicate.
		dets := sess.Detector.Detect(f)
		detectorCalls++
		if plan.Where != nil && !plan.Where.EvalExact(dets, f.Bounds) {
			continue
		}
		matched++
		for _, d := range dets {
			if d.Class != vmq.Car {
				continue
			}
			if ep, ok := open[d.TrackID]; ok {
				ep.end = i
			} else {
				open[d.TrackID] = &episode{carTrack: d.TrackID, start: i, end: i}
			}
		}
	}
	for _, ep := range open {
		episodes = append(episodes, *ep)
	}
	sort.Slice(episodes, func(a, b int) bool { return episodes[a].start < episodes[b].start })

	fmt.Printf("watched %d frames, %d qualified (%d detector calls, %v virtual time)\n",
		n, matched, detectorCalls, sess.Clock.Elapsed())
	fmt.Printf("%d distinct car-left-of-person episodes:\n", len(episodes))
	for _, ep := range episodes {
		fmt.Printf("  car track %3d: frames %5d..%5d (%.1fs)\n",
			ep.carTrack, ep.start, ep.end, float64(ep.end-ep.start+1)/30)
	}
}
