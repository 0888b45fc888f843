// Quickstart: run one declarative monitoring query over a synthetic
// traffic stream and compare the filter cascade against brute-force
// detection.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vmq"
)

func main() {
	// The paper's q3: all frames with exactly one car and exactly one
	// person, on the Jackson town-square stream.
	q, err := vmq.ParseQuery(`
		SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1`)
	if err != nil {
		log.Fatal(err)
	}

	// A session bundles the synthetic stream, the OD filter backend
	// (branching off a detector backbone, 1.9 ms/frame of virtual time)
	// and the Mask R-CNN stand-in detector (200 ms/frame). RunQuery pulls
	// frames through the pipelined streaming executor: the filter stage
	// runs chunks ahead while the detector confirms survivors in frame
	// order, so results are identical to a sequential scan.
	const frames = 3000
	sess := vmq.NewSession(vmq.Jackson(), 42)
	sess.Tol = vmq.Tolerances{} // exact CCF, the paper's q3 configuration

	res, err := sess.RunQuery(q, frames)
	if err != nil {
		log.Fatal(err)
	}

	// Measure accuracy against ground truth (the simulator knows it).
	ref := vmq.NewSession(vmq.Jackson(), 42)
	plan, err := ref.Bind(q)
	if err != nil {
		log.Fatal(err)
	}
	truth := vmq.GroundTruth(plan, ref.Stream.Take(frames))

	// And compare with annotating every frame.
	brute := vmq.NewSession(vmq.Jackson(), 42)
	bres, err := brute.RunQueryBrute(q, frames)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query:", q)
	fmt.Printf("matched %d frames, accuracy %.3f\n", len(res.Matched), vmq.Score(res, truth))
	fmt.Printf("cascade:     %8v virtual time (%d detector calls on %d frames)\n",
		res.VirtualTime, res.DetectorCalls, res.FramesTotal)
	fmt.Printf("brute force: %8v virtual time\n", bres.VirtualTime)
	fmt.Printf("speedup:     %.1fx\n", bres.VirtualTime.Seconds()/res.VirtualTime.Seconds())
}
