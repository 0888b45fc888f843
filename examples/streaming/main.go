// Streaming: the pipelined executor over bounded and unbounded sources.
//
// The batch path materialises a clip and scans it; the deployment story
// of the paper is a monitor that keeps up with a live feed. This example
// runs the same query three ways:
//
//  1. over the live (unbounded) session stream, pulled chunk by chunk
//     through the pipelined executor — a filter stage running ahead of
//     in-order confirmation, bounded channels for backpressure;
//
//  2. over a short recorded clip via SliceSource, showing graceful
//     end-of-stream instead of a panic when the clip runs out;
//
//  3. as a sequence of hopping windows with one aggregate estimate per
//     window, the WINDOW HOPPING clause end to end.
//
// Run it with:
//
//	go run ./examples/streaming
package main

import (
	"errors"
	"fmt"
	"log"

	"vmq"
)

func main() {
	q, err := vmq.ParseQuery(`
		SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1`)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Live stream: the executor pulls exactly n frames from the
	// session's unbounded simulator feed.
	const n = 4000
	sess := vmq.NewSession(vmq.Jackson(), 42)
	sess.Tol = vmq.Tolerances{}
	res, err := sess.RunQuery(q, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live stream:  %d frames -> %d matches (%d detector calls, %v virtual time)\n",
		res.FramesTotal, len(res.Matched), res.DetectorCalls, res.VirtualTime)

	// 2. Recorded clip: a SliceSource ends gracefully, so asking for more
	// frames than the clip holds just processes the whole clip.
	clip := vmq.NewSession(vmq.Jackson(), 42).Stream.Take(1500)
	res2, err := vmq.NewSession(vmq.Jackson(), 42).RunQueryOn(q, vmq.SliceSource(clip), n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("short clip:   asked for %d frames, clip held %d -> processed %d, %d matches\n",
		n, len(clip), res2.FramesTotal, len(res2.Matched))

	// 3. Hopping windows: one aggregate estimate per 1000-frame batch.
	wq, err := vmq.ParseQuery(`
		SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) = 1
		WINDOW HOPPING (SIZE 1000, ADVANCE BY 1000)`)
	if err != nil {
		log.Fatal(err)
	}
	wins, err := vmq.NewSession(vmq.Jackson(), 42).RunWindows(wq, 3, 150)
	if err != nil && !errors.Is(err, vmq.ErrStreamExhausted) {
		log.Fatal(err)
	}
	for i, w := range wins {
		fmt.Printf("window %d:     ~%.0f qualifying frames (truth %.0f, variance reduced %.1fx)\n",
			i, w.CV.Estimate*float64(w.WindowSize), w.TruePerFrameMean*float64(w.WindowSize), w.CV.Reduction)
	}
}
