package filters

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"vmq/internal/nn"
)

// Trained-network identity
//
// A trained backend fingerprints everything its evaluation depends on
// (architecture, trained weights, rasterisation parameters, cost
// accounting) as its CoalesceKey, so equal keys mean interchangeable
// backends. The executor's chunk rule reads the key through CoalesceKeyOf:
// a query whose filter declares one is a trained network, whose GEMMs
// amortise over a chunk of the frames its source already holds, while any
// other query streams chunks of one frame.

// Coalescable is implemented by trained batch backends. Implementors
// promise that two backends with equal keys produce bit-identical Outputs
// for any frame and charge costs to the same clock.
type Coalescable interface {
	BatchBackend
	// CoalesceKey returns the backend's non-empty architecture/weights
	// identity. It is computed once and cached: backends must not be
	// retrained or have weights reloaded while being served.
	CoalesceKey() string
}

// CoalesceKeyOf returns b's trained-network identity, or "" when b does
// not declare one.
func CoalesceKeyOf(b Backend) string {
	if c, ok := b.(Coalescable); ok {
		return c.CoalesceKey()
	}
	return ""
}

// hashParams folds every parameter tensor (shape and bit-exact values)
// into h.
func hashParams(h io.Writer, params []*nn.Param) {
	var buf [4]byte
	for _, p := range params {
		for _, d := range p.Value.Shape {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			h.Write(buf[:])
		}
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
}

// CoalesceKey implements Coalescable: the identity covers the filter
// family, rasterisation geometry and noise seed, thresholding, the class
// universe, the clock costs are charged to, and an FNV-1a fingerprint of
// every trained weight. Separately trained networks that happen to share
// an architecture hash apart; the same saved model loaded into two
// instances hashes together.
func (t *Trained) CoalesceKey() string {
	t.keyOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "trained|%v|img=%d|thr=%g|noise=%d|classes=%v|clock=%p|",
			t.Tech, t.Img, t.Threshold, t.NoiseSeed, t.classes, t.Clock)
		hashParams(h, t.Net.Params())
		t.key = fmt.Sprintf("%v-cnn-%016x", t.Tech, h.Sum64())
	})
	return t.key
}

// CoalesceKey implements Coalescable for the count-only branch.
func (t *TrainedCOF) CoalesceKey() string {
	t.keyOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "cof|img=%d|noise=%d|clock=%p|", t.Img, t.NoiseSeed, t.Clock)
		hashParams(h, t.Net.Params())
		t.key = fmt.Sprintf("OD-cof-%016x", h.Sum64())
	})
	return t.key
}
