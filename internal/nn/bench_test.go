package nn

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"vmq/internal/tensor"
)

func benchNet(b *testing.B) (*CountLocNet, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	const img, d, classes = 32, 16, 2
	net := NewCountLocNet(rng, ICBackbone(rng, 3, img, d), d, img/4, classes)
	frame := tensor.New(3, img, img)
	frame.RandN(rng, 1)
	return net, frame
}

// BenchmarkCountLocNetForward measures one filter inference at the
// trained-backend resolution (the real-CNN analogue of the paper's
// 1.5 ms/frame figure).
func BenchmarkCountLocNetForward(b *testing.B) {
	net, frame := benchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(frame)
	}
}

// BenchmarkForwardBatch measures the batched inference hot path: 32
// frames per ForwardBatch through the arena-backed one-GEMM-per-layer
// kernels. Compare against BenchmarkForwardPerFrame (the same 32 frames
// through the per-frame training-path Forward): the batched pass is the
// production inference path and must be at least 2x the frames/s at a
// fraction of the allocations.
func BenchmarkForwardBatch(b *testing.B) {
	net, _ := benchNet(b)
	rng := rand.New(rand.NewPCG(2, 2))
	const batchN = 32
	batch := tensor.New(batchN, 3, 32, 32)
	batch.RandN(rng, 1)
	ar := &Arena{}
	ar.Reset()
	net.ForwardBatch(ar, batch) // warm the arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		net.ForwardBatch(ar, batch)
	}
	b.ReportMetric(float64(batchN)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkForwardBatchWidth reports the batched forward's cost per frame
// (ns/frame) as the batch widens from 1 to 32 frames, on the served
// networks' shape: CountLocNet over the OD backbone with 16 channels and
// two classes, at 32×32 and 48×48 inputs. One ForwardBatch call runs on
// one core, so measure it on one processor:
//
//	go test -run '^$' -bench ForwardBatchWidth -cpu 1 ./internal/nn
//
// The property it watches is a width-flat forward: the GEMM streams a
// zero-bordered copy of the input instead of an im2col matrix nine times
// its size, so a wide batch's working set stays in cache and w=32 should
// cost no more per frame than w=1.
func BenchmarkForwardBatchWidth(b *testing.B) {
	for _, img := range []int{32, 48} {
		rng := rand.New(rand.NewPCG(1, uint64(img)))
		const d, classes = 16, 2
		net := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)
		for _, width := range []int{1, 2, 4, 8, 16, 32} {
			batch := tensor.New(width, 3, img, img)
			batch.RandN(rng, 1)
			b.Run(fmt.Sprintf("img%d/w%d", img, width), func(b *testing.B) {
				ar := &Arena{}
				net.ForwardBatch(ar, batch) // warm the arena
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ar.Reset()
					net.ForwardBatch(ar, batch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/frame")
			})
		}
	}
}

// BenchmarkForwardPerFrame is the per-frame baseline over the identical
// 32-frame workload.
func BenchmarkForwardPerFrame(b *testing.B) {
	net, _ := benchNet(b)
	rng := rand.New(rand.NewPCG(2, 2))
	const batchN = 32
	batch := tensor.New(batchN, 3, 32, 32)
	batch.RandN(rng, 1)
	frames := make([]*tensor.Tensor, batchN)
	for f := range frames {
		frames[f] = tensor.FromSlice(batch.Data[f*3*32*32:(f+1)*3*32*32], 3, 32, 32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			net.Forward(f)
		}
	}
	b.ReportMetric(float64(batchN)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkCountLocNetTrainStep measures one full forward/backward/step
// under the Eq. 2 multi-task loss.
func BenchmarkCountLocNetTrainStep(b *testing.B) {
	net, frame := benchNet(b)
	opt := NewAdam(net.Params(), 1e-3, 0)
	clabels := tensor.New(2)
	mlabels := tensor.New(2, 8, 8)
	loss := &MultiTaskLoss{Alpha: 1, Beta: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, maps := net.Forward(frame)
		_, gc, gm := loss.Eval(counts, clabels, maps, mlabels)
		net.Backward(gc, gm)
		opt.Step()
	}
}
