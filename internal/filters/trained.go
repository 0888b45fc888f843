package filters

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"vmq/internal/geom"
	"vmq/internal/grid"
	"vmq/internal/nn"
	"vmq/internal/simclock"
	"vmq/internal/tensor"
	"vmq/internal/video"
)

// Trained is the real-CNN filter backend: frames are rasterised and passed
// through a CountLocNet branch network whose architecture mirrors the
// paper's Figure 2 (IC) or Figure 4 (OD). The network is trained with the
// paper's pipeline — ground-truth labels produced by the oracle detector
// standing in for Mask R-CNN, the Eq. 2 multi-task loss, and the staged
// count-then-localization schedule of Section II-A.
type Trained struct {
	Tech  Technique
	Net   *nn.CountLocNet
	Clock *simclock.Clock
	// Img is the rasterisation resolution (square).
	Img int
	// Threshold converts activation maps to binary occupancy (the paper
	// uses 0.2 for OD filters).
	Threshold float32
	// NoiseSeed feeds the rasteriser's sensor noise.
	NoiseSeed uint64

	classes []video.Class

	// eval's reusable inference buffers make Trained single-threaded (not
	// a ConcurrentBackend: the executors serialise its calls, and each
	// call splits its frames across cores).
	eval fanout

	// keyOnce/key cache the CoalesceKey fingerprint (see coalesce.go).
	keyOnce sync.Once
	key     string
}

// TrainedConfig controls training of a Trained backend.
type TrainedConfig struct {
	// Img is the rasterised frame size (default 48, giving a 12×12 grid
	// with the standard backbones — the paper's 448→56 geometry at 1/9
	// scale).
	Img int
	// Channels is the backbone feature-map depth d (default 24).
	Channels int
	// Frames is the number of training frames to draw (default 400).
	Frames int
	// Epochs is the number of passes over the training frames (default 3).
	Epochs int
	// LR is the optimizer learning rate (default 1e-3; the paper's 1e-4 is
	// tuned for far longer schedules).
	LR float64
	// Seed drives weight init, frame generation and shuffling.
	Seed uint64
}

// Validate reports a configuration whose location maps cannot be built:
// the grid is Img/4 cells a side and a grid.Binary holds at most
// grid.MaxG columns, so Img must be 0 (the default) or 4..4·grid.MaxG
// (256). TrainFilter and NewUntrained panic on such a configuration
// before they build anything; TrainCOF builds no maps and does not check.
func (c TrainedConfig) Validate() error {
	if c.Img != 0 && (c.Img < 4 || c.Img > 4*grid.MaxG) {
		return fmt.Errorf("filters: Img %d gives a %d-cell location grid; Img must be 4..%d", c.Img, c.Img/4, 4*grid.MaxG)
	}
	return nil
}

// mustValidate panics on a configuration Validate refuses, then applies
// the defaults.
func (c *TrainedConfig) mustValidate() {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	c.defaults()
}

func (c *TrainedConfig) defaults() {
	if c.Img == 0 {
		c.Img = 48
	}
	if c.Channels == 0 {
		c.Channels = 24
	}
	if c.Frames == 0 {
		c.Frames = 400
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
}

// TrainFilter trains a Trained backend for the profile following the
// paper's recipe: labels come from the ground-truth annotator (the
// Mask R-CNN stand-in), the loss is Eq. 2 with per-class weights equal to
// the fraction of training frames containing the class, and the schedule
// first optimizes counts only (β = 0) before enabling the localization
// term with (α, β) = (1, 10) and decaying β.
func TrainFilter(tech Technique, profile video.Profile, cfg TrainedConfig, clock *simclock.Clock) *Trained {
	cfg.mustValidate()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x6c62272e07bb0142))
	t := newTrained(tech, profile, cfg, clock, rng)
	net, classes, g := t.Net, t.classes, t.Net.Grid()

	// Materialise the training set with ground-truth annotations.
	src := video.NewStream(profile, cfg.Seed+1)
	frames := src.Take(cfg.Frames)
	inputs := make([]*tensor.Tensor, len(frames))
	countLabels := make([]*tensor.Tensor, len(frames))
	mapLabels := make([]*tensor.Tensor, len(frames))
	classSeen := make([]float64, len(classes))
	for i, f := range frames {
		inputs[i] = video.Render(f, cfg.Img, cfg.Img, cfg.Seed+2)
		cl := tensor.New(len(classes))
		ml := tensor.New(len(classes), g, g)
		for ci, cls := range classes {
			cl.Data[ci] = float32(f.CountClass(cls))
			if cl.Data[ci] > 0 {
				classSeen[ci]++
			}
			bm := grid.FromBoxes(boxesOf(f, cls), f.Bounds, g, 0)
			for r := 0; r < g; r++ {
				for c := 0; c < g; c++ {
					if bm.At(r, c) {
						ml.Data[(ci*g+r)*g+c] = 1
					}
				}
			}
		}
		countLabels[i] = cl
		mapLabels[i] = ml
	}
	weights := make([]float64, len(classes))
	for i := range weights {
		weights[i] = classSeen[i] / float64(len(frames))
		if weights[i] == 0 {
			weights[i] = 1.0 / float64(len(frames))
		}
	}

	// Optimizers and losses follow the paper: IC trains with Adam under
	// the Eq. 2 multi-task loss and the staged count-then-localization
	// schedule; OD trains with SGD (momentum 0.9, weight decay 5e-4)
	// under the Eq. 3 branch loss from the start.
	order := rng.Perm(len(frames))
	if tech == IC {
		opt := nn.NewAdam(net.Params(), cfg.LR, 5e-4)
		loss := &nn.MultiTaskLoss{Alpha: 1, Beta: 0, ClassWeights: weights}
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			switch {
			case epoch == 0:
				loss.Beta = 0 // counts only, as in the paper's first phase
			case epoch == 1:
				loss.Beta = 10
			default:
				loss.Beta /= 2 // gradual decay, α fixed at 1
			}
			for _, i := range order {
				counts, maps := net.Forward(inputs[i])
				_, gc, gm := loss.Eval(counts, countLabels[i], maps, mapLabels[i])
				net.Backward(gc, gm)
				opt.Step()
			}
		}
	} else {
		opt := nn.NewSGD(net.Params(), cfg.LR, 0.9, 5e-4)
		loss := nn.DefaultBranchLoss()
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for _, i := range order {
				counts, maps := net.Forward(inputs[i])
				_, gc, gm := loss.Eval(counts, countLabels[i], maps, mapLabels[i])
				net.Backward(gc, gm)
				opt.Step()
			}
		}
	}

	return t
}

// newTrained builds a Trained backend over the profile's classes with a
// freshly initialised network drawn from rng: the backbone tech calls
// for and count/location heads on a g = Img/4 grid.
func newTrained(tech Technique, profile video.Profile, cfg TrainedConfig, clock *simclock.Clock, rng *rand.Rand) *Trained {
	classes := make([]video.Class, 0, len(profile.Classes))
	for _, cm := range profile.Classes {
		classes = append(classes, cm.Class)
	}
	var backbone *nn.Sequential
	if tech == IC {
		backbone = nn.ICBackbone(rng, 3, cfg.Img, cfg.Channels)
	} else {
		backbone = nn.ODBackbone(rng, 3, cfg.Img, cfg.Channels)
	}
	net := nn.NewCountLocNet(rng, backbone, cfg.Channels, cfg.Img/4, len(classes))
	return &Trained{
		Tech: tech, Net: net, Clock: clock,
		Img: cfg.Img, Threshold: 0.2, NoiseSeed: cfg.Seed + 2,
		classes: classes,
	}
}

func boxesOf(f *video.Frame, cls video.Class) []geom.Rect {
	var out []geom.Rect
	for _, o := range f.Objects {
		if o.Class == cls {
			out = append(out, o.Box)
		}
	}
	return out
}

// TrainedCOF is the real-CNN counterpart of the OD-COF filter (Section
// II-B1): a count-only regression branch with no location maps, trained
// end to end under SmoothL1 on total object counts.
type TrainedCOF struct {
	Net       *nn.CountOnlyNet
	Clock     *simclock.Clock
	Img       int
	NoiseSeed uint64

	eval fanout

	keyOnce sync.Once
	key     string
}

// TrainCOF trains the count-optimized classifier on rasterised frames of
// the profile, labelling each frame with its annotated total object count
// as the paper does ("we obtain the number of objects for each frame
// detecting all objects and counting them").
func TrainCOF(profile video.Profile, cfg TrainedConfig, clock *simclock.Clock) *TrainedCOF {
	cfg.defaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xcbf29ce484222325))
	net := nn.NewCountOnlyNet(rng, 3, cfg.Img)
	opt := nn.NewAdam(net.Params(), cfg.LR, 5e-4)
	src := video.NewStream(profile, cfg.Seed+1)
	frames := src.Take(cfg.Frames)
	inputs := make([]*tensor.Tensor, len(frames))
	labels := make([]float64, len(frames))
	for i, f := range frames {
		inputs[i] = video.Render(f, cfg.Img, cfg.Img, cfg.Seed+2)
		labels[i] = float64(f.Count())
	}
	order := rng.Perm(len(frames))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, i := range order {
			net.TrainStep(inputs[i], labels[i], opt)
		}
	}
	return &TrainedCOF{Net: net, Clock: clock, Img: cfg.Img, NoiseSeed: cfg.Seed + 2}
}

// Technique implements Backend: COF branches off the detector backbone.
func (t *TrainedCOF) Technique() Technique { return OD }

// Grid implements Backend; COF produces no location maps.
func (t *TrainedCOF) Grid() int { return 1 }

// SetEvalWorkers implements Parallel as a no-op: like Trained's,
// EvaluateBatch sizes its own fan-out.
func (t *TrainedCOF) SetEvalWorkers(int) {}

// ForwardFlops implements Parallel.
func (t *TrainedCOF) ForwardFlops() int64 { return t.Net.ForwardFlops(3, t.Img, t.Img) }

// Evaluate implements Backend: only the total count is populated. Like
// Trained, it routes through the batched pass with a batch of one.
func (t *TrainedCOF) Evaluate(f *video.Frame) *Output {
	return t.EvaluateBatch([]*video.Frame{f}, nil)[0]
}

// EvaluateBatch implements BatchBackend for the count-only branch.
func (t *TrainedCOF) EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output {
	t.Clock.Charge(OD.Cost(), int64(len(frames))) // no-op for an empty call
	return t.eval.evaluate(t, frames, t.Img, t.NoiseSeed, dst)
}

func (t *TrainedCOF) forward(ar *nn.Arena, batch *tensor.Tensor, out []*Output) {
	totals := t.Net.ForwardBatch(ar, batch)
	for i := range out {
		out[i] = &Output{Total: float64(totals.Data[i])}
	}
}

// NewUntrained builds a Trained backend with freshly initialised weights
// and no training — the skeleton that LoadWeights restores a saved model
// into. The configuration must match the one the saved model was trained
// with.
func NewUntrained(tech Technique, profile video.Profile, cfg TrainedConfig, clock *simclock.Clock) *Trained {
	cfg.mustValidate()
	return newTrained(tech, profile, cfg, clock, rand.New(rand.NewPCG(cfg.Seed, 0x6c62272e07bb0142)))
}

// SaveWeights serialises the trained network's parameters.
func (t *Trained) SaveWeights(w io.Writer) error {
	return nn.SaveParams(w, t.Net.Params())
}

// LoadWeights restores parameters saved by SaveWeights into this backend.
// The architectures must match exactly.
func (t *Trained) LoadWeights(r io.Reader) error {
	return nn.LoadParams(r, t.Net.Params())
}

// Technique implements Backend.
func (t *Trained) Technique() Technique { return t.Tech }

// Grid implements Backend.
func (t *Trained) Grid() int { return t.Net.Grid() }

// SetEvalWorkers implements Parallel as a no-op: EvaluateBatch always
// rasterises and forwards on min(GOMAXPROCS, frames) cores.
func (t *Trained) SetEvalWorkers(int) {}

// ForwardFlops implements Parallel: the per-frame multiply-add estimate
// for one rasterised frame through the branch network.
func (t *Trained) ForwardFlops() int64 { return t.Net.ForwardFlops(3, t.Img, t.Img) }

// Evaluate implements Backend. It routes through the batched forward pass
// with a batch of one, so chunked and per-frame execution produce
// bit-identical outputs (the batched kernels accumulate in the same order
// for every batch width).
func (t *Trained) Evaluate(f *video.Frame) *Output {
	return t.EvaluateBatch([]*video.Frame{f}, nil)[0]
}

// EvaluateBatch implements BatchBackend: each core rasterises a part of
// the frames and pushes it through one ForwardBatch (one GEMM per layer),
// and the total virtual cost is charged in one clock transaction. Outputs
// are appended to dst per the interface's aliasing rule.
func (t *Trained) EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output {
	t.Clock.Charge(t.Tech.Cost(), int64(len(frames))) // no-op for an empty call
	return t.eval.evaluate(t, frames, t.Img, t.NoiseSeed, dst)
}

func (t *Trained) forward(ar *nn.Arena, batch *tensor.Tensor, out []*Output) {
	counts, maps := t.Net.ForwardBatch(ar, batch)
	g, nc := t.Net.Grid(), t.Net.Classes()
	plane := g * g
	for i := range out {
		o := &Output{}
		for ci, cls := range t.classes {
			v := float64(counts.Data[i*nc+ci])
			o.Counts[cls] = v
			o.Total += v
			o.Maps[cls] = (&grid.Map{G: g, Cells: maps.Data[(i*nc+ci)*plane : (i*nc+ci+1)*plane]}).Threshold(t.Threshold)
		}
		out[i] = o
	}
}

// forwarder runs one rasterised part through a trained network on ar.
type forwarder interface {
	forward(ar *nn.Arena, batch *tensor.Tensor, out []*Output)
}

// fanout holds a trained backend's NCHW batch buffer and one arena per
// part, grown on demand; evaluate is the one place that sizes a fan-out.
type fanout struct {
	batch *tensor.Tensor
	parts []struct {
		arena  nn.Arena
		failed any // the part's recovered panic, re-raised by evaluate
	}
}

// evaluate splits frames into min(GOMAXPROCS, n) contiguous parts. The
// caller runs part 0 and a goroutine each other part, so a one-frame call
// starts none. Outputs land by index after dst's elements; they do not
// depend on the split, as the batched kernels agree at every batch width.
func (s *fanout) evaluate(b forwarder, frames []*video.Frame, img int, noiseSeed uint64, dst []*Output) []*Output {
	n := len(frames)
	if n == 0 {
		return dst
	}
	parts := min(runtime.GOMAXPROCS(0), n)
	if s.batch == nil || s.batch.Shape[0] < n {
		// Headroom for ragged query chunks, as in nn.Arena.
		s.batch = tensor.New(n+n/4+1, 3, img, img)
	}
	if len(s.parts) < parts {
		s.parts = slices.Grow(s.parts, parts-len(s.parts))[:parts]
	}
	dst = slices.Grow(dst, n)
	var wg sync.WaitGroup
	wg.Add(parts)
	for p := 1; p < parts; p++ {
		go s.part(&wg, b, p, parts, frames, dst[len(dst):len(dst)+n], img, noiseSeed)
	}
	s.part(&wg, b, 0, parts, frames, dst[len(dst):len(dst)+n], img, noiseSeed)
	wg.Wait()
	for p := range parts {
		if f := s.parts[p].failed; f != nil {
			panic(f)
		}
	}
	return dst[:len(dst)+n]
}

// part rasterises frame n's CHW image into the batch slab at n·3·img² and
// forwards the part's slabs, recovering a panic for evaluate to re-raise.
func (s *fanout) part(wg *sync.WaitGroup, b forwarder, p, parts int, frames []*video.Frame, out []*Output, img int, noiseSeed uint64) {
	defer func() { s.parts[p].failed = recover(); wg.Done() }()
	lo, hi := p*len(frames)/parts, (p+1)*len(frames)/parts
	batch := &tensor.Tensor{Shape: []int{hi - lo, 3, img, img}, Data: s.batch.Data[lo*3*img*img : hi*3*img*img]}
	video.RenderBatchInto(batch, frames[lo:hi], noiseSeed, 1)
	s.parts[p].arena.Reset()
	b.forward(&s.parts[p].arena, batch, out[lo:hi])
}
