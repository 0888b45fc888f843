package main

import (
	"fmt"

	"vmq"
)

// backendKind selects the filter backend every feed of a workload serves.
type backendKind int

const (
	// calibratedOD is the calibrated OD surrogate (microseconds per frame).
	calibratedOD backendKind = iota
	// trainedOD is a real trained CNN (rasterise + conv stack per frame).
	trainedOD
)

// deliveryKind selects how result events reach the consumer.
type deliveryKind int

const (
	// readerAck reads Registration.ResultsFrom(0) and acks every event.
	readerAck deliveryKind = iota
	// resultsChan ranges over Registration.Results() without acking.
	resultsChan
	// routedStream reads the router's merged GET /v1/stream over HTTP and
	// acks through POST /v1/queries/{id}/ack every ackEvery events.
	routedStream
)

// querySpec is one standing query registered on every feed of a workload;
// %s in Text is the feed name.
type querySpec struct {
	Text   string
	Window bool // hopping-window aggregate (emits window events, no matches)
	// Policy and Buffer are set only where the workload's purpose needs
	// them; zero values leave the server defaults in force.
	Policy vmq.DeliveryPolicy
	Buffer int
}

// workload is one traffic mix. Frame counts derive from the nominal rates
// and the run length, so a run measures a fixed amount of work that lasts
// about -seconds at the commit the rates were recorded on.
type workload struct {
	Name string
	Why  string

	Profile  func() vmq.Profile
	Feeds    int
	Backend  backendKind
	Train    vmq.TrainedConfig // trainedOD only
	Queries  []querySpec
	Delivery deliveryKind
	Shards   int // routedStream only

	// SatFPS is the saturate-phase throughput recorded at the seed commit,
	// all feeds together; it only sizes the phase. PacedFPS is the
	// open-loop offered rate, all feeds together: the round number nearest
	// half of SatFPS, frozen so every later commit is offered the same
	// load.
	SatFPS   float64
	PacedFPS float64
}

// Shared run shape.
const (
	warmFrames   = 512  // per feed, untimed, published before every phase
	gatePrefix   = 2048 // per feed, frames after warm-up the correctness gate replays
	pushCapacity = 256  // ingest ring, frames
	ackEvery     = 256  // routedStream: events between acks, per query
	routedBuffer = 1024 // routedStream: result ring, must exceed ackEvery
	windowSize   = 500
	latChunks    = 5 // latency percentiles are medians over this many chunks of the paced phase

	// modelSeed seeds filter training for every run. The trained network is
	// part of the system under test, like shipped weights: -seed changes
	// the frames and the samplers, never the model, so runs on different
	// seeds measure the same network.
	modelSeed = 1

	// Phase shares of -seconds. A run is three incarnations of the system,
	// each set up from scratch: saturate, paced, saturate.
	satShare   = 0.2 // each of the two saturate phases
	pacedShare = 0.5
)

var workloads = []workload{
	{
		Name:    "cnn_dense",
		Why:     "one feed behind a trained CNN, 4 queries share the scan: rasteriser, im2col and GEMM do the work; broker and delivery idle",
		Profile: vmq.Jackson, Feeds: 1, Backend: trainedOD,
		Train: vmq.TrainedConfig{Img: 48, Channels: 16, Frames: 200, Epochs: 2, Seed: modelSeed},
		Queries: []querySpec{
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) >= 1`},
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(person) >= 1`},
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) >= 2`},
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`},
		},
		Delivery: readerAck,
		SatFPS:   3700, PacedFPS: 1800,
	},
	{
		Name:    "cnn_sparse_fleet",
		Why:     "8 sparse feeds on clones of one small CNN, arrivals 8 ms apart: the scan batcher and coalescing broker set batch width and waiting time",
		Profile: vmq.Jackson, Feeds: 8, Backend: trainedOD,
		Train: vmq.TrainedConfig{Img: 32, Channels: 16, Frames: 200, Epochs: 2, Seed: modelSeed},
		Queries: []querySpec{
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) = 1`},
		},
		Delivery: readerAck,
		SatFPS:   8500, PacedFPS: 1000,
	},
	{
		Name:    "delivery_routed",
		Why:     "2 shards behind the router, microsecond filter, every frame an event: rlog, NDJSON, relay and merge do the work; tensor and nn none",
		Profile: vmq.Jackson, Feeds: 2, Backend: calibratedOD,
		Queries: []querySpec{
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) >= 0`, Policy: vmq.DeliverBlock, Buffer: routedBuffer},
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(car) = 1`, Policy: vmq.DeliverBlock, Buffer: routedBuffer},
		},
		Delivery: routedStream, Shards: 2,
		SatFPS: 40000, PacedFPS: 10000,
	},
	{
		Name:    "calibrated_mix",
		Why:     "dense detrac feed, drop-oldest spatial queries beside hopping-window aggregates: executor, memos, detector sampling and control variates do the work",
		Profile: vmq.Detrac, Feeds: 1, Backend: calibratedOD,
		Queries: []querySpec{
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(bus) >= 1 AND car LEFT OF bus`, Policy: vmq.DeliverDropOldest, Buffer: 4096},
			{Text: `SELECT FRAMES FROM %s WHERE COUNT(truck) >= 1 AND car ABOVE truck`, Policy: vmq.DeliverDropOldest, Buffer: 4096},
			{Text: fmt.Sprintf(`SELECT COUNT(FRAMES) FROM %%s WHERE COUNT(car) >= 12 WINDOW HOPPING (SIZE %d, ADVANCE BY %d)`, windowSize, windowSize), Window: true},
			{Text: fmt.Sprintf(`SELECT AVG(COUNT(car)) FROM %%s WINDOW HOPPING (SIZE %d, ADVANCE BY %d)`, windowSize, windowSize), Window: true},
		},
		Delivery: resultsChan,
		SatFPS:   30000, PacedFPS: 10000,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// feedName names feed i. A single-feed workload uses the dataset name so
// its query texts read like the paper's; fleets number their cameras.
func (w *workload) feedName(i int) string {
	if w.Feeds == 1 {
		return w.Profile().Name
	}
	return fmt.Sprintf("cam%d", i)
}

// phaseFrames returns the per-feed frame count (warm-up excluded) of a
// phase lasting share of seconds at rate fps over all feeds, at least min
// (a scaled-down smoke run must still emit windows and feed the gate).
func (w *workload) phaseFrames(fps, seconds, share, scale float64, min int) int {
	n := int(fps * seconds * share * scale / float64(w.Feeds))
	if n < min {
		n = min
	}
	return n
}
