// Package vmq is a from-scratch Go implementation of "Video Monitoring
// Queries" (Koudas, Li, Xarchakos — ICDE 2020): declarative queries over
// streaming video with count and spatial constraints, accelerated by
// approximate IC/OD filters, with control-variate estimation for windowed
// aggregates.
//
// The package is a facade over the internal implementation. A typical
// monitoring query runs in three lines:
//
//	q, _ := vmq.ParseQuery(`SELECT FRAMES FROM jackson
//	    WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`)
//	sess := vmq.NewSession(vmq.Jackson(), 42)
//	res, _ := sess.RunQuery(q, 3000)
//
// Aggregate queries with control variates (Section III of the paper) go
// through RunAggregate; the experiment harness that regenerates every
// table and figure of the paper's evaluation lives under Experiments.
package vmq

import (
	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/fleet"
	"vmq/internal/query"
	"vmq/internal/rlog"
	"vmq/internal/server"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Profile describes a synthetic dataset (classes, density, motion).
	Profile = video.Profile
	// Frame is one video frame with ground-truth annotations.
	Frame = video.Frame
	// Object is one ground-truth object instance.
	Object = video.Object
	// Class identifies an object class (car, person, ...).
	Class = video.Class
	// Color is an object colour attribute.
	Color = video.Color
	// Query is a parsed VQL statement.
	Query = vql.Query
	// Plan is a query bound to a dataset profile.
	Plan = query.Plan
	// Tolerances selects filter variants (CCF-1/2, CLF-1/2).
	Tolerances = query.Tolerances
	// Result summarises a monitoring-query execution.
	Result = query.Result
	// AggregateResult is a windowed aggregate estimate with CV statistics.
	AggregateResult = query.AggregateResult
	// Backend produces filter estimates for frames.
	Backend = filters.Backend
	// Output is one filter forward pass (counts + location maps).
	Output = filters.Output
	// Detector is a full object detector (the confirmation stage).
	Detector = detect.Detector
	// Detection is one detected object.
	Detection = detect.Detection
	// Clock accounts virtual per-operator time.
	Clock = simclock.Clock
	// Source yields frames one at a time with graceful end-of-stream
	// (Next returns false once exhausted).
	Source = stream.Source
	// FrameRef identifies a matched frame by camera and frame index.
	FrameRef = query.FrameRef
	// MergedResult is a multi-camera roll-up with per-camera attribution.
	MergedResult = query.MergedResult
	// Server hosts continuous queries over named live feeds with
	// shared-scan scheduling (one filter evaluation per frame, however
	// many queries share the feed).
	Server = server.Server
	// ServerConfig tunes a Server.
	ServerConfig = server.Config
	// FeedConfig describes one named live feed.
	FeedConfig = server.FeedConfig
	// FeedSpec is a feed's serialisable description (the POST /v1/feeds
	// wire shape): feeds created from a spec on a journaling server are
	// recorded durably and re-created on restart.
	FeedSpec = server.FeedSpec
	// QueryFailure captures a panic recovered inside a query's execution
	// pipeline — the evidence behind a query_failed end event.
	QueryFailure = query.Failure
	// Registration is one continuous query registered on a Server.
	Registration = server.Registration
	// RegistrationOptions tunes one query registration.
	RegistrationOptions = server.Options
	// Event is one entry in a registration's result stream.
	Event = server.Event
	// ServerMetrics is the server telemetry snapshot.
	ServerMetrics = server.Metrics
	// IngestMetrics is a push feed's ingest-ring telemetry within
	// ServerMetrics (depth, capacity, admissions, drops).
	IngestMetrics = server.IngestMetrics
	// DeliveryPolicy selects how a query's bounded result log treats a
	// slow or absent consumer (block, drop-oldest, sample-under-pressure).
	DeliveryPolicy = rlog.Policy
	// SpillConfig tunes a registration's on-disk result spill: segment
	// rotation size/age and the total retention budget.
	SpillConfig = rlog.SpillConfig
	// QueryMetrics is one registration's telemetry row within
	// ServerMetrics (sequences, lag, acked position, spill footprint).
	QueryMetrics = server.QueryMetrics
	// Router fronts a fleet of shard servers with one query surface:
	// consistent-hash feed routing, supervised resumable result relays
	// merged into a shard-attributed stream, fleet-wide ack routing, and
	// aggregated health/metrics.
	Router = fleet.Router
	// RouterConfig tunes a Router (shards, probe cadence, breaker
	// thresholds, relay backoff).
	RouterConfig = fleet.Config
	// ShardInfo names one shard process behind a Router.
	ShardInfo = fleet.ShardInfo
	// StreamEvent is one line of a Router's merged stream: the shard's
	// event verbatim, or a typed shard_down/shard_up/relay_failed marker.
	StreamEvent = fleet.StreamEvent
)

// NewRouter builds a fleet router over the configured shards and starts
// their health probers.
func NewRouter(cfg RouterConfig) (*Router, error) { return fleet.New(cfg) }

// Continuous-query event kinds.
const (
	// EventMatch reports one confirmed frame of a monitoring query.
	EventMatch = server.EventMatch
	// EventWindow reports one completed window of an aggregate query.
	EventWindow = server.EventWindow
	// EventEnd closes a registration's stream with the run's totals.
	EventEnd = server.EventEnd
	// EventGap reports a range of result-log sequences evicted before a
	// consumer reached them (slow consumer under a shedding policy, or a
	// resume from below the retained window).
	EventGap = server.EventGap
)

// Delivery policies for a registration's result log.
const (
	// DeliverBlock is lossless: the query's writer waits for the slowest
	// consumer rather than overwrite an unread event (the default).
	DeliverBlock = rlog.Block
	// DeliverDropOldest bounds consumer lag: the writer never blocks and
	// the oldest unread event is overwritten, surfacing as a gap event.
	DeliverDropOldest = rlog.DropOldest
	// DeliverSample decimates droppable events under backlog pressure so
	// a struggling consumer sees a thinned but current stream.
	DeliverSample = rlog.Sample
)

// Typed server errors, matched with errors.Is.
var (
	// ErrQueryNotFound reports an Unregister or lookup of an id with no
	// registration behind it.
	ErrQueryNotFound = server.ErrQueryNotFound
	// ErrFeedBusy reports a Register on a feed at its query limit.
	ErrFeedBusy = server.ErrFeedBusy
	// ErrFeedNotFound reports a lifecycle call naming no live feed.
	ErrFeedNotFound = server.ErrFeedNotFound
	// ErrFeedDraining reports a Register on a feed being drained.
	ErrFeedDraining = server.ErrFeedDraining
	// ErrFeedExists reports an AddFeed under a name already in use.
	ErrFeedExists = server.ErrFeedExists
	// ErrBufferTooLarge reports a Register or ingest request asking for a
	// ring beyond the server's cap.
	ErrBufferTooLarge = server.ErrBufferTooLarge
	// ErrInvalidQuery reports a query that cannot run as asked, from a
	// Session method or Server.Register alike: a name that does not
	// bind, a USING clause naming an unknown detector, a WINDOW clause
	// its kind does not take, or an aggregate run as a monitor.
	ErrInvalidQuery = query.ErrInvalidQuery
)

// FeedState is a feed's lifecycle phase (Server.Metrics reports it per
// feed): creating → running → draining → closed.
type FeedState = server.FeedState

// Feed lifecycle states.
const (
	FeedCreating = server.FeedCreating
	FeedRunning  = server.FeedRunning
	FeedDraining = server.FeedDraining
	FeedClosed   = server.FeedClosed
)

// End-event reasons: Event.Reason on the final event of a query whose
// feed was torn down (empty when the source simply ran out).
const (
	EndReasonFeedDrained = server.EndReasonFeedDrained
	EndReasonFeedRemoved = server.EndReasonFeedRemoved
	// EndReasonQueryFailed marks a stream ended by a recovered panic in
	// the query's backend or detector; Event.Error carries the panic
	// value and the status row the full QueryFailure.
	EndReasonQueryFailed = server.EndReasonQueryFailed
)

// PushSource is a bounded ingest ring feeds frames are published into at
// runtime — the programmatic end of the HTTP/WebSocket publisher
// bridges. Use it as a FeedConfig.Source.
type PushSource = stream.PushSource

// PushPolicy is a push ring's admission policy.
type PushPolicy = stream.PushPolicy

// Push admission policies.
const (
	// PushBlock parks the publisher until the scan frees ring space
	// (lossless; backpressure reaches the publisher).
	PushBlock = stream.PushBlock
	// PushDropOldest evicts the oldest buffered frame to admit the new
	// one (freshness over completeness).
	PushDropOldest = stream.PushDropOldest
	// PushReject refuses the new frame, leaving the backlog intact.
	PushReject = stream.PushReject
)

// NewPushSource creates a push-ingestion ring with the given capacity
// (frames) and admission policy.
func NewPushSource(capacity int, policy PushPolicy) *PushSource {
	return stream.NewPushSource(capacity, policy)
}

// ParsePushPolicy parses "block", "drop-oldest" or "reject" (empty
// defaults to block).
func ParsePushPolicy(s string) (PushPolicy, error) { return stream.ParsePushPolicy(s) }

// EncodeFrames renders frames in the publisher wire format (NDJSON, one
// frame per line) — the body POST /feeds/{name}/frames expects and,
// line-wise, the WebSocket bridge's per-message format.
func EncodeFrames(frames []*Frame) ([]byte, error) { return server.EncodeFrames(frames) }

// NewServer creates a continuous-query server. Add feeds (LiveFeed, or a
// custom FeedConfig over any Source), Register parsed queries, then
// Start; each registration's Results channel streams matches or window
// estimates until the feed ends or the query is unregistered. Server
// .Handler() exposes the same lifecycle over HTTP (see cmd/vmq serve).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// RecoverServer builds a server from the durable manifest under
// ServerConfig.StateDir, re-creating journalled feeds and queries with
// their original ids and resuming their result logs from the on-disk
// spill segments — consumers reconnect with ?from= and continue
// gap-free across the restart. It is also how journaling is enabled:
// servers built with NewServer never journal, servers built with
// RecoverServer journal every wire-expressible feed and query from then
// on. A StateDir with no manifest yet recovers an empty server and
// starts the journal.
func RecoverServer(cfg ServerConfig) (*Server, error) { return server.Recover(cfg) }

// LiveFeed is the standard synthetic live feed over a profile: an
// unbounded simulator stream with OD filtering and oracle confirmation,
// deterministic for the seed.
func LiveFeed(p Profile, seed uint64) FeedConfig { return server.LiveFeed(p, seed) }

// ErrStreamExhausted is returned (wrapped) when a bounded source runs out
// of frames before a window or batch completes.
var ErrStreamExhausted = stream.ErrExhausted

// SliceSource adapts a pre-materialised frame slice to Source.
func SliceSource(frames []*Frame) Source { return &stream.SliceSource{Frames: frames} }

// Object classes.
const (
	Person   = video.Person
	Car      = video.Car
	Bus      = video.Bus
	Truck    = video.Truck
	Bicycle  = video.Bicycle
	StopSign = video.StopSign
)

// Dataset profiles matching Table II of the paper.
var (
	// Coral is the aquarium stream (8.7 persons/frame).
	Coral = video.Coral
	// Jackson is the traffic intersection (1.2 objects/frame).
	Jackson = video.Jackson
	// Detrac is the dense traffic benchmark (15.8 objects/frame).
	Detrac = video.Detrac
	// Datasets returns all three profiles in paper order.
	Datasets = video.Profiles
)

// ParseQuery compiles a VQL statement.
func ParseQuery(src string) (*Query, error) { return vql.Parse(src) }

// ParseDeliveryPolicy resolves a delivery-policy name ("block",
// "drop-oldest", "sample-under-pressure"; empty selects block).
func ParseDeliveryPolicy(s string) (DeliveryPolicy, bool) { return rlog.ParsePolicy(s) }

// Session bundles a dataset stream with the standard filter/detector
// stack: an OD filter backend (the paper's best-performing family), the
// Mask R-CNN-stand-in oracle detector, and a virtual clock. A query whose
// USING clause names a detector is confirmed by that detector instead.
// The Run methods compile a query as Server.Register does, so they accept
// and reject the same queries (RunAggregate also takes a windowless
// aggregate given a window size); a rejection wraps ErrInvalidQuery.
type Session struct {
	Profile  Profile
	Stream   *video.Stream
	Backend  Backend
	Detector Detector
	Clock    *Clock
	// Tol selects the filter variants used by RunQuery (default:
	// query.DefaultTolerances, CCF-1 with CLF-1).
	Tol Tolerances

	seed uint64
}

// NewSession creates a session over the profile with deterministic
// behaviour for the given seed.
func NewSession(p Profile, seed uint64) *Session {
	clk := simclock.New()
	return &Session{
		Profile:  p,
		Stream:   video.NewStream(p, seed),
		Backend:  filters.NewODFilter(p, seed, clk),
		Detector: detect.NewOracle(clk),
		Clock:    clk,
		Tol:      query.DefaultTolerances,
		seed:     seed,
	}
}

// UseICFilters switches the session to the IC filter family.
func (s *Session) UseICFilters() {
	s.Backend = filters.NewICFilter(s.Profile, s.seed, s.Clock)
}

// Bind compiles and binds a query against the session's profile.
func (s *Session) Bind(q *Query) (*Plan, error) { return query.Bind(q, s.Profile) }

// compile seeds a USING detector with the session's seed and the window
// sampler with seed+101.
func (s *Session) compile(q *Query, backend Backend, sampleSize int) (*query.Compiled, error) {
	return query.Compile(q, s.Profile, query.Deps{
		Backend:     backend,
		NewDetector: func() Detector { return s.Detector },
		Clock:       s.Clock,
		Seed:        s.seed,
		Tol:         s.Tol,
		SampleSize:  sampleSize,
		SamplerSeed: s.seed + 101,
	})
}

// Source wraps the session's frame stream as a pull-based Source for the
// pipelined executor and the window builder.
func (s *Session) Source() Source { return stream.FromStream(s.Stream) }

// RunQuery executes a monitoring query over the next n frames of the
// session's stream using the filter-then-detect cascade, on the pipelined
// streaming executor: frames are pulled from the stream in chunks,
// filtered on one goroutine, and confirmed in order on the caller's —
// never materialising the clip.
// An aggregate query is rejected with ErrInvalidQuery (see RunWindows).
func (s *Session) RunQuery(q *Query, n int) (*Result, error) {
	return s.RunQueryOn(q, s.Source(), n)
}

// RunQueryOn executes a monitoring query over up to n frames pulled from
// an arbitrary source (a recorded clip via SliceSource, a live feed, ...).
// A short source ends the query gracefully.
func (s *Session) RunQueryOn(q *Query, src Source, n int) (*Result, error) {
	c, err := s.compile(q, s.Backend, 0)
	if err != nil {
		return nil, err
	}
	return c.Monitor(src, n, nil)
}

// Explain renders the execution plan RunQuery would run q with: the
// predicate tree with the filter serving each leaf, the tolerances and the
// cascade's cost model. It refuses what RunQuery refuses.
func (s *Session) Explain(q *Query) (string, error) {
	c, err := s.compile(q, s.Backend, 0)
	if err != nil {
		return "", err
	}
	return c.Explain()
}

// RunQueryBrute executes the brute-force baseline (detector on every
// frame) for comparison.
func (s *Session) RunQueryBrute(q *Query, n int) (*Result, error) {
	c, err := s.compile(q, nil, 0)
	if err != nil {
		return nil, err
	}
	return c.Monitor(s.Source(), n, nil)
}

// RunAggregate executes a windowed aggregate with sampling and (multiple)
// control variates over the next window of frames. The window size is
// taken from the query's WINDOW clause, or windowSize when absent. The
// detector samples sampleSize frames (200 when sampleSize <= 0).
//
// A HOPPING call also consumes the frames between its window and the
// next one, so consecutive calls read the windows RunWindows reads.
// A SLIDING call takes Size frames: consecutive calls tile the stream
// instead of overlapping. A monitor is rejected before it takes a frame.
func (s *Session) RunAggregate(q *Query, windowSize, sampleSize int) (*AggregateResult, error) {
	if q.Window == nil && windowSize > 0 {
		one := *q
		one.Window = &vql.WindowSpec{Kind: vql.Hopping, Size: windowSize, Advance: windowSize}
		q = &one
	}
	c, err := s.compile(q, s.Backend, sampleSize)
	if err != nil {
		return nil, err
	}
	wins, err := c.RunWindows(s.Source(), 1)
	if err != nil {
		return nil, err
	}
	return wins[0], nil
}

// RunWindows executes a windowed aggregate query over n consecutive
// windows of the session's stream, honouring the query's WINDOW clause
// (HOPPING windows tile or skip; SLIDING windows overlap), and reports
// one estimate per window, each from sampleSize detector samples (200
// when sampleSize <= 0).
func (s *Session) RunWindows(q *Query, n, sampleSize int) ([]*AggregateResult, error) {
	c, err := s.compile(q, s.Backend, sampleSize)
	if err != nil {
		return nil, err
	}
	return c.RunWindows(s.Source(), n)
}

// GroundTruth evaluates the plan's predicate on simulator ground truth for
// the given frames (no detector cost) — the reference for accuracy.
func GroundTruth(plan *Plan, frames []*Frame) []bool { return query.GroundTruth(plan, frames) }

// Score returns the paper's Table III accuracy measure (recall of true
// frames) for a result against ground truth.
func Score(res *Result, truth []bool) float64 { return query.Score(res, truth) }

// TrainFilter trains a real CNN filter backend (package nn) on rendered
// frames of the profile, following the paper's Eq. 2 multi-task training
// recipe. It is laptop-slow (seconds to minutes depending on cfg) and
// exists to validate the architecture; the calibrated backends are the
// fast path.
func TrainFilter(tech filters.Technique, p Profile, cfg filters.TrainedConfig) Backend {
	return filters.TrainFilter(tech, p, cfg, simclock.New())
}

// Filter techniques.
const (
	// ICTechnique selects image-classification-style filters.
	ICTechnique = filters.IC
	// ODTechnique selects object-detection-style filters.
	ODTechnique = filters.OD
)

// TrainedConfig configures TrainFilter.
type TrainedConfig = filters.TrainedConfig
