package query

import (
	"errors"
	"fmt"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// ErrInvalidQuery reports a query that cannot run as asked: a name that
// does not bind, an unknown USING detector (which also matches
// detect.ErrUnknownDetector), a WINDOW clause its kind does not take, or
// a query run as the other kind.
var ErrInvalidQuery = errors.New("invalid query")

// Deps is what differs between the callers that compile a query.
type Deps struct {
	// Backend evaluates the filters; nil runs a monitor brute force.
	Backend filters.Backend
	// NewDetector builds the detector of a query with no USING clause.
	NewDetector func() detect.Detector
	// Clock and Seed build the detector a USING clause names.
	Clock *simclock.Clock
	Seed  uint64
	// Tol selects a monitor's filter variants.
	Tol Tolerances
	// SampleSize is an aggregate's detector samples per window (default
	// 200); SamplerSeed seeds the sampler that picks them.
	SampleSize  int
	SamplerSeed uint64
}

// Compiled is a query with every execution decision made. A monitor
// (SELECT FRAMES) runs with Monitor, an aggregate window by window with
// EachWindow or RunWindows. Run each Compiled once: an aggregate's
// sampler keeps its state from one run to the next.
type Compiled struct {
	Plan     *Plan
	Detector detect.Detector // the USING detector, or Deps.NewDetector's

	backend filters.Backend
	tol     Tolerances
	agg     *AggregateConfig // nil for a monitor
}

// Compile binds q against the profile, resolves its detector and checks
// that it can run: a monitor's WINDOW clause, if any, must not overlap
// (SLIDING) and an aggregate needs a valid one. Every rejection wraps
// ErrInvalidQuery.
func Compile(q *vql.Query, profile video.Profile, deps Deps) (*Compiled, error) {
	plan, err := Bind(q, profile)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	c := &Compiled{Plan: plan, backend: deps.Backend, tol: deps.Tol}
	if q.Select.Kind != vql.SelectFrames {
		if err := checkWindow(q.Window); err != nil {
			return nil, err
		}
		n := deps.SampleSize
		if n <= 0 {
			n = 200
		}
		c.agg = &AggregateConfig{SampleSize: n, Sampler: stream.NewUniformSampler(deps.SamplerSeed), MuFromFullWindow: true}
	} else if w := q.Window; w != nil && w.Advance < w.Size {
		return nil, fmt.Errorf("%w: SELECT FRAMES does not take a sliding window", ErrInvalidQuery)
	}
	if q.Detector == "" {
		c.Detector = deps.NewDetector()
	} else if c.Detector, err = detect.ByName(q.Detector, deps.Clock, deps.Seed); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	return c, nil
}

func checkWindow(w *vql.WindowSpec) error {
	if w == nil {
		return fmt.Errorf("%w: windowed execution needs a WINDOW clause", ErrInvalidQuery)
	}
	if w.Size <= 0 || w.Advance <= 0 || w.Kind == vql.Hopping && w.Advance < w.Size {
		return fmt.Errorf("%w: WINDOW size %d, advance %d (both must be positive, and a HOPPING advance at least the size)", ErrInvalidQuery, w.Size, w.Advance)
	}
	return nil
}

// Windowed reports the query's kind: true for an aggregate.
func (c *Compiled) Windowed() bool { return c.agg != nil }

var errNotAggregate = fmt.Errorf("%w: SELECT FRAMES is a monitor, not an aggregate", ErrInvalidQuery)

// Monitor runs a SELECT FRAMES query over up to n frames of src through
// Engine.RunStream; observe, when non-nil, is the engine's Observe hook.
// An aggregate's answer is windows, which a Result cannot carry: it
// returns an error wrapping ErrInvalidQuery.
func (c *Compiled) Monitor(src stream.Source, n int, observe func(FrameObservation)) (*Result, error) {
	if err := c.checkMonitor(); err != nil {
		return nil, err
	}
	eng := &Engine{Backend: c.backend, Detector: c.Detector, Tol: c.tol, Observe: observe}
	return eng.RunStream(c.Plan, src, n), nil
}

// Explain renders the execution plan Monitor runs (Plan.Describe). Like
// Monitor it refuses an aggregate.
func (c *Compiled) Explain() (string, error) {
	if err := c.checkMonitor(); err != nil {
		return "", err
	}
	return c.Plan.Describe(c.backend, c.tol), nil
}

func (c *Compiled) checkMonitor() error {
	if c.agg != nil {
		return fmt.Errorf("%w: %s is an aggregate; run it window by window", ErrInvalidQuery, c.Plan.Query.Select)
	}
	return nil
}

// EachWindow runs an aggregate through the EachWindow function.
func (c *Compiled) EachWindow(src stream.Source, emit func(start int, res *AggregateResult) bool) error {
	if c.agg == nil {
		return errNotAggregate
	}
	return EachWindow(c.Plan, src, c.backend, c.Detector, *c.agg, emit)
}

// RunWindows runs an aggregate through the RunWindows function.
func (c *Compiled) RunWindows(src stream.Source, n int) ([]*AggregateResult, error) {
	if c.agg == nil {
		return nil, errNotAggregate
	}
	return RunWindows(c.Plan, src, c.backend, c.Detector, n, *c.agg)
}
