package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vmq/internal/fault"
)

// shard is the router's view of one shard process: its address, the
// HTTP clients that reach it, the circuit breaker its prober and
// relays share, and the health/relay telemetry /v1/metrics aggregates.
type shard struct {
	name    string
	baseURL string // scheme://host:port, no trailing slash
	// hc serves bounded calls (register, ack, status, probes) with the
	// request timeout; sc serves result streams, which are long-lived by
	// design and must not be severed by a wall clock.
	hc      *http.Client
	sc      *http.Client
	breaker *Breaker

	// health is the prober's last verdict: "unknown" until the first
	// probe lands, then the shard's own healthz status ("ok",
	// "degraded", "recovering") or "unreachable".
	health atomic.Value // string

	probes     atomic.Int64
	probeFails atomic.Int64
	// resumes counts relay reconnects that picked a stream back up from
	// its last relayed event_seq; relays counts live relay loops.
	resumes atomic.Int64
	relays  atomic.Int64
	// relaySeq is the highest event_seq any relay has forwarded from
	// this shard — the fleet-wide resume high-water mark in /v1/metrics.
	relaySeq atomic.Int64
}

func newShard(name, baseURL string, cfg Config) *shard {
	transport := newTransport(cfg)
	sh := &shard{
		name:    name,
		baseURL: strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Transport: transport, Timeout: cfg.RequestTimeout},
		sc:      &http.Client{Transport: transport},
		breaker: NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
	}
	sh.health.Store("unknown")
	return sh
}

// newTransport builds the shard-facing transport: the configured dialer
// timeout, and the fleet.shard.dial failpoint in front of every dial so
// chaos tests can sever shard links without killing processes. A
// test-injected Config.Transport is wrapped with the same failpoint.
func newTransport(cfg Config) http.RoundTripper {
	if cfg.Transport != nil {
		return faultTripper{rt: cfg.Transport}
	}
	dialer := &net.Dialer{Timeout: cfg.DialTimeout}
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if err := fault.Hit("fleet.shard.dial"); err != nil {
				return nil, err
			}
			return dialer.DialContext(ctx, network, addr)
		},
		ResponseHeaderTimeout: cfg.RequestTimeout,
		MaxIdleConnsPerHost:   4,
		IdleConnTimeout:       30 * time.Second,
	}
}

// faultTripper applies the dial failpoint to an injected transport,
// which has no dial hook of its own.
type faultTripper struct{ rt http.RoundTripper }

func (t faultTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if err := fault.Hit("fleet.shard.dial"); err != nil {
		return nil, err
	}
	return t.rt.RoundTrip(r)
}

// setHealth records the prober's verdict.
func (sh *shard) setHealth(v string) { sh.health.Store(v) }

// healthState returns the last probe verdict.
func (sh *shard) healthState() string {
	s, _ := sh.health.Load().(string)
	return s
}

// state is the shard's aggregate position for /v1/healthz and routing:
// the breaker's view wins (open = down, half-open = probing), otherwise
// the probe verdict maps through.
func (sh *shard) state() string {
	switch sh.breaker.State() {
	case BreakerOpen:
		return "down"
	case BreakerHalfOpen:
		return "half-open"
	}
	switch sh.healthState() {
	case "ok":
		return "up"
	case "degraded":
		return "degraded"
	case "recovering":
		return "recovering"
	case "unreachable":
		return "down"
	default:
		return "unknown"
	}
}

// routable reports whether new queries may land on the shard. A
// recovering shard is reachable but must not take new registrations
// mid-replay; a down shard cannot. "unknown" (before the first probe)
// is optimistically routable — the forward itself will fail and feed
// the breaker if the shard is dead.
func (sh *shard) routable() bool {
	switch sh.state() {
	case "up", "degraded", "unknown":
		return true
	default:
		return false
	}
}

// do runs one bounded request against the shard and feeds the breaker
// with the transport outcome (an HTTP error status is a shard answer,
// not a link failure — only transport errors count against the link).
func (sh *shard) do(ctx context.Context, method, path string, body io.Reader, contentType string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, sh.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := sh.hc.Do(req)
	if err != nil {
		sh.breaker.Failure()
		return nil, err
	}
	sh.breaker.Success()
	return resp, nil
}

// probe asks the shard's /v1/healthz for its status. The status string
// comes back for 200 and 503 alike (degraded and recovering are shard
// answers); only transport or decode failures are errors.
func (sh *shard) probe(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.baseURL+"/v1/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := sh.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var hr struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hr); err != nil {
		return "", fmt.Errorf("decode healthz: %w", err)
	}
	if hr.Status == "" {
		return "", fmt.Errorf("healthz status missing (HTTP %d)", resp.StatusCode)
	}
	return hr.Status, nil
}

// metricsLoad fetches the shard's /metrics feed rows and sums dispatch
// rates and query counts over the feeds with live queries — the load
// signal the router aggregates per shard.
func (sh *shard) metricsLoad(ctx context.Context) (ShardLoad, error) {
	resp, err := sh.do(ctx, http.MethodGet, "/v1/metrics", nil, "")
	if err != nil {
		return ShardLoad{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ShardLoad{}, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	var m struct {
		Feeds []struct {
			FramesPerSec float64 `json:"frames_per_sec"`
			Queries      int     `json:"queries"`
		} `json:"feeds"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m); err != nil {
		return ShardLoad{}, err
	}
	var load ShardLoad
	for _, f := range m.Feeds {
		if f.Queries == 0 {
			continue
		}
		load.Feeds++
		load.Queries += f.Queries
		load.RateFPS += f.FramesPerSec
	}
	return load, nil
}

// ShardLoad is one shard's load, summed over its feeds with live queries.
type ShardLoad struct {
	// Feeds counts feeds with at least one live query.
	Feeds int `json:"feeds"`
	// Queries is the live query count across those feeds.
	Queries int `json:"queries"`
	// RateFPS sums those feeds' dispatch rates — observed load, not feed
	// count, so an idle feed weighs nothing.
	RateFPS float64 `json:"rate_fps"`
}
