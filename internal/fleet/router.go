package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/vql"
)

// Config tunes a Router.
type Config struct {
	// Shards names the fleet: each entry is one shard process's base
	// URL. Names must be unique and free of ':' (fleet query ids are
	// <shard>:<local id>).
	Shards []ShardInfo
	// VNodes is the ring's virtual nodes per shard (default 64).
	VNodes int
	// DialTimeout bounds each shard connection attempt (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds bounded shard calls — register, ack, status,
	// probes — but never result streams (default 5s).
	RequestTimeout time.Duration
	// ProbeInterval paces the per-shard /v1/healthz prober feeding the
	// circuit breaker (default 2s).
	ProbeInterval time.Duration
	// BreakerFailures opens a shard's breaker after this many
	// consecutive failures (default 3); BreakerCooldown is how long it
	// stays open before a half-open probe (default 5s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// BackoffBase and BackoffMax bound a relay's reconnect backoff
	// (defaults 100ms and 5s; exponential with full jitter between them).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StreamBuffer is the merged stream's channel depth (default 64).
	StreamBuffer int
	// Transport overrides the shard-facing transport — a test seam for
	// redirecting stable shard addresses at ephemeral listeners. The
	// fleet.shard.dial failpoint applies either way.
	Transport http.RoundTripper
}

// ShardInfo names one shard process.
type ShardInfo struct {
	Name string
	URL  string
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 64
	}
	return c
}

// Router fronts a fleet of shard processes with one query surface:
// registration routes to the feed's owner on the consistent-hash ring,
// results fan in through supervised relays, acks fan out to the owning
// shard, and /v1/healthz + /v1/metrics aggregate per-shard state.
type Router struct {
	cfg    Config
	ring   *Ring
	shards map[string]*shard
	order  []string // sorted shard names

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	queriesRouted atomic.Int64
	acksRouted    atomic.Int64
	streams       atomic.Int64
}

// New builds a router over the configured shards and starts their
// health probers. Close stops them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fleet: at least one shard is required")
	}
	rt := &Router{
		cfg:    cfg,
		shards: make(map[string]*shard, len(cfg.Shards)),
		stop:   make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Shards))
	for _, si := range cfg.Shards {
		if si.Name == "" || strings.Contains(si.Name, ":") {
			return nil, fmt.Errorf("fleet: bad shard name %q (must be non-empty, no ':')", si.Name)
		}
		if _, dup := rt.shards[si.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", si.Name)
		}
		u, err := url.Parse(si.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard %q: bad URL %q", si.Name, si.URL)
		}
		rt.shards[si.Name] = newShard(si.Name, si.URL, cfg)
		names = append(names, si.Name)
	}
	sort.Strings(names)
	rt.order = names
	rt.ring = NewRing(names, cfg.VNodes)
	for _, name := range names {
		sh := rt.shards[name]
		rt.wg.Add(1)
		go rt.probeLoop(sh)
	}
	return rt, nil
}

// Close stops the probers. In-flight relay streams end with their
// consumers' requests.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Owner returns the shard name owning a feed on the ring.
func (rt *Router) Owner(feed string) string { return rt.ring.Owner(feed) }

// probeLoop feeds one shard's breaker from /v1/healthz: reachable
// answers (ok, degraded, recovering) are link successes, transport
// failures feed the failure streak. The first probe fires immediately
// so a fresh router converges fast.
func (rt *Router) probeLoop(sh *shard) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		if sh.breaker.Allow() {
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.RequestTimeout)
			status, err := sh.probe(ctx)
			cancel()
			sh.probes.Add(1)
			if err != nil {
				sh.probeFails.Add(1)
				sh.breaker.Failure()
				sh.setHealth("unreachable")
			} else {
				sh.breaker.Success()
				sh.setHealth(status)
			}
		}
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
	}
}

// Handler returns the router's HTTP API, a fleet-wide subset of the
// shard surface under /v1:
//
//	POST   /v1/queries              register on the feed's owning shard
//	                                (id comes back as <shard>:<local id>)
//	GET    /v1/queries              list every shard's queries, attributed
//	GET    /v1/queries/{id}         owning shard's status row
//	GET    /v1/queries/{id}/results relay one query's stream (?from=<seq>)
//	POST   /v1/queries/{id}/ack     forward the ack to the owning shard
//	DELETE /v1/queries/{id}         unregister on the owning shard
//	GET    /v1/stream?id=a:q1[@<from>]&id=b:q2...
//	                                merged multi-query stream, one
//	                                shard-attributed StreamEvent per line
//	POST   /v1/feeds                create the feed on its owning shard
//	GET    /v1/feeds                list every shard's feeds, attributed
//	GET    /v1/healthz              aggregate shard state
//	GET    /v1/metrics              per-shard breaker/relay/load telemetry
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", rt.handleRegister)
	mux.HandleFunc("GET /v1/queries", rt.handleList)
	mux.HandleFunc("GET /v1/queries/{id}", rt.handleQueryStatus)
	mux.HandleFunc("GET /v1/queries/{id}/results", rt.handleResults)
	mux.HandleFunc("POST /v1/queries/{id}/ack", rt.handleAck)
	mux.HandleFunc("DELETE /v1/queries/{id}", rt.handleUnregister)
	mux.HandleFunc("GET /v1/stream", rt.handleStream)
	mux.HandleFunc("POST /v1/feeds", rt.handleCreateFeed)
	mux.HandleFunc("GET /v1/feeds", rt.handleListFeeds)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	return mux
}

// httpError mirrors the shard API's error envelope so fleet clients
// parse one shape everywhere.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{
		"code":    code,
		"message": fmt.Sprintf(format, args...),
	}})
}

// fleetID joins a shard name and local query id; splitFleetID resolves
// one back to its shard.
func fleetID(shard, local string) string { return shard + ":" + local }

func (rt *Router) splitFleetID(id string) (*shard, string, error) {
	name, local, ok := strings.Cut(id, ":")
	if !ok || local == "" {
		return nil, "", fmt.Errorf("query id %q is not <shard>:<id>", id)
	}
	sh, ok := rt.shards[name]
	if !ok {
		return nil, "", fmt.Errorf("unknown shard %q in query id %q", name, id)
	}
	return sh, local, nil
}

// handleRegister routes POST /v1/queries by FROM clause: the body (raw
// VQL or the JSON register form) is parsed just enough to find the
// feed, the ring names the owner, and the original body is forwarded
// verbatim so shard-side semantics (tolerances, policies, spill) stay
// identical to direct registration.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return
	}
	src := string(body)
	contentType := r.Header.Get("Content-Type")
	if strings.Contains(contentType, "json") {
		var jr struct {
			Query string `json:"query"`
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "decode request: %v", err)
			return
		}
		src = jr.Query
	}
	q, err := vql.Parse(src)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_query", "%v", err)
		return
	}
	owner := rt.ring.Owner(q.Source)
	sh := rt.shards[owner]
	if !sh.routable() {
		httpError(w, http.StatusServiceUnavailable, "shard_unavailable",
			"feed %q lives on shard %q, which is %s", q.Source, owner, sh.state())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, err := sh.do(ctx, http.MethodPost, "/v1/queries", bytes.NewReader(body), contentType)
	if err != nil {
		httpError(w, http.StatusBadGateway, "shard_unreachable", "shard %q: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		copyResponse(w, resp)
		return
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		httpError(w, http.StatusBadGateway, "shard_unreachable", "shard %q: decode response: %v", owner, err)
		return
	}
	if id, ok := created["id"].(string); ok {
		created["id"] = fleetID(owner, id)
	}
	created["shard"] = owner
	rt.queriesRouted.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(created)
}

// copyResponse relays a shard's answer verbatim (status, content type,
// body) — shard error envelopes pass through unchanged.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxyQuery forwards a bounded per-query call to the owning shard and
// rewrites the id fields in a JSON object answer to fleet form.
func (rt *Router) proxyQuery(w http.ResponseWriter, r *http.Request, method, suffix string) {
	sh, local, err := rt.splitFleetID(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "bad_query_id", "%v", err)
		return
	}
	var body io.Reader
	if r.Body != nil {
		raw, rerr := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if rerr != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "read body: %v", rerr)
			return
		}
		body = bytes.NewReader(raw)
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, err := sh.do(ctx, method, "/v1/queries/"+url.PathEscape(local)+suffix, body, r.Header.Get("Content-Type"))
	if err != nil {
		httpError(w, http.StatusBadGateway, "shard_unreachable", "shard %q: %v", sh.name, err)
		return
	}
	defer resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), "json") {
		copyResponse(w, resp)
		return
	}
	var obj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		copyResponse(w, resp)
		return
	}
	for _, key := range []string{"id", "query_id", "unregistered"} {
		if v, ok := obj[key].(string); ok && v == local {
			obj[key] = fleetID(sh.name, local)
		}
	}
	obj["shard"] = sh.name
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_ = json.NewEncoder(w).Encode(obj)
}

func (rt *Router) handleQueryStatus(w http.ResponseWriter, r *http.Request) {
	rt.proxyQuery(w, r, http.MethodGet, "")
}

func (rt *Router) handleUnregister(w http.ResponseWriter, r *http.Request) {
	rt.proxyQuery(w, r, http.MethodDelete, "")
}

// handleAck is the fleet-wide exactly-once hook: the ack routes to the
// owning shard, whose rlog moves the query's acked cursor and retention
// floor exactly as a direct ack would.
func (rt *Router) handleAck(w http.ResponseWriter, r *http.Request) {
	rt.acksRouted.Add(1)
	rt.proxyQuery(w, r, http.MethodPost, "/ack")
}

// relaySpec is one query's slot in a merged stream.
type relaySpec struct {
	sh    *shard
	fleet string
	local string
	from  int64
}

// handleResults relays one query's stream through the supervision
// machinery: same resume/backoff/degradation semantics as the merged
// stream, for a single fleet id on the shard-compatible path shape.
func (rt *Router) handleResults(w http.ResponseWriter, r *http.Request) {
	sh, local, err := rt.splitFleetID(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "bad_query_id", "%v", err)
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		from, err = strconv.ParseInt(v, 10, 64)
		if err != nil || from < 0 {
			httpError(w, http.StatusBadRequest, "bad_request", "bad from %q", v)
			return
		}
	}
	rt.serveStream(w, r, []relaySpec{{sh: sh, fleet: fleetID(sh.name, local), local: local, from: from}})
}

// handleStream serves the merged fan-in: every id parameter names one
// fleet query (<shard>:<id>, optionally @<from> to resume), and the
// response interleaves their shard-attributed events as they arrive.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	ids := r.URL.Query()["id"]
	if len(ids) == 0 {
		httpError(w, http.StatusBadRequest, "bad_request", "at least one id parameter is required")
		return
	}
	specs := make([]relaySpec, 0, len(ids))
	for _, raw := range ids {
		id, fromStr, hasFrom := strings.Cut(raw, "@")
		from := int64(0)
		if hasFrom {
			v, err := strconv.ParseInt(fromStr, 10, 64)
			if err != nil || v < 0 {
				httpError(w, http.StatusBadRequest, "bad_request", "bad resume position in %q", raw)
				return
			}
			from = v
		}
		sh, local, err := rt.splitFleetID(id)
		if err != nil {
			httpError(w, http.StatusNotFound, "bad_query_id", "%v", err)
			return
		}
		specs = append(specs, relaySpec{sh: sh, fleet: id, local: local, from: from})
	}
	rt.serveStream(w, r, specs)
}

// serveStream runs the relays and writes the merged NDJSON until every
// relay finishes or the consumer disconnects. A dead shard never
// stalls the stream: its relay backs off in its own goroutine while
// survivors keep writing.
func (rt *Router) serveStream(w http.ResponseWriter, r *http.Request, specs []relaySpec) {
	rt.streams.Add(1)
	defer rt.streams.Add(-1)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	rcfg := relayConfig{backoffBase: rt.cfg.BackoffBase, backoffMax: rt.cfg.BackoffMax}
	relays := make([]*relay, len(specs))
	for i, sp := range specs {
		relays[i] = newRelay(sp.sh, sp.fleet, sp.local, sp.from, rcfg)
	}
	// The request context ends when the client disconnects or the
	// handler returns — either way every relay unwinds.
	out := runRelays(r.Context(), relays, rt.cfg.StreamBuffer)
	enc := json.NewEncoder(w)
	for ev := range out {
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleCreateFeed routes feed creation to the name's owner on the
// ring, so the fleet's placement and the router's query routing agree.
func (rt *Router) handleCreateFeed(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		httpError(w, http.StatusBadRequest, "bad_request", "feed name is required")
		return
	}
	owner := rt.ring.Owner(req.Name)
	sh := rt.shards[owner]
	if !sh.routable() {
		httpError(w, http.StatusServiceUnavailable, "shard_unavailable",
			"feed %q lives on shard %q, which is %s", req.Name, owner, sh.state())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, err := sh.do(ctx, http.MethodPost, "/v1/feeds", bytes.NewReader(body), "application/json")
	if err != nil {
		httpError(w, http.StatusBadGateway, "shard_unreachable", "shard %q: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	var obj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		copyResponse(w, resp)
		return
	}
	obj["shard"] = owner
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_ = json.NewEncoder(w).Encode(obj)
}

// fanout runs fn against every shard concurrently with the request
// timeout and collects per-shard results; shards that fail land in
// down.
func (rt *Router) fanout(parent context.Context, fn func(ctx context.Context, sh *shard) (any, error)) (results map[string]any, down []string) {
	type res struct {
		name string
		v    any
		err  error
	}
	ch := make(chan res, len(rt.order))
	for _, name := range rt.order {
		sh := rt.shards[name]
		go func(sh *shard) {
			ctx, cancel := context.WithTimeout(parent, rt.cfg.RequestTimeout)
			defer cancel()
			v, err := fn(ctx, sh)
			ch <- res{name: sh.name, v: v, err: err}
		}(sh)
	}
	results = make(map[string]any, len(rt.order))
	for range rt.order {
		r := <-ch
		if r.err != nil {
			down = append(down, r.name)
			continue
		}
		results[r.name] = r.v
	}
	sort.Strings(down)
	return results, down
}

// handleList merges every shard's query listing, each row attributed
// and its id rewritten to fleet form.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	results, down := rt.fanout(r.Context(), func(ctx context.Context, sh *shard) (any, error) {
		resp, err := sh.do(ctx, http.MethodGet, "/v1/queries", nil, "")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		var rows []map[string]any
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&rows); err != nil {
			return nil, err
		}
		return rows, nil
	})
	merged := make([]map[string]any, 0)
	for _, name := range rt.order {
		rows, ok := results[name].([]map[string]any)
		if !ok {
			continue
		}
		for _, row := range rows {
			if id, ok := row["id"].(string); ok {
				row["id"] = fleetID(name, id)
			}
			row["shard"] = name
			merged = append(merged, row)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"queries": merged, "shards_down": down})
}

// handleListFeeds merges every shard's feed listing, attributed.
func (rt *Router) handleListFeeds(w http.ResponseWriter, r *http.Request) {
	results, down := rt.fanout(r.Context(), func(ctx context.Context, sh *shard) (any, error) {
		resp, err := sh.do(ctx, http.MethodGet, "/v1/feeds", nil, "")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		var rows []map[string]any
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&rows); err != nil {
			return nil, err
		}
		return rows, nil
	})
	merged := make([]map[string]any, 0)
	for _, name := range rt.order {
		rows, ok := results[name].([]map[string]any)
		if !ok {
			continue
		}
		for _, row := range rows {
			row["shard"] = name
			merged = append(merged, row)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"feeds": merged, "shards_down": down})
}

// shardHealth is one shard's row in the router's healthz answer.
type shardHealth struct {
	Name  string `json:"name"`
	State string `json:"state"` // up, degraded, recovering, half-open, down, unknown
}

// handleHealthz aggregates shard state: 200 {"status":"ok"} only when
// every shard is up; anything less is 503 {"status":"degraded"} with
// the per-shard states attached. The router itself is alive either way
// — degraded means reduced capacity, not a dead router.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status string        `json:"status"`
		Shards []shardHealth `json:"shards"`
	}{Status: "ok"}
	for _, name := range rt.order {
		st := rt.shards[name].state()
		resp.Shards = append(resp.Shards, shardHealth{Name: name, State: st})
		if st != "up" {
			resp.Status = "degraded"
		}
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// ShardMetrics is one shard's row in the router's metrics answer.
type ShardMetrics struct {
	Name    string       `json:"name"`
	State   string       `json:"state"`
	Breaker BreakerState `json:"breaker"`
	// ConsecutiveFailures and Trips expose the breaker's streak and
	// lifetime open count.
	ConsecutiveFailures int   `json:"consecutive_failures,omitempty"`
	Trips               int64 `json:"trips,omitempty"`
	Probes              int64 `json:"probes"`
	ProbeFailures       int64 `json:"probe_failures,omitempty"`
	// Relays is the shard's live relay count, RelaySeq the highest
	// event_seq relayed from it, Resumes how many reconnects picked a
	// stream back up mid-flight.
	Relays   int64 `json:"relays"`
	RelaySeq int64 `json:"relay_seq"`
	Resumes  int64 `json:"resumes"`
	// Load sums the shard's own /metrics feed rows over feeds with live
	// queries (absent when the shard was unreachable); LoadShare
	// normalises RateFPS across reachable shards.
	Load      *ShardLoad `json:"load,omitempty"`
	LoadShare float64    `json:"load_share,omitempty"`
}

// RouterMetrics answers GET /v1/metrics.
type RouterMetrics struct {
	Shards        []ShardMetrics `json:"shards"`
	QueriesRouted int64          `json:"queries_routed"`
	AcksRouted    int64          `json:"acks_routed"`
	Streams       int64          `json:"streams"`
}

// handleMetrics reports per-shard breaker/relay telemetry plus each
// reachable shard's rate_fps-weighted load (fetched live, best-effort:
// a shard with an open breaker is skipped rather than dialled).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	loads, _ := rt.fanout(r.Context(), func(ctx context.Context, sh *shard) (any, error) {
		if sh.breaker.State() == BreakerOpen {
			return nil, errors.New("breaker open")
		}
		load, err := sh.metricsLoad(ctx)
		if err != nil {
			return nil, err
		}
		return load, nil
	})
	var totalRate float64
	for _, v := range loads {
		if load, ok := v.(ShardLoad); ok {
			totalRate += load.RateFPS
		}
	}
	m := RouterMetrics{
		QueriesRouted: rt.queriesRouted.Load(),
		AcksRouted:    rt.acksRouted.Load(),
		Streams:       rt.streams.Load(),
	}
	for _, name := range rt.order {
		sh := rt.shards[name]
		row := ShardMetrics{
			Name:                name,
			State:               sh.state(),
			Breaker:             sh.breaker.State(),
			ConsecutiveFailures: sh.breaker.ConsecutiveFailures(),
			Trips:               sh.breaker.Trips(),
			Probes:              sh.probes.Load(),
			ProbeFailures:       sh.probeFails.Load(),
			Relays:              sh.relays.Load(),
			RelaySeq:            sh.relaySeq.Load(),
			Resumes:             sh.resumes.Load(),
		}
		if v, ok := loads[name].(ShardLoad); ok {
			load := v
			row.Load = &load
			if totalRate > 0 {
				row.LoadShare = load.RateFPS / totalRate
			}
		}
		m.Shards = append(m.Shards, row)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}
