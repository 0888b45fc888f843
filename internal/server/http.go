package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"vmq/internal/detect"
	"vmq/internal/query"
	"vmq/internal/rlog"
	"vmq/internal/vql"
)

// Handler returns the server's HTTP API. The canonical surface lives
// under /v1:
//
//	POST   /v1/queries              register a query (VQL text in, id out)
//	GET    /v1/queries              list registrations with delivery telemetry
//	GET    /v1/queries/{id}         one registration's status row
//	GET    /v1/queries/{id}/results stream results as NDJSON until the query
//	                                ends (?from=<seq> resumes from a result-log
//	                                sequence; ?ack=<seq> acknowledges processed
//	                                events in the same request; a gap event
//	                                reports any range evicted before the
//	                                consumer got there). With a WebSocket
//	                                upgrade the same endpoint streams events as
//	                                text messages and reads {"ack":<seq>}
//	                                messages back — in-band acknowledgement.
//	POST   /v1/queries/{id}/ack     {"seq":N} acknowledge through sequence N
//	GET    /v1/queries/{id}/history page spilled/retained history without a
//	                                stream (?from=<seq>&limit=<n>, answers
//	                                events plus next_from)
//	DELETE /v1/queries/{id}         unregister
//	POST   /v1/feeds                create a feed at runtime (push or sim)
//	GET    /v1/feeds                list feeds with lifecycle state
//	POST   /v1/feeds/{name}/drain   drain gracefully (queries end with events)
//	DELETE /v1/feeds/{name}         drain, wait for end events, remove
//	POST   /v1/feeds/{name}/frames  publish NDJSON frames into a push feed
//	GET    /v1/feeds/{name}/publish WebSocket publisher bridge
//	GET    /v1/metrics              server telemetry snapshot
//
// Errors are a uniform JSON envelope {"error":{"code":"…","message":"…"}}
// with stable codes (feed_busy, feed_draining, feed_not_found,
// query_not_found, feed_exists, buffer_too_large, invalid_query,
// unknown_policy, unknown_detector, bad_request, not_push_feed,
// server_closed, internal).
// Unversioned paths are not served.
//
// POST /v1/queries accepts either a raw VQL statement (text/plain) or a
// JSON body {"query": "...", "count_tolerance": n, "location_tolerance":
// n, "max_frames": n, "samples": n, "seed": n, "policy": "block" |
// "drop-oldest" | "sample-under-pressure", "result_buffer": n, "spill":
// bool}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", s.handleRegister)
	mux.HandleFunc("GET /v1/queries", s.handleList)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleQueryStatus)
	mux.HandleFunc("GET /v1/queries/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/queries/{id}/ack", s.handleAck)
	mux.HandleFunc("GET /v1/queries/{id}/history", s.handleHistory)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleUnregister)
	mux.HandleFunc("POST /v1/feeds", s.handleCreateFeed)
	mux.HandleFunc("GET /v1/feeds", s.handleListFeeds)
	mux.HandleFunc("POST /v1/feeds/{name}/drain", s.handleDrainFeed)
	mux.HandleFunc("DELETE /v1/feeds/{name}", s.handleRemoveFeed)
	mux.HandleFunc("POST /v1/feeds/{name}/frames", s.handlePublishFrames)
	mux.HandleFunc("GET /v1/feeds/{name}/publish", s.handlePublishWS)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// apiError is the uniform error envelope every endpoint answers with.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	// Code is a stable, machine-matchable identifier; Message the
	// human-readable detail (not stable).
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError writes the typed error envelope.
func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: apiErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// errorStatus maps the registry's typed errors onto stable status/code
// pairs — the single place the API's error vocabulary is defined.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueryNotFound):
		return http.StatusNotFound, "query_not_found"
	case errors.Is(err, ErrFeedNotFound):
		return http.StatusNotFound, "feed_not_found"
	case errors.Is(err, ErrFeedBusy):
		return http.StatusTooManyRequests, "feed_busy"
	case errors.Is(err, ErrFeedDraining):
		return http.StatusConflict, "feed_draining"
	case errors.Is(err, ErrFeedExists):
		return http.StatusConflict, "feed_exists"
	case errors.Is(err, ErrBufferTooLarge):
		return http.StatusUnprocessableEntity, "buffer_too_large"
	case errors.Is(err, detect.ErrUnknownDetector):
		return http.StatusBadRequest, "unknown_detector"
	case errors.Is(err, query.ErrInvalidQuery):
		return http.StatusUnprocessableEntity, "invalid_query"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "server_closed"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// healthResponse answers GET /v1/healthz.
type healthResponse struct {
	// Status is "ok" while every running feed with subscribers pumped a
	// frame within the watchdog window, "degraded" otherwise, and
	// "recovering" while the server is replaying its manifest and not
	// yet serving (readiness, distinct from liveness).
	Status string `json:"status"`
	// Stalled names the feeds the watchdog flagged.
	Stalled []string `json:"stalled,omitempty"`
}

// handleHealthz is the liveness/readiness probe: 200 {"status":"ok"}
// while no feed is stalled, 503 {"status":"degraded","stalled":[...]}
// when the watchdog flags one — a feed running with subscribers waiting
// yet pumping no frames within Config.StallAfter — and 503
// {"status":"recovering"} between Recover and Start, so a router never
// routes new queries to a shard still replaying its manifest.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(healthResponse{Status: "recovering"})
		return
	}
	s.mu.Lock()
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	s.mu.Unlock()
	resp := healthResponse{Status: "ok"}
	for _, f := range feeds {
		if _, stalled := f.stalledNow(s.cfg.StallAfter); stalled {
			resp.Stalled = append(resp.Stalled, f.name)
		}
	}
	status := http.StatusOK
	if len(resp.Stalled) > 0 {
		sort.Strings(resp.Stalled)
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// registerRequest is the JSON form of POST /v1/queries.
type registerRequest struct {
	Query             string `json:"query"`
	CountTolerance    *int   `json:"count_tolerance,omitempty"`
	LocationTolerance *int   `json:"location_tolerance,omitempty"`
	MaxFrames         int    `json:"max_frames,omitempty"`
	Samples           int    `json:"samples,omitempty"`
	Seed              uint64 `json:"seed,omitempty"`
	// Policy selects the delivery policy ("block", "drop-oldest",
	// "sample-under-pressure"); empty keeps the server default.
	Policy string `json:"policy,omitempty"`
	// ResultBuffer overrides the result-log ring capacity (events).
	ResultBuffer int `json:"result_buffer,omitempty"`
	// Spill attaches a server-managed on-disk spill so history beyond
	// the ring stays replayable (results resume, history paging).
	Spill bool `json:"spill,omitempty"`
}

// registerResponse answers POST /v1/queries.
type registerResponse struct {
	ID     string `json:"id"`
	Feed   string `json:"feed"`
	Query  string `json:"query"` // canonical rendering
	Policy string `json:"policy"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return
	}
	req := registerRequest{}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "decode request: %v", err)
			return
		}
	} else {
		req.Query = string(body)
	}
	if strings.TrimSpace(req.Query) == "" {
		httpError(w, http.StatusBadRequest, "invalid_query", "empty query")
		return
	}
	q, err := vql.Parse(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_query", "parse: %v", err)
		return
	}
	opt := Options{
		MaxFrames: req.MaxFrames, SampleSize: req.Samples, Seed: req.Seed,
		ResultBuffer: req.ResultBuffer, Spill: req.Spill,
	}
	if req.Policy != "" {
		pol, ok := rlog.ParsePolicy(req.Policy)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown_policy", "unknown delivery policy %q", req.Policy)
			return
		}
		opt.Policy = pol
	}
	if req.CountTolerance != nil || req.LocationTolerance != nil {
		tol := *s.cfg.Tol
		if req.CountTolerance != nil {
			tol.Count = *req.CountTolerance
		}
		if req.LocationTolerance != nil {
			tol.Location = *req.LocationTolerance
		}
		opt.Tol = &tol
	}
	reg, err := s.Register(q, opt)
	if err != nil {
		status, code := errorStatus(err)
		if code == "feed_not_found" {
			// A FROM clause naming an absent feed is a query the server
			// cannot run, like ErrInvalidQuery: 422 on registration,
			// unlike feed lifecycle lookups.
			status = http.StatusUnprocessableEntity
		}
		httpError(w, status, code, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(registerResponse{
		ID: reg.ID(), Feed: reg.Feed(), Query: reg.Query().String(),
		Policy: string(reg.Log().Policy()),
	})
}

// handleList answers GET /v1/queries: every registration's status row —
// feed, canonical query, delivery policy and the result-log telemetry
// (sequence high-water mark, acked floor, lag, drops) a consumer needs
// to decide where to resume.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	regs := make([]*Registration, 0, len(s.regs))
	for _, reg := range s.regs {
		regs = append(regs, reg)
	}
	s.mu.Unlock()
	out := make([]QueryMetrics, 0, len(regs))
	for _, reg := range regs {
		out = append(out, reg.metricsRow())
	}
	sort.Slice(out, func(a, b int) bool { return lessID(out[a].ID, out[b].ID) })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleQueryStatus answers GET /v1/queries/{id} with the same row the
// listing gives, for one registration.
func (s *Server) handleQueryStatus(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "query_not_found", "%v: %q", ErrQueryNotFound, r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reg.metricsRow())
}

func lessID(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b) // q2 < q10
	}
	return a < b
}

// queryParamSeq parses an optional int64 query parameter, answering the
// error envelope itself on a malformed value.
func queryParamSeq(w http.ResponseWriter, r *http.Request, name string, def int64) (int64, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad %s=%q: %v", name, raw, err)
		return 0, false
	}
	return v, true
}

// handleResults streams the query's events through its own cursor over
// the registration's result log: newline-delimited JSON by default, or
// — when the client asks for a WebSocket upgrade — one text message per
// event with in-band {"ack":<seq>} messages read back from the client.
// The connection stays open until the query ends, is unregistered, or
// the client goes away; each event is flushed as it happens.
//
// ?from=<seq> resumes from a result-log sequence number (each event
// carries its own as event_seq): a consumer that disconnected reconnects
// with from set to one past the last event it processed and sees a
// gap-free continuation — or, when retention moved past that point, one
// gap event reporting exactly the dropped range. Without from the stream
// replays from the oldest retained event. ?ack=<seq> acknowledges every
// event through seq before the stream attaches — the reconnect path for
// exactly-once consumers ("I durably processed through N, resume at
// N+1"). Multiple consumers may stream one query concurrently, each on
// its own cursor.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "query_not_found", "%v: %q", ErrQueryNotFound, r.PathValue("id"))
		return
	}
	from, ok := queryParamSeq(w, r, "from", 0)
	if !ok {
		return
	}
	if ack, okAck := queryParamSeq(w, r, "ack", -1); !okAck {
		return
	} else if ack >= 0 {
		reg.Ack(ack)
	}
	if isWSUpgrade(r) {
		s.serveResultsWS(w, r, reg, from)
		return
	}
	reader := reg.ResultsFrom(from)
	defer reader.Detach()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		it, ok := reader.Next(r.Context().Done())
		if !ok {
			return
		}
		if err := enc.Encode(reg.itemEvent(it)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// ackRequest is the JSON body of POST /v1/queries/{id}/ack.
type ackRequest struct {
	Seq int64 `json:"seq"`
}

// handleAck records an out-of-band acknowledgement: the consumer
// declares every event through seq durably processed, and the query's
// retention floor follows. Answers the highest acknowledged sequence
// (acks are monotone and clamped to assigned sequences, so a stale or
// overshooting ack is safe).
func (s *Server) handleAck(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "query_not_found", "%v: %q", ErrQueryNotFound, r.PathValue("id"))
		return
	}
	var req ackRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "decode request: %v", err)
		return
	}
	acked := reg.Ack(req.Seq)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"query_id": reg.ID(), "acked": acked})
}

// historyResponse is one page of GET /v1/queries/{id}/history.
type historyResponse struct {
	QueryID string `json:"query_id"`
	From    int64  `json:"from"`
	// NextFrom is the cursor for the next page: pass it back as ?from=.
	// It equals From when nothing was readable at From (end of history).
	NextFrom int64   `json:"next_from"`
	Events   []Event `json:"events"`
}

// History paging bounds: the default and maximum events per page.
const (
	defaultHistoryLimit = 100
	maxHistoryLimit     = 1000
)

// handleHistory pages through a query's retained result history —
// spilled segments and the live ring — without holding a stream open or
// moving the retention floor. Events are byte-identical to what a
// streamed read over the same sequences delivers (gap events included),
// so a consumer can mix paging and streaming freely.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "query_not_found", "%v: %q", ErrQueryNotFound, r.PathValue("id"))
		return
	}
	from, ok := queryParamSeq(w, r, "from", 0)
	if !ok {
		return
	}
	limit, ok := queryParamSeq(w, r, "limit", defaultHistoryLimit)
	if !ok {
		return
	}
	if limit <= 0 {
		limit = defaultHistoryLimit
	}
	if limit > maxHistoryLimit {
		limit = maxHistoryLimit
	}
	if from < 0 {
		from = 0
	}
	events, next := reg.HistoryPage(from, int(limit))
	if events == nil {
		events = []Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(historyResponse{
		QueryID: reg.ID(), From: from, NextFrom: next, Events: events,
	})
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Unregister(id); err != nil {
		status, code := errorStatus(err)
		httpError(w, status, code, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"unregistered": id})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Metrics())
}
