package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"vmq"
	"vmq/internal/video"
)

// cmdServe hosts the continuous-query server over one or more synthetic
// live feeds and blocks serving its HTTP API, all under /v1:
//
//	POST   /v1/queries              register a VQL query (text or JSON body)
//	GET    /v1/queries              list registered queries with delivery telemetry
//	GET    /v1/queries/{id}         one query's status row
//	GET    /v1/queries/{id}/results stream results as NDJSON (or WebSocket with in-band acks)
//	POST   /v1/queries/{id}/ack     acknowledge consumption through a sequence
//	GET    /v1/queries/{id}/history page spilled/ring history without attaching
//	DELETE /v1/queries/{id}         unregister
//	POST   /v1/feeds                create a feed at runtime (push or sim)
//	GET    /v1/feeds                list feeds with lifecycle state
//	POST   /v1/feeds/{name}/drain   drain a feed gracefully
//	DELETE /v1/feeds/{name}         drain, wait for end events, remove
//	POST   /v1/feeds/{name}/frames  publish NDJSON frames into a push feed
//	GET    /v1/feeds/{name}/publish WebSocket publisher bridge
//	GET    /v1/metrics              frames/sec, selectivity, recall, queues
//
// SIGINT or SIGTERM shuts down gracefully: the listener stops accepting,
// every feed drains so in-flight queries end with typed end events and
// their consumers finish, result-log spills are flushed, and the process
// exits — all bounded by -drain-timeout.
func cmdServe(args []string, out, errw io.Writer) error {
	fs := newFlagSet("serve", errw)
	addr := fs.String("addr", ":8372", "listen address")
	feeds := fs.String("feeds", "jackson", "comma-separated dataset feeds (coral, jackson, detrac)")
	seed := fs.Uint64("seed", 42, "stream seed")
	fps := fs.Float64("fps", 30, "per-feed frame rate (0 = as fast as consumers allow)")
	frames := fs.Int("frames", 0, "stop each feed after this many frames (0 = unbounded)")
	policy := fs.String("policy", "block", "default delivery policy: block, drop-oldest, sample-under-pressure")
	resultLog := fs.Int("result-log", 0, "result-log ring capacity per query, in events (0 = default 64)")
	maxQueries := fs.Int("max-queries", 0, "registration limit per feed (0 = unlimited)")
	spillDir := fs.String("spill-dir", "", "directory for server-managed result spills requested per query (default: under the OS temp dir)")
	spillRetain := fs.Int64("spill-retain", 0, "per-query on-disk spill retention budget in bytes (0 = default 64MiB, -1 = unbounded)")
	stateDir := fs.String("state-dir", "", "durable state directory: feeds and queries are journalled and recovered across restarts (empty = in-memory only)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for draining feeds and flushing results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Bind and serve the holding handler before recovery: on a durable
	// restart the port answers 503 {"status":"recovering"} while the
	// manifest replays, so probers (and a fleet router) see readiness
	// honestly instead of connection refused.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs, errc := serveHolding(ln)
	srv, err := buildServer(serveConfig{
		feeds: *feeds, seed: *seed, fps: *fps, frames: *frames,
		policy: *policy, resultLog: *resultLog, maxQueries: *maxQueries,
		spillDir: *spillDir, spillRetain: *spillRetain, stateDir: *stateDir,
	})
	if err != nil {
		hs.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, srv, hs, errc, ln.Addr().String(), *feeds, *drainTimeout, out)
}

// swapHandler serves 503 {"status":"recovering"} until Set swaps in the
// real API — the readiness gate between binding the port and finishing
// manifest recovery.
type swapHandler struct {
	h atomic.Value // holds hbox (atomic.Value wants one concrete type)
}

// hbox boxes handlers of differing concrete types for atomic.Value.
type hbox struct{ h http.Handler }

func newSwapHandler() *swapHandler {
	sw := &swapHandler{}
	sw.h.Store(hbox{h: http.HandlerFunc(serveRecovering)})
	return sw
}

func (sw *swapHandler) Set(h http.Handler) { sw.h.Store(hbox{h: h}) }
func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.h.Load().(hbox).h.ServeHTTP(w, r)
}

// serveRecovering is the holding response: healthz paths get the status
// body a readiness probe expects, everything else the error envelope.
func serveRecovering(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	if strings.HasSuffix(r.URL.Path, "/healthz") {
		io.WriteString(w, "{\"status\":\"recovering\"}\n")
		return
	}
	io.WriteString(w, "{\"error\":{\"code\":\"recovering\",\"message\":\"server is recovering; retry shortly\"}}\n")
}

// serveHolding starts the HTTP server on ln behind a swapHandler.
// ReadHeaderTimeout bounds how long an idle connection may sit in a
// half-sent request (slowloris); IdleTimeout reclaims keep-alive
// connections. No WriteTimeout: result streams are long-lived by
// design and must not be severed by a wall clock.
func serveHolding(ln net.Listener) (*http.Server, <-chan error) {
	hs := &http.Server{
		Handler:           newSwapHandler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	return hs, errc
}

// runServe swaps the real API into the already-serving hs, starts the
// feeds, and blocks until ctx is cancelled (the signal path), then
// shuts down gracefully: listener first, feeds drained with their end
// events delivered, server closed. Split from cmdServe so tests can
// drive the shutdown with a context instead of a signal.
func runServe(ctx context.Context, srv *vmq.Server, hs *http.Server, errc <-chan error, addr, feeds string, drainTimeout time.Duration, out io.Writer) error {
	if sw, ok := hs.Handler.(*swapHandler); ok {
		sw.Set(srv.Handler())
	}
	srv.Start()
	fmt.Fprintf(out, "vmq serve: feeds [%s] on http://%s (try: curl -N -d 'SELECT FRAMES FROM jackson WHERE COUNT(car) = 1' http://%s/v1/queries)\n",
		feeds, addr, addr)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "vmq serve: shutting down — draining feeds (budget %s)\n", drainTimeout)
	// Stop accepting and let in-flight requests (result streams included)
	// finish within the budget; feeds drain concurrently so those streams
	// see their end events rather than a severed connection.
	httpCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Shutdown(drainTimeout)
	}()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(out, "vmq serve: http shutdown: %v\n", err)
	}
	<-done
	fmt.Fprintln(out, "vmq serve: drained and closed")
	return nil
}

// serveConfig carries cmdServe's flags into buildServer.
type serveConfig struct {
	feeds       string
	seed        uint64
	fps         float64
	frames      int
	policy      string
	resultLog   int
	maxQueries  int
	spillDir    string
	spillRetain int64
	stateDir    string
}

// buildServer assembles a server over the named synthetic feeds — split
// from cmdServe so tests can exercise feed parsing and construction
// without binding a socket.
func buildServer(sc serveConfig) (*vmq.Server, error) {
	pol, ok := vmq.ParseDeliveryPolicy(sc.policy)
	if !ok {
		return nil, fmt.Errorf("serve: unknown -policy %q (try: block, drop-oldest, sample-under-pressure)", sc.policy)
	}
	cfg := vmq.ServerConfig{
		DefaultPolicy:     pol,
		ResultBuffer:      sc.resultLog,
		MaxQueriesPerFeed: sc.maxQueries,
		SpillDir:          sc.spillDir,
		Spill:             vmq.SpillConfig{RetainBytes: sc.spillRetain},
		StateDir:          sc.stateDir,
	}
	names := strings.Split(sc.feeds, ",")
	if len(names) == 0 || sc.feeds == "" {
		return nil, fmt.Errorf("serve: -feeds must name at least one dataset")
	}
	if sc.stateDir != "" {
		// Durable mode: recover whatever the manifest holds, then ensure
		// the flag-named feeds exist (journalled as specs, so the next
		// restart re-creates them too). A feed already recovered from the
		// manifest keeps its journalled definition.
		srv, err := vmq.RecoverServer(cfg)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if _, ok := video.ProfileByName(name); !ok {
				srv.Close()
				return nil, fmt.Errorf("serve: unknown dataset %q (try: coral, jackson, detrac)", name)
			}
			spec := vmq.FeedSpec{
				Name: name, Profile: name, Source: "sim",
				Seed: sc.seed, FPS: sc.fps, MaxFrames: sc.frames,
			}
			if err := srv.CreateFeedSpec(spec); err != nil && !errors.Is(err, vmq.ErrFeedExists) {
				srv.Close()
				return nil, err
			}
		}
		return srv, nil
	}
	srv := vmq.NewServer(cfg)
	for _, name := range names {
		name = strings.TrimSpace(name)
		p, ok := video.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: unknown dataset %q (try: coral, jackson, detrac)", name)
		}
		cfg := vmq.LiveFeed(p, sc.seed)
		if sc.fps > 0 {
			cfg.FrameInterval = time.Duration(float64(time.Second) / sc.fps)
		}
		cfg.MaxFrames = sc.frames
		if err := srv.AddFeed(cfg); err != nil {
			return nil, err
		}
	}
	return srv, nil
}
