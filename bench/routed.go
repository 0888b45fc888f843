package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"vmq"
)

// routedRig is the delivery_routed topology: shard servers on loopback
// listeners behind one router, driven over the /v1 HTTP surface by two
// client connections (the merged stream, and the keep-alive ack client).
type routedRig struct {
	https     []*http.Server
	router    *vmq.Router
	routerURL string
	shardOf   []int // feed → index into inc.servers

	streamClient *http.Client
	ackClient    *http.Client

	httpFails atomic.Int64
	requests  atomic.Int64
	// Written by the single consumer goroutine, read after it exits.
	ackRTT    []int64 // ns per ack round trip
	wireBytes int64   // bytes read off the merged stream
	resumes   int64   // shard_up markers seen (must stay 0)
}

func serveOn(h http.Handler) (net.Listener, *http.Server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(l) }() // returns when close() closes srv
	return l, srv, nil
}

// newRoutedRig puts inc's servers behind loopback listeners and a router,
// and names inc's feeds so the ring places one on each shard.
func newRoutedRig(inc *incarnation) error {
	rig := &routedRig{
		streamClient: &http.Client{Transport: &http.Transport{}},
		ackClient:    &http.Client{Transport: &http.Transport{}},
	}
	inc.routed = rig // so inc.close() tears down a partly built rig
	var shards []vmq.ShardInfo
	for i, s := range inc.servers {
		l, hs, err := serveOn(s.Handler())
		if err != nil {
			return fmt.Errorf("shard listener: %w", err)
		}
		rig.https = append(rig.https, hs)
		shards = append(shards, vmq.ShardInfo{Name: string(rune('a' + i)), URL: "http://" + l.Addr().String()})
	}
	// Only the fleet's addresses are set: every tuning knob keeps its
	// default.
	router, err := vmq.NewRouter(vmq.RouterConfig{Shards: shards})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	rig.router = router
	l, hs, err := serveOn(router.Handler())
	if err != nil {
		return fmt.Errorf("router listener: %w", err)
	}
	rig.https = append(rig.https, hs)
	rig.routerURL = "http://" + l.Addr().String()

	// Name the feeds so the ring places one on each shard: the router
	// routes a query by its FROM clause, so a feed must live where the
	// ring says. The ring hashes names only, so the choice is the same on
	// every run.
	rig.shardOf = make([]int, inc.w.Feeds)
	next := 0
	for f := 0; f < inc.w.Feeds; f++ {
		want := shards[f%len(shards)].Name
		for ; ; next++ {
			name := fmt.Sprintf("cam%d", next)
			if router.Owner(name) == want {
				inc.names[f] = name
				rig.shardOf[f] = f % len(shards)
				next++
				break
			}
		}
	}
	return nil
}

// register posts one query through the router and returns its fleet id.
func (rig *routedRig) register(text string, qs querySpec) (string, error) {
	body, _ := json.Marshal(map[string]any{
		"query": text, "policy": string(qs.Policy), "result_buffer": qs.Buffer,
	})
	rig.requests.Add(1)
	resp, err := rig.ackClient.Post(rig.routerURL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("register %q: %w", text, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("register %q: HTTP %d: %s", text, resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("register %q: bad answer %s", text, raw)
	}
	return out.ID, nil
}

// consume reads the merged stream of every registered query until it ends,
// acking each query every ackEvery events. It is the workload's single
// consumer goroutine.
func (rig *routedRig) consume(inc *incarnation) {
	byID := make(map[string]*consumer, len(inc.consumers))
	params := make([]string, 0, len(inc.consumers))
	for _, c := range inc.consumers {
		byID[c.id] = c
		params = append(params, "id="+url.QueryEscape(c.id+"@0"))
	}
	rig.requests.Add(1)
	resp, err := rig.streamClient.Get(rig.routerURL + "/v1/stream?" + strings.Join(params, "&"))
	if err != nil {
		rig.httpFails.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rig.httpFails.Add(1)
		return
	}
	traced := inc.tr != nil
	unacked := make(map[*consumer]int, len(inc.consumers))
	pending := make(map[*consumer][]int32, len(inc.consumers)) // traced: frames awaiting their ack
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for {
		var t0 int64
		if traced {
			t0 = nowNs()
		}
		if !sc.Scan() {
			break
		}
		line := sc.Bytes()
		rig.wireBytes += int64(len(line)) + 1
		var se vmq.StreamEvent
		if err := json.Unmarshal(line, &se); err != nil {
			rig.httpFails.Add(1)
			continue
		}
		c := byID[se.QueryID]
		switch se.Kind {
		case "match", "window", "end", "gap":
		case "shard_up":
			rig.resumes++
			continue
		default: // shard_down, relay_failed: the fleet lost a link mid-run
			rig.httpFails.Add(1)
			continue
		}
		if c == nil {
			rig.httpFails.Add(1)
			continue
		}
		var ev vmq.Event
		if err := json.Unmarshal(se.Event, &ev); err != nil {
			rig.httpFails.Add(1)
			continue
		}
		at := nowNs()
		if traced {
			c.waitNs += at - t0
		}
		if ev.Kind == vmq.EventGap {
			c.gap(ev.DroppedFrom, ev.DroppedTo)
			continue
		}
		c.handle(&ev, ev.EventSeq, at)
		unacked[c]++
		if traced && ev.Kind == vmq.EventMatch {
			pending[c] = append(pending[c], int32(ev.FrameIndex))
		}
		if unacked[c] >= ackEvery || ev.Kind == vmq.EventEnd {
			rig.ack(c.id, ev.EventSeq)
			unacked[c] = 0
			if traced {
				done := nowNs()
				for _, fi := range pending[c] {
					inc.tr.acked[c.feed][fi].CompareAndSwap(0, done)
				}
				pending[c] = pending[c][:0]
			}
		}
	}
	if err := sc.Err(); err != nil {
		rig.httpFails.Add(1)
	}
}

// ack acknowledges every event of one query through seq, via the router,
// on the keep-alive ack connection.
func (rig *routedRig) ack(id string, seq int64) {
	t0 := nowNs()
	rig.requests.Add(1)
	body := fmt.Sprintf(`{"seq":%d}`, seq)
	resp, err := rig.ackClient.Post(rig.routerURL+"/v1/queries/"+url.PathEscape(id)+"/ack",
		"application/json", strings.NewReader(body))
	if err != nil {
		rig.httpFails.Add(1)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rig.httpFails.Add(1)
	}
	rig.ackRTT = append(rig.ackRTT, nowNs()-t0)
}

func (rig *routedRig) close() {
	rig.streamClient.CloseIdleConnections()
	rig.ackClient.CloseIdleConnections()
	if rig.router != nil {
		rig.router.Close()
	}
	for _, hs := range rig.https {
		_ = hs.Close() // open streams are severed; the listener closes with it
	}
}
