package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vmq/internal/video"
)

// FuzzWireFrame feeds arbitrary bytes to the publisher wire decoder (the
// path every NDJSON line and WebSocket text message takes): converting a
// decoded wireFrame to a frame must never panic, and a frame it accepts
// must survive a round trip through encodeWireFrame unchanged.
//
//	go test -run '^$' -fuzz FuzzWireFrame -fuzztime 60s ./internal/server
func FuzzWireFrame(f *testing.F) {
	p := video.Jackson()
	for _, prof := range []video.Profile{p, video.Detrac(), video.Coral()} {
		body, err := EncodeFrames(video.NewStream(prof, 5).Take(4))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			f.Add(line)
		}
	}
	for _, s := range []string{
		`{"index":3,"objects":[{"track_id":1,"class":"car","box":{"x0":1,"y0":2,"x1":3,"y1":4}}]}`,
		`{"index":0,"objects":[{"class":"car","color":"red"}]}`,
		`{"index":1,"objects":[{"class":"unicorn"}]}`,
		`{"index":1,"objects":[{"class":"car","color":"plaid"}]}`,
		`{"index":-1,"bounds":{"x0":5,"y0":5,"x1":0,"y1":0},"objects":null}`,
		`{"index":1e30}`, `{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wf wireFrame
		if json.Unmarshal(data, &wf) != nil {
			return
		}
		got, err := wf.frame(p)
		if err != nil {
			return
		}
		raw, err := json.Marshal(encodeWireFrame(got))
		if err != nil {
			t.Fatalf("accepted frame %+v does not re-encode: %v", got, err)
		}
		var again wireFrame
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("re-encoded frame %s does not decode: %v", raw, err)
		}
		back, err := again.frame(p)
		if err != nil {
			t.Fatalf("re-encoded frame %s is rejected: %v", raw, err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the frame:\n  %+v\n  %+v", got, back)
		}
	})
}
