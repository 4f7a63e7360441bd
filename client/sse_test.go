package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"smartdrill/api"
)

// writeEvent writes one event the way the server's stream handler does
// (internal/server/sse.go, writeSSE): an event line, a data line holding
// the compact JSON payload, and a blank line.
func writeEvent(buf *bytes.Buffer, event string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(buf, "event: %s\ndata: %s\n\n", event, payload)
}

// roundTrip returns v as a reader of its JSON gets it back: what a
// consumer can deliver at best, strings with invalid UTF-8 repaired.
func roundTrip[T any](v T) T {
	payload, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	var back T
	if err := json.Unmarshal(payload, &back); err != nil {
		panic(err)
	}
	return back
}

// FuzzConsumeStream holds the SDK's stream parser to two promises. On any
// bytes at all it returns — never panics, never waits on more input than
// the reader holds. And a stream written the way the server writes one
// reaches the callbacks whole: script picks each event in turn — a rule, a
// refine, or the done event that ends the stream — and text fills the
// strings of its payload, so every rule and refine must arrive in order,
// each through its own callback, equal to what was sent, and the done
// event must come back as the result; a stream that ends without one is an
// error, after every event before the end was delivered.
func FuzzConsumeStream(f *testing.F) {
	var served bytes.Buffer
	writeEvent(&served, api.EventRule, api.Node{ID: "n2", Rule: map[string]string{"Store": "Walmart"}, Display: []string{"Walmart", "?", "?"}, Count: 1000, Exact: true, Weight: 1})
	writeEvent(&served, api.EventRefine, api.Node{ID: "n2", Count: 998.5, CI: &[2]float64{990, 1007}, Weight: 1})
	writeEvent(&served, api.EventDone, api.DoneEvent{Rules: 1, Refined: 1, Access: "direct", ElapsedMS: 12})
	f.Add(served.Bytes(), []byte{0, 2, 3}, "Walmart")
	f.Add([]byte(": comment\nid: 7\nretry: 10\nevent: rule\ndata: {\"id\":\"n3\"}\n\nevent: done\ndata: {\"rules\":1}\n\n"), []byte{1, 1, 2}, "")
	f.Add([]byte("event: rule\r\ndata: {\"id\":\r\n\r\n"), []byte{}, "?")
	f.Add([]byte("event: done\ndata: {\"rules\":\ndata: 2}\n\n"), []byte{3}, "a\nb")
	f.Add([]byte("event: rule\ndata: not json\n\n"), []byte{0, 0, 0, 0}, "\xff")
	f.Add([]byte("data: orphan\n\nevent: unknown\ndata: {}\n\n"), []byte{2, 6, 7}, "\"quoted\"")
	f.Add([]byte("event: rule\ndata: {\"id\":\"n2\"}\n"), []byte{4, 9, 14, 255}, "𝛼")
	f.Fuzz(func(t *testing.T, raw, script []byte, text string) {
		ctx := context.Background()
		keep := len(raw)%2 == 0
		consumeStream(ctx, bytes.NewReader(raw), StreamOptions{
			OnRule:   func(*api.Node) bool { return keep },
			OnRefine: func(*api.Node) {},
		})

		type event struct {
			kind string
			node api.Node
		}
		var stream bytes.Buffer
		var sent []event
		var done *api.DoneEvent
		for i, b := range script {
			if b%4 == 3 {
				d := roundTrip(api.DoneEvent{Rules: i, Refined: int(b), Access: text, ElapsedMS: int64(b) << 20, Error: text, ErrorCode: api.ErrorCode(text)})
				writeEvent(&stream, api.EventDone, d)
				done = &d
				break
			}
			n := api.Node{ID: fmt.Sprintf("n%d", i+2), Rule: map[string]string{text: text}, Display: []string{text, "?"}, Count: float64(b) * 1.5, Exact: b&4 != 0, Weight: float64(i)}
			if b&8 != 0 {
				n.CI = &[2]float64{float64(b) - 0.25, float64(b) + 0.25}
			}
			kind := api.EventRule
			if b%4 == 2 {
				kind = api.EventRefine
			}
			writeEvent(&stream, kind, n)
			sent = append(sent, event{kind, roundTrip(n)})
		}
		var got []event
		result, err := consumeStream(ctx, &stream, StreamOptions{
			OnRule:   func(n *api.Node) bool { got = append(got, event{api.EventRule, *n}); return true },
			OnRefine: func(n *api.Node) { got = append(got, event{api.EventRefine, *n}) },
		})
		if len(got) != len(sent) || (len(sent) > 0 && !reflect.DeepEqual(got, sent)) {
			t.Fatalf("delivered %d events\n%+v\nwant the %d sent\n%+v", len(got), got, len(sent), sent)
		}
		switch {
		case done == nil && (err == nil || result != nil):
			t.Fatalf("a stream with no done event returned %+v, %v; want an error", result, err)
		case done != nil && (err != nil || !reflect.DeepEqual(result, done)):
			t.Fatalf("returned %+v, %v; want the done event %+v", result, err, done)
		}
	})
}
