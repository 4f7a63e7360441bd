// Package spans attributes a request's time to the steps that spent it: a
// Record rides on the request's context, each layer adds its span where it
// does the work, and the serving layer renders the record. The durations
// are reported, never read back: no answer depends on the clock.
package spans

import (
	"context"
	"strconv"
	"time"
)

// Span names one step of a request.
type Span uint8

const (
	Admit   Span = iota // the wait for an admission slot
	Lock                // the wait for the session lock
	Resolve             // the searched view's resolution: filtered, grouped or sampled, and an exact coverage sliced or copied into its table
	MW                  // the Section 6.1 mw probe, where one runs
	BRS                 // the BRS run
	Save                // the session's write-through: snapshot, record, backend save
	numSpans
)

var names = [numSpans]string{"admit", "lock", "resolve", "mw", "brs", "save"}

// Record is one request's spans. It is not safe for concurrent use: a
// request's layers run one after another on its goroutine.
type Record struct {
	start time.Time
	dur   [numSpans]time.Duration
	ran   uint8 // bit s: span s was added
}

// Start returns an empty record whose total runs from now.
func Start() Record { return Record{start: time.Now()} }

type ctxKey struct{}

// With returns ctx carrying r.
func With(ctx context.Context, r *Record) context.Context { return context.WithValue(ctx, ctxKey{}, r) }

// Since adds the time since start to span s of ctx's record, if it carries
// one. A span added twice, such as two waits for one lock, adds up.
func Since(ctx context.Context, s Span, start time.Time) {
	if r, _ := ctx.Value(ctxKey{}).(*Record); r != nil {
		r.dur[s] += time.Since(start)
		r.ran |= 1 << s
	}
}

// Duration reports span s's time, and whether it ran.
func (r *Record) Duration(s Span) (time.Duration, bool) { return r.dur[s], r.ran&(1<<s) != 0 }

// Total is the time since the record started.
func (r *Record) Total() time.Duration { return time.Since(r.start) }

// String renders the spans that ran as a Server-Timing header value, in
// milliseconds as the header defines them — "admit;dur=0.004,
// lock;dur=0.001" — and "" when none did.
func (r *Record) String() string {
	var b []byte
	for s := range numSpans {
		if d, ran := r.Duration(s); ran {
			if b != nil {
				b = append(b, ", "...)
			}
			b = append(append(b, names[s]...), ";dur="...)
			b = strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
		}
	}
	return string(b)
}
