package server

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"time"

	"smartdrill/api"
	"smartdrill/internal/spans"
)

// requestIDHeader names a request on both sides of the wire: a client may
// send its own, every response (error envelopes and SSE streams included)
// carries the one the server used, and the access-log and panic lines print
// it — so a client's report of a slow or failed call finds its log line.
const requestIDHeader = "X-Request-Id"

// withRequestID settles the request's id before anything else runs: the
// client's when it is 1–64 visible ASCII characters, 16 minted hex
// characters otherwise (absent, oversized, or carrying anything a log line
// or a header must not — spaces, control bytes, non-ASCII). It lives in the
// response header only; the middleware inside read it back from there.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = mintRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// mintRequestID returns 16 hex characters. The id correlates log lines, it
// guards nothing, so the runtime's lock-free generator is enough.
func mintRequestID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

// statusWriter records the response status and byte count for the request
// log, and holds the request's span record, sent as Server-Timing with the
// header. It forwards Flush so SSE streaming works through the middleware
// stack, and Unwrap so http.ResponseController finds the original writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	rec    spans.Record
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
		if timing := sw.rec.String(); timing != "" {
			sw.Header().Set("Server-Timing", timing)
		}
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.WriteHeader(http.StatusOK)
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// withLogging puts a span record on every request and logs one line per
// request: method, path, status, bytes, the record's total, request id and
// spans — a stream's too after its header went out — so the slow request a
// client names by id shows where its time went without a second lookup.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, rec: spans.Start()}
		next.ServeHTTP(sw, r.WithContext(spans.With(r.Context(), &sw.rec)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		timing := sw.rec.String()
		if timing != "" {
			timing = " timing=(" + timing + ")"
		}
		s.cfg.Logger.Printf("%s %s %d %dB %s rid=%s%s", r.Method, r.URL.Path, sw.status, sw.bytes,
			sw.rec.Total().Round(time.Microsecond), w.Header().Get(requestIDHeader), timing)
	})
}

// withRecovery converts handler panics into 500s instead of tearing down
// the connection, and logs the stack.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.cfg.Logger.Printf("panic serving %s %s rid=%s: %v\n%s", r.Method, r.URL.Path, w.Header().Get(requestIDHeader), rec, debug.Stack())
				writeError(w, api.ErrInternal, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
