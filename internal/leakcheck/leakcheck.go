// Package leakcheck verifies at the end of a test binary that no
// goroutine outlived the tests. The serving layer starts its background
// work through a task group that counts every spawn; leakcheck is the
// proof that the counting drains — and catches what no structure can
// rule out: a goroutine started some other way, a drain that is wired
// up but never called, a goroutine blocked forever on a channel nobody
// closes.
//
// Wire it into a package with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }
//
// The check snapshots all goroutine stacks (runtime.Stack with all=true)
// and filters the benign ones: the runtime's own workers, the testing
// harness, and the net/http client's process-global idle-connection
// pool. Anything left is retried for a grace period — goroutines that
// are merely finishing (a timer firing, a conn tearing down) disappear
// on their own — and whatever survives the grace is reported with its
// full stack.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// DefaultGrace is how long Check waits for in-flight goroutines to
// finish before declaring them leaked. Scheduling a goroutine's last few
// instructions can take milliseconds under load; real leaks are blocked
// forever, so the grace trades a short worst-case delay for zero flakes.
const DefaultGrace = 5 * time.Second

// VerifyTestMain runs the package's tests and then fails the binary if
// goroutines leaked. A failing test run is reported as-is — leak output
// on top of test failures is noise, and the failing test may legitimately
// have abandoned work mid-flight.
func VerifyTestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Check(DefaultGrace); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check reports an error if any non-benign goroutine is still alive
// after retrying for the grace period.
func Check(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	wait := 1 * time.Millisecond
	for {
		leaked := leakedStacks()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutine(s) leaked past the test run:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(wait)
		if wait < 100*time.Millisecond {
			wait *= 2
		}
	}
}

// leakedStacks snapshots every goroutine and returns the stacks that are
// neither the caller's own nor benign.
func leakedStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for i, stack := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the goroutine running this check
		}
		if !benign(stack) {
			leaked = append(leaked, strings.TrimSpace(stack))
		}
	}
	return leaked
}

// benignMarks are substrings identifying goroutines that legitimately
// outlive a test run.
var benignMarks = []string{
	// The testing harness itself.
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).before",
	"testing.runTests(",
	// Runtime and os/signal workers, alive for the whole process.
	"runtime.ensureSigM",
	"signal.signal_recv",
	"os/signal.loop",
	// The net/http client's idle-connection pool is process-global:
	// keep-alive conns linger by design after httptest servers close.
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
}

func benign(stack string) bool {
	for _, mark := range benignMarks {
		if strings.Contains(stack, mark) {
			return true
		}
	}
	// A goroutine caught in its dying instant traces as a bare goexit
	// frame: it is gone, not leaked.
	if lines := strings.SplitN(strings.TrimSpace(stack), "\n", 3); len(lines) >= 2 &&
		strings.HasPrefix(lines[1], "runtime.goexit") {
		return true
	}
	return false
}
