package spans

import (
	"context"
	"regexp"
	"testing"
	"time"
)

func TestSinceWithoutRecordDoesNothing(t *testing.T) {
	Since(context.Background(), BRS, time.Now()) // must not panic
}

// TestRecordRendersTheSpansThatRan: spans add up and render in their fixed
// order, in milliseconds, and a span that was never added does not render.
func TestRecordRendersTheSpansThatRan(t *testing.T) {
	r := Start()
	if got := r.String(); got != "" {
		t.Fatalf("an empty record renders %q", got)
	}
	ctx := With(context.Background(), &r)
	Since(ctx, Save, time.Now())
	Since(ctx, Lock, time.Now().Add(-time.Millisecond))
	Since(ctx, Lock, time.Now().Add(-2*time.Millisecond))
	if lock, ran := r.Duration(Lock); !ran || lock < 3*time.Millisecond {
		t.Fatalf("lock %v, ran %v: the two waits do not add up", lock, ran)
	}
	if _, ran := r.Duration(MW); ran {
		t.Fatal("mw ran without being added")
	}
	if !regexp.MustCompile(`^lock;dur=\d+\.\d{3}, save;dur=\d+\.\d{3}$`).MatchString(r.String()) {
		t.Fatalf("rendered %q", r.String())
	}
	if r.Total() <= 0 {
		t.Fatalf("total %v", r.Total())
	}
}
