package main

import (
	"fmt"
	"math"
	"strings"

	"smartdrill/api"
	"smartdrill/internal/table"
)

// checker holds the harness's own reading of the dataset and judges every
// count the server puts on the wire against it. Ground truth is
// Table.Count — a plain row scan that shares no code with the index,
// bitmap, sample or cache paths the server answers from.
type checker struct {
	t      *table.Table
	counts map[string]float64 // rule display → scanned count

	// Accuracy of provisional (sample-estimated) counts against the scan,
	// accumulated run-wide on sampled workloads.
	relErr    []float64
	ciTotal   int
	ciCovered int
}

func newChecker(t *table.Table) *checker {
	return &checker{t: t, counts: make(map[string]float64)}
}

// truth returns the scanned count of the rule a wire node displays.
func (c *checker) truth(n *api.Node) (float64, error) {
	key := strings.Join(n.Display, "\x1f")
	if v, ok := c.counts[key]; ok {
		return v, nil
	}
	r, err := c.t.EncodeRule(n.Rule)
	if err != nil {
		return 0, fmt.Errorf("node %s shows a rule the dataset cannot encode: %w", n.ID, err)
	}
	v := float64(c.t.Count(r))
	c.counts[key] = v
	return v, nil
}

// subtree verifies n and everything below it: an exact count must equal
// the scan, and a provisional one is tallied for interval coverage and
// relative error (it is allowed to be off; that is what provisional means).
func (c *checker) subtree(n *api.Node) error {
	if n == nil {
		return fmt.Errorf("response carries no node")
	}
	want, err := c.truth(n)
	if err != nil {
		return err
	}
	if n.Exact {
		if n.Count != want {
			return fmt.Errorf("node %s %v: exact count %v on the wire, scan says %v", n.ID, n.Display, n.Count, want)
		}
	} else {
		c.provisional(n, want)
	}
	for _, child := range n.Children {
		if err := c.subtree(child); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) provisional(n *api.Node, want float64) {
	if want > 0 {
		c.relErr = append(c.relErr, math.Abs(n.Count-want)/want)
	}
	if n.CI != nil {
		c.ciTotal++
		if n.CI[0] <= want && want <= n.CI[1] {
			c.ciCovered++
		}
	}
}

// refined verifies a refine event: the re-counted node must be exact and
// equal the scan.
func (c *checker) refined(n *api.Node) error {
	if !n.Exact {
		return fmt.Errorf("refine event for %s is still provisional", n.ID)
	}
	return c.subtree(n)
}

// minCICoverage is the run-wide share of 95% intervals that must contain
// the scanned count on a sampled workload. Nominal coverage is 0.95; the
// floor leaves room for the few dozen intervals one run sees.
const minCICoverage = 0.85

// coverage reports the observed interval coverage and whether it clears
// the floor (vacuously true when no interval was seen).
func (c *checker) coverage() (float64, bool) {
	if c.ciTotal == 0 {
		return 1, true
	}
	cov := float64(c.ciCovered) / float64(c.ciTotal)
	return cov, cov >= minCICoverage
}
