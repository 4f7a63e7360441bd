// Package datagen generates the synthetic datasets that stand in for the
// paper's evaluation data, which is not redistributable:
//
//   - StoreSales: the department-store table of the paper's running example
//     (Tables 1–3), with the example's group counts planted exactly.
//   - Marketing: same shape as the paper's Marketing survey dataset
//     (9409 × 14 demographic columns, each ≤ 10 distinct values), with
//     skewed marginals and deliberate cross-column correlations so that
//     multi-column rules with high counts exist.
//   - Census: same shape as the paper's US 1990 Census extract (68 columns,
//     scalable to 2.5M rows), used to exercise the sampling machinery.
//
// All generators are deterministic given their seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
)

// dist is a categorical distribution: values with relative weights.
type dist struct {
	values  []string
	weights []float64
	cum     []float64
}

func newDist(values []string, weights []float64) dist {
	if len(values) != len(weights) {
		panic("datagen: values/weights length mismatch")
	}
	d := dist{values: values, weights: weights, cum: make([]float64, len(weights))}
	total := 0.0
	for i, w := range weights {
		total += w
		d.cum[i] = total
	}
	for i := range d.cum {
		d.cum[i] /= total
	}
	return d
}

func (d dist) sample(rng *rand.Rand) string {
	u := rng.Float64()
	for i, c := range d.cum {
		if u <= c {
			return d.values[i]
		}
	}
	return d.values[len(d.values)-1]
}

// sampleIdx returns the index rather than the label.
func (d dist) sampleIdx(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range d.cum {
		if u <= c {
			return i
		}
	}
	return len(d.values) - 1
}

// zipfWeights returns k weights ∝ 1/(i+1)^s — the skew that makes some
// values much more frequent than others, which is what gives drill-down
// rules high counts.
func zipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

func labels(prefix string, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}
