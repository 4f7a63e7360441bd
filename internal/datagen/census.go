package datagen

import (
	"fmt"
	"math/rand"

	"smartdrill/internal/table"
)

// CensusColumnCount matches the paper's US 1990 Census extract (68
// attributes, all pre-bucketized to categorical).
const CensusColumnCount = 68

// Census generates a synthetic stand-in for the Census dataset: n rows over
// 68 categorical columns with cardinalities between 2 and 10, zipf-skewed
// marginals of varying exponent, and block correlations (each column in a
// correlated block copies the block leader's value index with probability
// 0.6, modulo its own cardinality) so that multi-column rules with high
// support exist, as in real census data.
//
// For speed at millions of rows, values are generated directly as
// dictionary ids through a pre-seeded builder.
func Census(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))

	cols := make([]string, CensusColumnCount)
	cards := make([]int, CensusColumnCount)
	dists := make([]dist, CensusColumnCount)
	for c := range cols {
		cols[c] = fmt.Sprintf("attr%02d", c)
		// Cardinality cycles 2..10 so some columns are binary (like sex or
		// citizenship) and others ~10-valued (like bucketized age/income).
		cards[c] = 2 + c%9
		skew := 0.5 + float64(c%5)*0.4 // zipf exponents 0.5 .. 2.1
		dists[c] = newDist(labels(fmt.Sprintf("v%02d_", c), cards[c]), zipfWeights(cards[c], skew))
	}

	// Correlated blocks of 4 columns: columns 1..3 of each block follow the
	// block leader with probability 0.6.
	const blockSize = 4
	const followProb = 0.6

	b := table.MustBuilder(cols, nil)
	row := make([]string, CensusColumnCount)
	idx := make([]int, CensusColumnCount)
	for i := 0; i < n; i++ {
		for c := 0; c < CensusColumnCount; c++ {
			lead := c - c%blockSize
			if c != lead && rng.Float64() < followProb {
				idx[c] = idx[lead] % cards[c]
			} else {
				idx[c] = dists[c].sampleIdx(rng)
			}
			row[c] = dists[c].values[idx[c]]
		}
		b.MustAddRow(row)
	}
	return b.Build()
}

// CensusProjected generates Census data restricted to its first k columns
// (the paper's experiments use 7) without paying for the other 61.
func CensusProjected(n, k int, seed int64) *table.Table {
	full := CensusColumnCount
	if k <= 0 || k > full {
		k = full
	}
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, k)
	cards := make([]int, full)
	dists := make([]dist, full)
	for c := 0; c < full; c++ {
		if c < k {
			cols[c] = fmt.Sprintf("attr%02d", c)
		}
		cards[c] = 2 + c%9
		skew := 0.5 + float64(c%5)*0.4
		dists[c] = newDist(labels(fmt.Sprintf("v%02d_", c), cards[c]), zipfWeights(cards[c], skew))
	}
	const blockSize = 4
	const followProb = 0.6
	b := table.MustBuilder(cols, nil)
	row := make([]string, k)
	idx := make([]int, full)
	for i := 0; i < n; i++ {
		// Generate all 68 so the distribution matches Census exactly for
		// the shared prefix, then keep the first k. The RNG stream per row
		// must be identical to Census for the same seed.
		for c := 0; c < full; c++ {
			lead := c - c%blockSize
			if c != lead && rng.Float64() < followProb {
				idx[c] = idx[lead] % cards[c]
			} else {
				idx[c] = dists[c].sampleIdx(rng)
			}
			if c < k {
				row[c] = dists[c].values[idx[c]]
			}
		}
		b.MustAddRow(row)
	}
	return b.Build()
}
