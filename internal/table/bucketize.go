package table

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// The paper's framework assumes categorical columns; numeric attributes are
// bucketized beforehand (Section 6.2), e.g. age → "18-24", "25-34". This
// file provides the two standard bucketization strategies so raw numeric
// data can be prepared for drill-down.

// BucketScheme selects how bucket boundaries are chosen.
type BucketScheme int

const (
	// EquiWidth splits [min, max] into equal-width intervals.
	EquiWidth BucketScheme = iota
	// EquiDepth chooses quantile boundaries so buckets hold roughly equal
	// numbers of rows, which keeps per-bucket counts comparable — useful
	// because smart drill-down favors high-count values.
	EquiDepth
)

// Bucketize converts a slice of numeric values into categorical labels of
// the form "lo-hi" using the given scheme and bucket count. It returns the
// labels (parallel to values) and the ordered distinct labels used.
func Bucketize(values []float64, buckets int, scheme BucketScheme) ([]string, []string, error) {
	if buckets < 1 {
		return nil, nil, fmt.Errorf("table: bucket count %d < 1", buckets)
	}
	if len(values) == 0 {
		return nil, nil, nil
	}
	bounds, err := bucketBounds(values, buckets, scheme)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, len(bounds)-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("%s-%s", formatBound(bounds[i]), formatBound(bounds[i+1]))
	}
	out := make([]string, len(values))
	for i, v := range values {
		// Find the first boundary strictly greater than v; v falls in the
		// preceding bucket. The last bucket is closed on both ends.
		b := sort.SearchFloat64s(bounds[1:len(bounds)-1], v)
		if bounds[1:][b] == v && b < len(labels)-1 {
			b++ // boundary values belong to the higher bucket, like sort.Search on (lo, hi]
		}
		if b >= len(labels) {
			b = len(labels) - 1
		}
		out[i] = labels[b]
	}
	return out, labels, nil
}

func bucketBounds(values []float64, buckets int, scheme BucketScheme) ([]float64, error) {
	switch scheme {
	case EquiWidth:
		lo, hi := values[0], values[0]
		for _, v := range values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo == hi {
			return []float64{lo, hi}, nil
		}
		bounds := make([]float64, buckets+1)
		for i := range bounds {
			bounds[i] = lo + (hi-lo)*float64(i)/float64(buckets)
		}
		return bounds, nil
	case EquiDepth:
		sorted := append([]float64{}, values...)
		sort.Float64s(sorted)
		bounds := []float64{sorted[0]}
		for i := 1; i < buckets; i++ {
			q := sorted[i*len(sorted)/buckets]
			if q > bounds[len(bounds)-1] {
				bounds = append(bounds, q)
			}
		}
		if top := sorted[len(sorted)-1]; top > bounds[len(bounds)-1] {
			bounds = append(bounds, top)
		}
		if len(bounds) == 1 { // all values identical
			bounds = append(bounds, bounds[0])
		}
		return bounds, nil
	default:
		return nil, fmt.Errorf("table: unknown bucket scheme %d", scheme)
	}
}

func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
