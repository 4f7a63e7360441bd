package sampling

import (
	"fmt"
	"math"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// tupleHandler builds a handler over tab that draws from tab's distinct
// tuples, and returns them.
func tupleHandler(t *testing.T, tab *table.Table, m, minSS int, seed int64) (*Handler, *table.Table) {
	t.Helper()
	d, _ := tab.Distinct()
	if d == nil {
		t.Fatal("the table does not compress")
	}
	h, err := NewHandler(storage.NewStore(tab), m, minSS, NewTestRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	h.ServeGrouped(func() *table.Table { return d })
	return h, d
}

// tupleKey names view position i's tuple.
func tupleKey(v *table.View, i int) string {
	r := make(rule.Rule, v.NumCols())
	for c := range r {
		r[c] = v.Value(c, i)
	}
	return r.Key()
}

// multiplicities returns a weighted whole-table view's multiplicity by tuple.
func multiplicities(t *testing.T, v *table.View) map[string]int {
	t.Helper()
	if !v.Table().Weighted() || v.NumRows() != v.Table().NumRows() {
		t.Fatal("the view is not the whole of a weighted table")
	}
	out := make(map[string]int, v.NumRows())
	for i := 0; i < v.NumRows(); i++ {
		k := tupleKey(v, i)
		if _, dup := out[k]; dup {
			t.Fatalf("tuple %s is listed twice", k)
		}
		out[k] = v.Table().Multiplicity(i)
	}
	return out
}

// TestTupleDrawTotals: for every rule of a 60-rule set, a sample drawn from
// the distinct tuples learns the count a row scan counts, holds
// min(target, count) rows, never more of a tuple than the table has, and only
// tuples the rule covers; one that holds its filter's whole coverage is exact,
// at scale 1 with every multiplicity in full — and all of it from one walk of
// the distinct table, never a pass over the rows.
func TestTupleDrawTotals(t *testing.T) {
	tab := datagen.CensusProjected(20000, 5, 7)
	// The trivial rule, every one-column rule, and two- and three-column
	// ones over them until there are sixty.
	rules := []rule.Rule{rule.Trivial(5)}
	for c := 0; c < 5; c++ {
		for v := 0; v < tab.DistinctCount(c); v++ {
			rules = append(rules, rule.Trivial(5).With(c, rule.Value(v)))
		}
	}
	for i := 1; len(rules) < 60; i++ {
		r := rules[i]
		c := (r.InstantiatedColumns()[0] + 2) % 5
		for r[c] != rule.Star {
			c = (c + 1) % 5
		}
		rules = append(rules, r.With(c, rule.Value(i%tab.DistinctCount(c))))
	}
	const target = 1500
	h, d := tupleHandler(t, tab, 4000, target, 11)
	whole := multiplicities(t, d.All())
	exact := 0
	for _, r := range rules {
		before := h.store.Stats()
		v, err := h.GetSample(r)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := h.samples.Peek(r.Key())
		if v.Method != Create || s == nil {
			t.Fatalf("%v served by %s", r, v.Method)
		}
		if st := h.store.Stats(); st.FullScans != 0 || st.RowsRead-before.RowsRead != int64(d.NumRows()) {
			t.Fatalf("%v: the draw passed over the table %d times and read %d rows, want none and the %d distinct tuples",
				r, st.FullScans, st.RowsRead-before.RowsRead, d.NumRows())
		}
		count := tab.Count(r)
		if s.ExactCount != count || s.Size() != min(target, count) || v.Tab.NumTuples() != s.Size() {
			t.Fatalf("%v: a sample of %d rows (view of %d) knowing a count of %d, want %d of %d", r, s.Size(), v.Tab.NumTuples(), s.ExactCount, min(target, count), count)
		}
		if v.Read() != v.Tab.NumRows() || !v.Tab.Table().Weighted() {
			t.Fatalf("%v: %d rows copied into a table of %d, weighted %v", r, v.Read(), v.Tab.NumRows(), v.Tab.Table().Weighted())
		}
		for k, m := range multiplicities(t, v.Tab) {
			if m < 1 || m > whole[k] {
				t.Fatalf("%v: tuple %s sampled %d times over, the table holds %d", r, k, m, whole[k])
			}
			if count <= target && m != whole[k] {
				t.Fatalf("%v: a sample of the whole coverage holds %d of tuple %s's %d rows", r, m, k, whole[k])
			}
		}
		for i := 0; i < v.Tab.NumRows(); i++ {
			if !v.Tab.Covers(r, i) {
				t.Fatalf("%v does not cover sampled tuple %s", r, tupleKey(v.Tab, i))
			}
		}
		if count <= target {
			exact++
			if v.Scale != 1 || v.EstimatedCount != float64(count) {
				t.Fatalf("%v: whole coverage at scale %v estimating %v, want 1 and %d", r, v.Scale, v.EstimatedCount, count)
			}
		} else if want := float64(count) / target; v.Scale != want {
			t.Fatalf("%v: scale %v, want %v", r, v.Scale, want)
		}
	}
	if exact == 0 || exact == len(rules) {
		t.Fatalf("%d of %d rules fit their sample whole: the set exercises one side only", exact, len(rules))
	}
}

// skewed builds a two-column table of n distinct tuples, tuple i in
// 1 + i²/4 rows, laid out round-robin so that equal rows are far apart.
func skewed(n int) (*table.Table, []int) {
	mult := make([]int, n)
	left := 0
	for i := range mult {
		mult[i] = 1 + i*i/4
		left += mult[i]
	}
	b := table.MustBuilder([]string{"A", "B"}, nil)
	placed := make([]int, n)
	for left > 0 {
		for i := range mult {
			if placed[i] < mult[i] {
				b.MustAddRow([]string{fmt.Sprint(i % 7), fmt.Sprint(i)})
				placed[i]++
				left--
			}
		}
	}
	return b.Build(), mult
}

// TestTupleDrawIsHypergeometric: over 6 000 seeds on a skewed 50-tuple table
// the per-tuple sampled counts are what drawing rows without replacement
// gives. Their means sit on target·mᵢ/N (a chi-square over the tuples against
// the hypergeometric variance of a mean); their variances carry the
// finite-population factor (N−n)/(N−1), which at n = N/2 halves a
// multinomial's; and the two largest tuples' counts vary against each other.
// The covariance is small beside its noise (a correlation near −0.06), so it
// is tested against its own standard error, and the seeds are as many as it
// takes for that band to exclude zero.
func TestTupleDrawIsHypergeometric(t *testing.T) {
	const tuples, seeds = 50, 6000
	tab, mult := skewed(tuples)
	total := tab.NumRows()
	target := total / 2
	d, _ := tab.Distinct()
	keyOf := make(map[string]int, tuples) // tuple → its index in mult
	for j := 0; j < d.NumRows(); j++ {
		var i int
		fmt.Sscan(d.Dict(1).Decode(d.Value(1, j)), &i)
		if d.Multiplicity(j) != mult[i] {
			t.Fatalf("tuple %d has multiplicity %d, built with %d", i, d.Multiplicity(j), mult[i])
		}
		keyOf[tupleKey(d.All(), j)] = i
	}
	sum, sumSq := make([]float64, tuples), make([]float64, tuples)
	var xs, ys []float64 // per seed, the two largest tuples' counts
	trivial := rule.Trivial(2)
	for seed := int64(1); seed <= seeds; seed++ {
		h, _ := tupleHandler(t, tab, total, target, seed)
		v, err := h.GetSample(trivial)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, tuples)
		for k, c := range multiplicities(t, v.Tab) {
			x[keyOf[k]] = float64(c)
		}
		got := 0.0
		for i, c := range x {
			if c > float64(mult[i]) {
				t.Fatalf("tuple %d sampled %v times over, the table holds %d", i, c, mult[i])
			}
			sum[i] += c
			sumSq[i] += c * c
			got += c
		}
		if int(got) != target || v.Tab.NumTuples() != target {
			t.Fatalf("a sample of %v rows, want %d", got, target)
		}
		xs, ys = append(xs, x[tuples-1]), append(ys, x[tuples-2])
	}

	// 49 degrees of freedom: 85.4 is the 99.9th percentile.
	const chiMax = 85.4
	fpc := float64(total-target) / float64(total-1)
	chi, ratio, big := 0.0, 0.0, 0
	for i := range mult {
		p := float64(mult[i]) / float64(total)
		mean := sum[i] / seeds
		hyper := float64(target) * p * (1 - p) * fpc
		chi += (mean - float64(target)*p) * (mean - float64(target)*p) / (hyper / seeds)
		if mult[i] >= 100 {
			// Sample variance over multinomial variance: the factor.
			ratio += (sumSq[i]/seeds - mean*mean) / (float64(target) * p * (1 - p))
			big++
		}
	}
	ratio /= float64(big)
	t.Logf("chi-square %.1f over %d tuples; variance %.3f of a multinomial's over the %d largest, finite-population factor %.3f", chi, tuples, ratio, big, fpc)
	if chi > chiMax {
		t.Errorf("chi-square %.1f of the per-tuple means against n·mᵢ/N, want below %.1f", chi, chiMax)
	}
	if math.Abs(ratio-fpc) > 0.05 {
		t.Errorf("variances are %.3f of a multinomial's, want the finite-population factor %.3f", ratio, fpc)
	}
	// The covariance is the mean of the seeds' products of deviations; its
	// standard error is theirs over √seeds, and a correct draw lands within
	// four of them of the hypergeometric value but for one run in 15 000.
	a, b := tuples-1, tuples-2
	ma, mb := sum[a]/seeds, sum[b]/seeds
	var cov, covSq float64
	for s := range xs {
		p := (xs[s] - ma) * (ys[s] - mb)
		cov += p / seeds
		covSq += p * p / seeds
	}
	se := math.Sqrt((covSq - cov*cov) / seeds)
	want := -float64(target) * float64(mult[a]) / float64(total) * float64(mult[b]) / float64(total) * float64(total-target) / float64(total-1)
	t.Logf("covariance of the two largest tuples' counts %.2f ± %.2f, hypergeometric %.2f", cov, se, want)
	if 4*se >= math.Abs(want) {
		t.Fatalf("standard error %.2f: %d seeds cannot tell a covariance of %.2f from none", se, seeds, want)
	}
	if math.Abs(cov-want) > 4*se {
		t.Errorf("covariance of the two largest tuples' counts %.2f, want %.2f within 4 standard errors of %.2f", cov, want, se)
	}
}

// TestTupleCombine: Combine over two samples drawn from the distinct tuples
// unions the ranks their filters' sub-rule covers, a rank both drew counted
// once, at inclusion probability 1 − Π(1 − rateᵢ) — reading neither the rows
// nor the distinct table — and its estimate is unbiased over seeds.
func TestTupleCombine(t *testing.T) {
	tab := grid(40000, 4, 4)
	trivial := rule.Trivial(2)
	a, _ := tab.EncodeRule(map[string]string{"A": "a"})           // 10 000 rows
	r, _ := tab.EncodeRule(map[string]string{"A": "a", "B": "A"}) // 2 500 of them
	truth := float64(tab.Count(r))
	sum := 0.0
	const trials = 40
	for seed := int64(1); seed <= trials; seed++ {
		h, _ := tupleHandler(t, tab, 30000, 1000, seed)
		if _, err := h.create(trivial, 20000); err != nil {
			t.Fatal(err)
		}
		if _, err := h.create(a, 4000); err != nil {
			t.Fatal(err)
		}
		before := h.store.Stats()
		v, err := h.GetSample(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Method != Combine || h.store.Stats() != before {
			t.Fatalf("seed %d: served by %s, store %+v after %+v", seed, v.Method, h.store.Stats(), before)
		}
		union := map[int]bool{}
		both := 0
		for _, s := range h.Samples() {
			for _, u := range s.Rows {
				if h.pop.covers(r, u) {
					if union[u] {
						both++
					}
					union[u] = true
				}
			}
		}
		if both == 0 {
			t.Fatalf("seed %d: no rank was drawn by both samples: de-duplication is not exercised", seed)
		}
		if v.Tab.NumTuples() != len(union) || v.Tab.NumRows() != 1 || v.Read() != 1 || !v.Tab.Covers(r, 0) {
			t.Fatalf("seed %d: a union of %d rows in %d tuples (%d copied), want %d in 1", seed, v.Tab.NumTuples(), v.Tab.NumRows(), v.Read(), len(union))
		}
		if want := 1 / (1 - (1-0.5)*(1-0.4)); math.Abs(v.Scale-want) > 1e-12 || v.EstimatedCount != float64(len(union))*v.Scale {
			t.Fatalf("seed %d: scale %v estimating %v, want %v", seed, v.Scale, v.EstimatedCount, want)
		}
		sum += v.EstimatedCount
	}
	if mean := sum / trials; math.Abs(mean-truth)/truth > 0.03 {
		t.Fatalf("mean Combine estimate %g deviates >3%% from %g", mean, truth)
	}
}

// TestTuplePrefetch: Prefetch on a handler drawing from the distinct tuples
// fills every allocated sample from one walk of the distinct table, each
// knowing its filter's exact count, and the next drills avoid Create.
func TestTuplePrefetch(t *testing.T) {
	tab := grid(40000, 4, 4)
	h, d := tupleHandler(t, tab, 20000, 2000, 7)
	root := &TreeNode{Rule: rule.Trivial(2), Count: float64(tab.NumRows())}
	for i := 0; i < 4; i++ {
		r, _ := tab.EncodeRule(map[string]string{"A": string(rune('a' + i))})
		// Estimates, as a sampled session holds them: off by a few percent.
		root.Children = append(root.Children, &TreeNode{Rule: r, Count: 9500 + 300*float64(i)})
	}
	UniformLeafProbs(root)
	alloc, err := h.Prefetch(root)
	if err != nil {
		t.Fatal(err)
	}
	if st := h.store.Stats(); st.FullScans != 0 || st.RowsRead != int64(d.NumRows()) {
		t.Fatalf("prefetch cost %+v, want one walk of the %d distinct tuples and no pass over the rows", st, d.NumRows())
	}
	samples := h.Samples()
	if len(samples) < 4 {
		t.Fatalf("%d samples after prefetch", len(samples))
	}
	for _, s := range samples {
		if want := alloc[s.Filter.Key()]; s.Size() != want || s.ExactCount != tab.Count(s.Filter) {
			t.Fatalf("sample for %v holds %d rows of a count of %d, allocated %d of %d", s.Filter, s.Size(), s.ExactCount, want, tab.Count(s.Filter))
		}
	}
	for _, c := range root.Children {
		v, err := h.GetSample(c.Rule)
		if err != nil {
			t.Fatal(err)
		}
		if v.Method == Create || !v.Tab.Table().Weighted() {
			t.Fatalf("drill on %v served by %s", c.Rule, v.Method)
		}
	}
	if st := h.store.Stats(); st.FullScans != 0 || st.RowsRead != int64(d.NumRows()) {
		t.Fatalf("post-prefetch drills read the store: %+v", st)
	}
}
