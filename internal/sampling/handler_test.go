package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"smartdrill/internal/datagen"
	"smartdrill/internal/rule"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
)

// grid builds a 2-column table: colA cycles over aVals values, colB over
// bVals, giving every (a,b) combination n/(aVals*bVals) rows.
func grid(n, aVals, bVals int) *table.Table {
	b := table.MustBuilder([]string{"A", "B"}, nil)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{
			string(rune('a' + i%aVals)),
			string(rune('A' + (i/aVals)%bVals)),
		})
	}
	return b.Build()
}

func TestNewHandlerValidation(t *testing.T) {
	store := storage.NewStore(grid(100, 2, 2))
	if _, err := NewHandler(store, 100, 0, nil); err == nil {
		t.Error("minSS=0 must fail")
	}
	if _, err := NewHandler(store, 10, 100, nil); err == nil {
		t.Error("M < minSS must fail")
	}
	if _, err := NewHandler(store, 100, 50, nil); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCascadeCreateThenFind(t *testing.T) {
	tab := grid(10000, 4, 4)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 5000, 500, NewTestRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	trivial := rule.Trivial(2)

	v1, err := h.GetSample(trivial)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Method != Create {
		t.Fatalf("first access = %v, want Create", v1.Method)
	}
	if v1.Tab.NumRows() < 500 {
		t.Fatalf("sample too small: %d", v1.Tab.NumRows())
	}
	v2, err := h.GetSample(trivial)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Method != Find {
		t.Fatalf("second access = %v, want Find", v2.Method)
	}
	if scans := store.Stats().FullScans; scans != 1 {
		t.Fatalf("Find must not rescan: %d scans", scans)
	}
	finds, _, creates := h.Stats()
	if finds != 1 || creates != 1 {
		t.Fatalf("stats finds=%d creates=%d", finds, creates)
	}
}

func TestCombineFromTrivialSample(t *testing.T) {
	// A large sample of the whole table can serve a drill-down on a rule
	// covering 1/4 of it without a new scan.
	tab := grid(40000, 4, 4)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 20000, 1000, NewTestRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	trivial := rule.Trivial(2)
	if _, err := h.GetSample(trivial); err != nil {
		t.Fatal(err)
	}
	// Force the trivial sample big enough: re-create at target M.
	if _, err := h.create(trivial, 20000); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()

	sub, _ := tab.EncodeRule(map[string]string{"A": "a"}) // covers 10000 rows
	v, err := h.GetSample(sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != Combine {
		t.Fatalf("access = %v, want Combine", v.Method)
	}
	if store.Stats().FullScans != 0 {
		t.Fatal("Combine must not scan")
	}
	// Estimate accuracy: true count is 10000; the combined sample's scaled
	// estimate should be within a few percent (it is a ~5000-row sample).
	if math.Abs(v.EstimatedCount-10000) > 600 {
		t.Fatalf("Combine estimate %g too far from 10000", v.EstimatedCount)
	}
	// Every view tuple must be covered by the request.
	for i := 0; i < v.Tab.NumRows(); i++ {
		if !v.Tab.Covers(sub, i) {
			t.Fatal("combined view contains uncovered tuple")
		}
	}
}

func TestCombineScaleExactForFullSample(t *testing.T) {
	// When a resident sample holds the *entire* table (rate 1), combining
	// for any sub-rule is exhaustive and exact.
	tab := grid(2000, 2, 2)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 4000, 100, NewTestRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.create(rule.Trivial(2), 4000); err != nil {
		t.Fatal(err)
	}
	sub, _ := tab.EncodeRule(map[string]string{"A": "a", "B": "A"})
	v, err := h.GetSample(sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Scale != 1 {
		t.Fatalf("scale = %g, want 1 for exhaustive combine", v.Scale)
	}
	if int(v.EstimatedCount) != tab.Count(sub) {
		t.Fatalf("estimate %g != exact %d", v.EstimatedCount, tab.Count(sub))
	}
}

func TestCreateWhenCombineInsufficient(t *testing.T) {
	// A tiny resident sample cannot serve a selective rule; the handler
	// must fall back to Create.
	tab := grid(50000, 10, 10)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 10000, 2000, NewTestRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.GetSample(rule.Trivial(2)); err != nil {
		t.Fatal(err)
	}
	sub, _ := tab.EncodeRule(map[string]string{"A": "a"}) // 5000 rows; ~200 in a 2000-sample
	v, err := h.GetSample(sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != Create {
		t.Fatalf("access = %v, want Create", v.Method)
	}
	if v.Tab.NumRows() < 2000 {
		t.Fatalf("created sample too small: %d", v.Tab.NumRows())
	}
}

func TestMemoryBudgetAndEviction(t *testing.T) {
	tab := grid(100000, 10, 10)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 3000, 1000, NewTestRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	// Create samples for several disjoint rules; the budget (3 samples)
	// must force eviction of the least recently used.
	for _, val := range []string{"a", "b", "c", "d", "e"} {
		r, _ := tab.EncodeRule(map[string]string{"A": val})
		if _, err := h.GetSample(r); err != nil {
			t.Fatal(err)
		}
		if used := h.MemoryUsed(); used > 3000 {
			t.Fatalf("memory used %d exceeds budget 3000", used)
		}
	}
	if got := len(h.Samples()); got > 3 {
		t.Fatalf("%d samples resident, budget allows 3", got)
	}
	// The most recent rule must still be resident (LRU evicts old ones).
	rE, _ := tab.EncodeRule(map[string]string{"A": "e"})
	store.ResetStats()
	v, err := h.GetSample(rE)
	if err != nil {
		t.Fatal(err)
	}
	if v.Method != Find || store.Stats().FullScans != 0 {
		t.Fatalf("most recent sample should be served by Find, got %v", v.Method)
	}
}

// TestEvictionFollowsRecency: the budget evicts the least recently used
// sample, not the oldest. Three samples fill it; a Find of the first one
// created touches it, so the next Create evicts the second, and the first is
// served by Find again.
func TestEvictionFollowsRecency(t *testing.T) {
	tab := grid(100000, 10, 10)
	store := storage.NewStore(tab)
	h, err := NewHandler(store, 3000, 1000, NewTestRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]rule.Rule{}
	for _, val := range []string{"a", "b", "c", "d"} {
		rules[val], _ = tab.EncodeRule(map[string]string{"A": val})
	}
	serve := func(val string, want Method) {
		t.Helper()
		v, err := h.GetSample(rules[val])
		if err != nil {
			t.Fatal(err)
		}
		if v.Method != want {
			t.Fatalf("A=%s served by %v, want %v", val, v.Method, want)
		}
	}
	serve("a", Create)
	serve("b", Create)
	serve("c", Create)
	serve("a", Find) // a is now the most recently used; b the least
	serve("d", Create)
	if _, ok := h.samples.Peek(rules["b"].Key()); ok {
		t.Fatal("A=b, the least recently used sample, survived the Create")
	}
	for _, val := range []string{"a", "c", "d"} {
		if _, ok := h.samples.Peek(rules[val].Key()); !ok {
			t.Fatalf("A=%s was evicted in place of the least recently used", val)
		}
	}
	serve("a", Find)
}

func TestCombineEstimateUnbiased(t *testing.T) {
	// Average the Combine estimate over many RNG seeds; the mean must be
	// close to the true count (uniformity of the deduplicated union).
	tab := grid(20000, 4, 4)
	truth := 5000.0
	sub, _ := tab.EncodeRule(map[string]string{"A": "a"})
	sum := 0.0
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		store := storage.NewStore(tab)
		h, err := NewHandler(store, 8000, 500, NewTestRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.create(rule.Trivial(2), 4000); err != nil {
			t.Fatal(err)
		}
		v, err := h.GetSample(sub)
		if err != nil {
			t.Fatal(err)
		}
		if v.Method != Combine {
			t.Fatalf("seed %d: method %v", seed, v.Method)
		}
		sum += v.EstimatedCount
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.03 {
		t.Fatalf("mean Combine estimate %g deviates >3%% from %g", mean, truth)
	}
}

// TestCombineIgnoresMapOrder: Combine visits the resident samples in
// filter-key order, so one seed gives one estimate and one eviction order
// whatever order the samples map hands them out in. Three sub-rule samples
// of 900, 429 and 611 of their 3 000 covered rows make Π(1 − rateᵢ) round
// differently in different orders: over 200 fresh handlers the scale must
// keep one bit pattern, and the contributors must be touched in key order.
func TestCombineIgnoresMapOrder(t *testing.T) {
	b := table.MustBuilder([]string{"A", "B", "C"}, nil)
	for i := 0; i < 2000; i++ {
		b.MustAddRow([]string{"a", "b", "c"})
	}
	for i := 0; i < 1000; i++ {
		b.MustAddRow([]string{"a", "y", "z"})
		b.MustAddRow([]string{"x", "b", "z"})
		b.MustAddRow([]string{"x", "y", "c"})
	}
	tab := b.Build()
	encode := func(cells map[string]string) rule.Rule {
		r, err := tab.EncodeRule(cells)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	filters := []rule.Rule{encode(map[string]string{"A": "a"}), encode(map[string]string{"B": "b"}), encode(map[string]string{"C": "c"})}
	sizes := []int{900, 429, 611}
	r := encode(map[string]string{"A": "a", "B": "b", "C": "c"})
	patterns := map[uint64]int{}
	for i := 0; i < 200; i++ {
		h, err := NewHandler(storage.NewStore(tab), 3000, 100, NewTestRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for k, f := range filters {
			if _, err := h.create(f, sizes[k]); err != nil {
				t.Fatal(err)
			}
		}
		v, err := h.GetSample(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Method != Combine {
			t.Fatalf("served by %s, want Combine", v.Method)
		}
		patterns[math.Float64bits(v.Scale)]++
		samples, recent := h.Samples(), h.samples.Values() // recent: most recently used first
		for k := 1; k < len(samples); k++ {
			if recent[len(recent)-1-k] != samples[k] {
				t.Fatalf("handler %d: Combine touched %v before %v", i, samples[k].Filter, samples[k-1].Filter)
			}
		}
	}
	if len(patterns) != 1 {
		t.Fatalf("200 handlers on one seed gave %d scale bit patterns: %v", len(patterns), patterns)
	}
}

// TestPropertyResidentSamples holds the handler to what a budget trim used to
// stand for, over random GetSample and Prefetch sequences in both serving
// forms (tuples, plain rows): after every call the
// resident samples fit the budget; each one's Rows are strictly ascending,
// covered by its filter and exactly the units it was drawn with; and a
// re-serve of what was just served from a resident sample is a Find of the
// same Tab, read for nothing.
func TestPropertyResidentSamples(t *testing.T) {
	tab := datagen.CensusProjected(20000, 6, 5)
	d := tab.Distinct(new(table.Tally))
	if d == nil {
		t.Fatal("census does not compress")
	}
	cols := tab.NumCols()
	randomRule := func(rng *rand.Rand) rule.Rule {
		r := rule.Trivial(cols)
		for n := rng.Intn(3); n > 0; n-- {
			c := rng.Intn(cols)
			r[c] = rule.Value(rng.Intn(tab.DistinctCount(c)))
		}
		return r
	}
	const m, minSS = 6000, 400
	for _, mode := range []struct {
		name     string
		grouping func() *table.Table
	}{
		{"tuples", func() *table.Table { return d }},
		{"plain rows", func() *table.Table { return nil }},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			label := fmt.Sprintf("%s seed %d", mode.name, seed)
			rng := rand.New(rand.NewSource(seed))
			h, err := NewHandler(storage.NewStore(tab), m, minSS, NewTestRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			h.ServeGrouped(mode.grouping)
			drawn := map[*Sample][]int{}
			check := func(step string) {
				t.Helper()
				if used := h.MemoryUsed(); used > m {
					t.Fatalf("%s %s: %d units resident, budget %d", label, step, used, m)
				}
				for _, s := range h.Samples() {
					rows, seen := drawn[s]
					if !seen {
						rows = slices.Clone(s.Rows)
						drawn[s] = rows
					}
					if !slices.Equal(s.Rows, rows) {
						t.Fatalf("%s %s: the sample for %v changed since it was drawn", label, step, s.Filter)
					}
					for i, u := range s.Rows {
						if i > 0 && u <= s.Rows[i-1] {
							t.Fatalf("%s %s: the sample for %v is not strictly ascending at %d", label, step, s.Filter, i)
						}
						if !h.pop.covers(s.Filter, u) {
							t.Fatalf("%s %s: %v does not cover unit %d of its sample", label, step, s.Filter, u)
						}
					}
				}
			}
			for op := 0; op < 40; op++ {
				if rng.Intn(4) == 0 {
					root := &TreeNode{Rule: rule.Trivial(cols), Count: float64(tab.NumRows())}
					for c := 1 + rng.Intn(4); c > 0; c-- {
						r := randomRule(rng)
						root.Children = append(root.Children, &TreeNode{Rule: r, Count: float64(tab.Count(r))})
					}
					UniformLeafProbs(root)
					if _, err := h.Prefetch(root); err != nil {
						t.Fatal(err)
					}
					check("after a prefetch")
					continue
				}
				// Half the drills go below a resident sample, as a session's do.
				r := randomRule(rng)
				if samples := h.Samples(); len(samples) > 0 && rng.Intn(2) == 0 {
					c := rng.Intn(cols)
					r = samples[rng.Intn(len(samples))].Filter.With(c, rule.Value(rng.Intn(tab.DistinctCount(c))))
				}
				v, err := h.GetSample(r)
				if err != nil {
					t.Fatal(err)
				}
				check("after " + v.Method.String())
				if v.Method == Combine {
					continue
				}
				again, err := h.GetSample(r)
				if err != nil {
					t.Fatal(err)
				}
				if again.Method != Find || again.Tab != v.Tab || again.Read() != 0 {
					t.Fatalf("%s: a re-serve of %v after %s was a %s, same Tab %v, %d rows read", label, r, v.Method, again.Method, again.Tab == v.Tab, again.Read())
				}
				check("after a re-serve")
			}
			f, c, cr := h.Stats()
			t.Logf("%s: %d finds, %d combines, %d creates, %d samples drawn", label, f, c, cr, len(drawn))
		}
	}
}
