package brs

import (
	"encoding/binary"
	"math"
	"testing"

	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// fuzzCase is one search decoded from fuzz bytes: five header bytes, then
// rows of one byte per column (its low two bits pick one of four values)
// followed by the row's mass as eight little-endian float64 bytes.
//
//	[0] columns 2..5      [1] bit 0 Sum, bit 1 Bits weights, bit 2 index routes off (every
//	                          pass scans), bit 3 masses truncated to integers below 1024,
//	                          bit 4 under Count, search the table's distinct tuples
//	                          (where it has few enough), each weighing its multiplicity
//	[2] base: 0 trivial, else column (b−1) mod columns at its first row's value
//	[3] mw = MaxWeight(1 + b mod columns)      [4] K = 1 + b mod 5
type fuzzCase struct {
	tab  *table.Table
	rows *table.Table // when tab is a distinct-tuple table: the table it was built from
	w    weight.Weighter
	opts Options // K, MaxWeight, Base, Agg
	scan bool    // search with indexRoutes off: every pass scans
	// orderFree: every accumulator holds integers, so a sum depends neither
	// on the order rows are added in nor on the order workers merge in.
	orderFree bool
}

const fuzzHeader, fuzzMaxRows = 5, 64

func decodeFuzzCase(data []byte) (fuzzCase, bool) {
	if len(data) < fuzzHeader {
		return fuzzCase{}, false
	}
	cols := 2 + int(data[0])%4
	rowBytes := cols + 8
	n := (len(data) - fuzzHeader) / rowBytes
	if n == 0 {
		return fuzzCase{}, false
	}
	if n > fuzzMaxRows {
		n = fuzzMaxRows
	}
	names := make([]string, cols)
	for c := range names {
		names[c] = string(rune('A' + c))
	}
	b := table.MustBuilder(names, []string{"M"})
	row := make([]string, cols)
	integral := true
	for i := 0; i < n; i++ {
		rec := data[fuzzHeader+i*rowBytes:]
		for c := range row {
			row[c] = string(rune('a' + rec[c]&3))
		}
		// One non-negative finite measure, small enough that integral
		// masses sum exactly.
		mass := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(rec[cols:])))
		if math.IsNaN(mass) || mass > 1e6 {
			mass = 1
		}
		if data[1]&8 != 0 {
			mass = math.Trunc(math.Mod(mass, 1024))
		}
		integral = integral && mass == math.Trunc(mass)
		b.MustAddRow(row, mass)
	}
	fc := fuzzCase{tab: b.Build(), scan: data[1]&4 != 0}
	fc.w = weight.NewSize(cols)
	if data[1]&2 != 0 {
		fc.w = weight.BitsFor(fc.tab) // integral weights, like Size
	}
	fc.opts = Options{K: 1 + int(data[4])%5, MaxWeight: fc.w.MaxWeight(1 + int(data[3])%cols), Base: rule.Trivial(cols)}
	fc.orderFree = true
	if data[1]&1 != 0 {
		fc.opts.Agg = score.SumAgg{Measure: 0}
		fc.orderFree = integral
	}
	if data[2] != 0 {
		fc.opts.Base = fc.opts.Base.With((int(data[2])-1)%cols, 0)
	}
	if data[1]&16 != 0 && fc.opts.Agg == nil {
		if d := fc.tab.Distinct(new(table.Tally)); d != nil {
			fc.tab, fc.rows = d, fc.tab
		}
	}
	return fc, true
}

// encodeFuzzCase is decodeFuzzCase's inverse for a table of letter cells,
// used to write seeds.
func encodeFuzzCase(header [fuzzHeader]byte, rows []string, masses []float64) []byte {
	out := append([]byte{}, header[:]...)
	for i, r := range rows {
		for _, cell := range []byte(r) {
			out = append(out, cell-'a')
		}
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(masses[i]))
	}
	return out
}

// FuzzFastMatchesReference fuzzes the pruning, not a kernel: on any small
// table, aggregate, weighter, base, mw and K every greedy step of the fast
// path and of brsref, the literal Algorithms 1–2, must attain the
// brute-force maximum marginal value, as in TestGreedyStepIsArgmax, both
// outputs must have the list properties brsref.CheckList checks, and
// wherever sums are exact — Count, or Sum over integral masses — the fast
// path must stream exactly brsref's rules, counts and marginal counts,
// serially and with two workers. A bound that gates a walk, a merge or a
// refresh it should not have loses a step here.
//
// Under Sum over fractional masses only the maximum is required, not the
// same rule: a parent's bound and its child's marginal can be one number
// summed in two orders, one ulp apart, and where the child ties the step's
// maximum the fast path — whose H opens at the refreshed maximum, where
// brsref's is still climbing through the levels — prunes it and takes the
// other rule of the tie. Seed sum-fractional-tie-last-ulp is that case; it
// predates the bound-before-walk gate, which prunes exactly what the
// per-child test pruned.
func FuzzFastMatchesReference(f *testing.F) {
	// Count, Size, trivial base, no weight cap: a twin-column table.
	f.Add(encodeFuzzCase([fuzzHeader]byte{1, 0, 0, 2, 4},
		[]string{"aaa", "aaa", "abb", "bcc", "bcc", "bcc", "cda"}, []float64{1, 1, 1, 1, 1, 1, 1}))
	// Sum with integral masses under Bits, base on the last column, scanned.
	f.Add(encodeFuzzCase([fuzzHeader]byte{0, 7, 2, 1, 2},
		[]string{"ab", "ab", "ba", "bb", "cb", "ca", "ab"}, []float64{3, 0, 5, 2, 2, 7, 1}))
	// Count over the distinct tuples of a table that repeats three of them:
	// multiplicities 9, 6 and 1, a base, two rules wanted beyond the first.
	f.Add(encodeFuzzCase([fuzzHeader]byte{1, 16, 1, 2, 2},
		[]string{"aab", "aab", "abc", "aab", "abc", "aab", "aab", "abc", "aab", "aab", "abc", "aab", "abc", "abc", "aab", "bca"},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, ok := decodeFuzzCase(data)
		if !ok {
			t.Skip()
		}
		tab, w, opts := fc.tab, fc.w, fc.opts
		v := viewOf(t, tab, fc.scan)
		want := oracleStream(v, w, opts, opts.K)
		requireGreedyArgmax(t, "brsref", tab, w, opts, opts.K, want)
		requireList(t, "brsref", w, oracleRun(v, w, opts), want)
		if fc.rows != nil {
			sameResults(t, "brsref over the rows", oracleStream(fc.rows.All(), w, opts, opts.K), want)
		}
		opts.Workers = 1
		got := stream(t, v, w, opts, opts.K)
		ranked, _, err := Run(v, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireList(t, "workers=1", w, ranked, got)
		if !fc.orderFree {
			requireGreedyArgmax(t, "workers=1", tab, w, opts, opts.K, got)
			return
		}
		sameResults(t, "workers=1", got, want)
		opts.Workers = 2
		sameResults(t, "workers=2", stream(t, v, w, opts, opts.K), want)
	})
}
