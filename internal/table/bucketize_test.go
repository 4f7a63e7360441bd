package table

import (
	"testing"
)

func TestBucketizeEquiWidth(t *testing.T) {
	vals := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	got, labels, err := Bucketize(vals, 4, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
	if got[0] != labels[0] {
		t.Errorf("min lands in first bucket, got %q", got[0])
	}
	if got[len(got)-1] != labels[3] {
		t.Errorf("max lands in last bucket, got %q", got[len(got)-1])
	}
	// Every assignment is one of the declared labels.
	valid := map[string]bool{}
	for _, l := range labels {
		valid[l] = true
	}
	for i, g := range got {
		if !valid[g] {
			t.Errorf("value %g assigned unknown label %q", vals[i], g)
		}
	}
}

func TestBucketizeEquiDepth(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i * i) // skewed
	}
	got, labels, err := Bucketize(vals, 5, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) == 0 || len(labels) > 5 {
		t.Fatalf("labels = %v", labels)
	}
	counts := map[string]int{}
	for _, g := range got {
		counts[g]++
	}
	// Equi-depth: no bucket should hold more than ~2x its fair share.
	fair := len(vals) / len(labels)
	for l, c := range counts {
		if c > 2*fair+1 {
			t.Errorf("bucket %q holds %d values; fair share is %d", l, c, fair)
		}
	}
}

func TestBucketizeEdgeCases(t *testing.T) {
	if _, _, err := Bucketize([]float64{1, 2}, 0, EquiWidth); err == nil {
		t.Error("0 buckets should fail")
	}
	if got, labels, err := Bucketize(nil, 3, EquiWidth); err != nil || got != nil || labels != nil {
		t.Error("empty input should return empty output")
	}
	// All-identical values collapse to a single bucket.
	got, labels, err := Bucketize([]float64{7, 7, 7}, 4, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 {
		t.Fatalf("constant column labels = %v", labels)
	}
	for _, g := range got {
		if g != labels[0] {
			t.Fatalf("constant column assignment %q", g)
		}
	}
	if _, _, err := Bucketize([]float64{1}, 2, BucketScheme(99)); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestBucketizeBoundaryMembership(t *testing.T) {
	// Equi-width over [0,100] with 2 buckets: boundary value 50 belongs to
	// the upper bucket; 100 (the max) stays in the last bucket.
	vals := []float64{0, 50, 100}
	got, labels, err := Bucketize(vals, 2, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != labels[1] {
		t.Errorf("boundary 50 should fall in upper bucket, got %q (labels %v)", got[1], labels)
	}
	if got[2] != labels[1] {
		t.Errorf("max should stay in last bucket, got %q", got[2])
	}
}
