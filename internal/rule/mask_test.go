package rule

import "testing"

func TestMaskSetHas(t *testing.T) {
	var m Mask
	for _, c := range []int{0, 63, 64, 127} {
		m.Set(c)
		if !m.Has(c) {
			t.Errorf("Has(%d) false after Set", c)
		}
	}
	if m.Has(1) || m.Has(65) {
		t.Error("Has true for a column never set")
	}
	if got := m.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
}

func TestMaskColumnsRoundTrip(t *testing.T) {
	cols := []int{3, 17, 64, 90, 127}
	m := MaskOf(cols...)
	got := m.Columns()
	if len(got) != len(cols) {
		t.Fatalf("Columns = %v, want %v", got, cols)
	}
	for i := range cols {
		if got[i] != cols[i] {
			t.Fatalf("Columns = %v, want %v", got, cols)
		}
	}
}
