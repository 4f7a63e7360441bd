// Package drill mirrors the session's one sampled-coverage path: the drill
// whose serve built a sample's view books the rows that serve read.
package drill

import "sampling"

type Stats struct {
	RowsScanned        int64
	SampledRowsScanned int64
}

type Session struct{ unbooked Stats }

func (s *Session) coveredView(v *sampling.View) {
	if read := v.Read(); read > 0 {
		s.unbooked.RowsScanned += int64(read)
		s.unbooked.SampledRowsScanned += int64(read)
	}
}

// coveredViewUnbooked is the acceptance scenario: the booking lines were
// deleted, so the grouping or copy the serve read goes unreported.
func (s *Session) coveredViewUnbooked(v *sampling.View) int {
	return v.Read() // want "sampling.View.Read reads rows but this function never adds to Stats.RowsScanned"
}
