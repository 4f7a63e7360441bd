package table

// Meter is the ledger a kernel books its reads into before it returns: rows
// visited, posting entries read and packed bitset words read. Every kernel
// of this package that reads table data takes the caller's meter, so a read
// cannot be made without naming where it is booked. The search's counters
// (brs.Stats) and the store's (storage.Store) are meters.
type Meter interface {
	Book(rows, entries, words int64)
}

// Tally is a Meter that keeps the three counts, for a caller that books a
// read somewhere of its own after it is made, and for tests.
type Tally struct {
	Rows, Entries, Words int64
}

// Book adds to the tally.
func (t *Tally) Book(rows, entries, words int64) {
	t.Rows += rows
	t.Entries += entries
	t.Words += words
}
