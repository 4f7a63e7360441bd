// Every pass the analyzer's table names is declared here but expandParents,
// whose entry is therefore stale.
package brs // want "passFuncs names expandParents, which no function of this package declares"

type runner struct {
	ctxErr error
}

func (rn *runner) canceled() bool       { return rn.ctxErr != nil }
func (rn *runner) countCandidates() int { return 0 }
func (rn *runner) raiseTopW()           {}
func (rn *runner) housekeeping()        {}
func (rn *runner) findBestMarginal()    {}

func (rn *runner) searchPolledMethod() {
	for i := 0; i < 10; i++ {
		rn.countCandidates()
		if rn.canceled() {
			return
		}
		rn.raiseTopW()
	}
}

func (rn *runner) searchPolledField() int {
	total := 0
	for i := 0; i < 10; i++ {
		total += rn.countCandidates()
		if rn.ctxErr != nil {
			break
		}
	}
	return total
}

func (rn *runner) searchUnpolled() {
	for i := 0; i < 10; i++ { // want "loop drives counting passes but never polls cancellation"
		rn.countCandidates()
		rn.raiseTopW()
	}
}

func (rn *runner) idleLoop() {
	for i := 0; i < 10; i++ { // no counting passes: polling not required
		rn.housekeeping()
	}
}

// drain runs the tail passes after the search has already ended; there is
// no caller left to cancel for.
//
//sdlint:allow ctxflow teardown loop after the search result is sealed; nothing upstream is waiting
func (rn *runner) drain() {
	for i := 0; i < 2; i++ {
		rn.raiseTopW()
	}
}
