// A package under internal/brs declares none of the passes the analyzer's
// table names, and that is no stale entry: the table is the runner's.
package brsref

func count(n int) int { return n }

func search() int {
	total := 0
	for i := 0; i < 10; i++ { // no pass of the runner's table: polling not required
		total += count(i)
	}
	return total
}
