// Fixture: violations only name resolution finds — a renamed and a
// dot import of time, and a panic whose message is a package-level
// constant. Seeded violations for the determinism and panicprefix rules.
package recovery

import (
	. "time"
	wall "time"
)

const negative = "negative epoch"

func stamp(epoch int) wall.Duration {
	if epoch < 0 {
		panic(negative) // want panicprefix
	}
	start := wall.Now() // want determinism
	return Since(start) // want determinism
}
