//go:build race

package optiflow_test

// The race runtime allocates per goroutine, which a columnar superstep
// starts several of, so byte ceilings are only checked without it.
func init() { raceEnabled = true }
