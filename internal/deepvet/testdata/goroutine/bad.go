// Fixture: `go` statements in a package outside the spawn packages.
// Seeded violations for the goroutine rule.
package iterate

func spawn(fn func()) {
	go fn() // want goroutine
	done := make(chan struct{})
	go func() { // want goroutine
		close(done)
	}()
	<-done
}
