// Package fixture seeds cancellation violations: goroutines whose
// blocking channel operations have no escape hatch (no select arm on a
// done/closed channel, no default, no buffered destination), next to
// every justified spawn shape the rule must accept.
package fixture

func use(v int) { _ = v }

// spawnBad launches two undrainable goroutines: an inline receive and a
// transitive one through a same-package helper. 2 findings.
func spawnBad(ch chan int) {
	go func() {
		use(<-ch) // bare receive, nothing ever closes ch
	}()
	go bareRecvLoop(ch) // transitive: the helper ranges over ch
}

func bareRecvLoop(ch chan int) {
	for v := range ch {
		use(v)
	}
}

// spawnSend launches a goroutine that blocks forever if the consumer
// goes away first. 1 finding.
func spawnSend(ch chan int) {
	go func() {
		ch <- 1 // unbuffered send with no select
	}()
}

// selectDone is the engine's shutdown idiom: every blocking op sits in
// a select with a chan struct{} cancellation arm. Clean.
func selectDone(ch chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case v := <-ch:
				use(v)
			case <-done:
				return
			}
		}
	}()
}

// buffered allocates its own buffered channel: sends and receives on it
// cannot wedge the goroutine past the buffer. Clean.
func buffered() {
	go func() {
		buf := make(chan int, 8)
		buf <- 1
		use(<-buf)
	}()
}

// spawnClosed drains a channel the spawner provably closes: receiving
// from a closed channel terminates the range. Clean.
func spawnClosed(vals []int) {
	work := make(chan int)
	go func() {
		for v := range work {
			use(v)
		}
	}()
	for _, v := range vals {
		work <- v
	}
	close(work)
}

// selectDefault never blocks at all. Clean.
func selectDefault(ch chan int) {
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

// bareRecv is never spawned: the rule judges goroutines, not ordinary
// calls, so this body alone produces nothing.
func bareRecv(ch chan int) {
	use(<-ch)
}

// genericRun is the columnar engine's shape: goroutines are methods of
// a generic type spawned through an instantiation, channels its fields.
// Both must resolve to their declarations: drain is clean because feed
// closes the field it ranges over, the wedge receive is 1 finding.
type genericRun[V any] struct {
	chans []chan V
	wedge chan V
}

func (r *genericRun[V]) feed() {
	defer close(r.chans[0])
	<-r.wedge // bare receive, nothing ever closes wedge
}

func (r *genericRun[V]) drain() {
	for range r.chans[0] {
	}
}

func spawnGeneric[V any](r *genericRun[V]) {
	go r.feed()
	go r.drain()
}
