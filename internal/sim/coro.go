//go:build go1.23

package sim

import "iter"

// The kernel uses each body's coroutine as a baton. Exactly one goroutine is
// parked on a coroutine at a time, and a switch on it — iter.Pull's next or
// yield, called from whichever goroutine is running — parks the caller there
// and resumes the goroutine that was parked. That is the one property the
// kernel relies on: next and yield switch on the coroutine from whichever
// goroutine calls them, as long as the two alternate on it. So a body hands
// off by switching on the coroutine its successor's goroutine is parked on,
// one switch per handoff, and no trap goes through the Go scheduler.

// start makes p's coroutine, which runs body. Its goroutine starts parked on
// it.
func (p *Proc) start(body func(p *Proc)) {
	p.done = false
	p.pulled = false
	p.at = p
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(body)
	})
}

// switchOn parks the running goroutine on c's coroutine, recording that in
// *at, and resumes the goroutine that was parked there. It reports true
// when a later switch on that coroutine resumes the caller, and false when
// the coroutine's body returns instead: its exit wakes the caller.
func switchOn(at **Proc, c *Proc) bool {
	*at = c
	if c.pulled = !c.pulled; c.pulled {
		_, ok := c.next()
		return ok
	}
	return c.yield(struct{}{})
}

// run is p's coroutine: it runs body and settles how the body ended. It
// recovers every panic, because the coroutine's exit wakes whichever
// goroutine is parked on it, which may be another body's, and next would
// re-raise the panic there.
func (p *Proc) run(body func(p *Proc)) {
	e := p.eng
	returned := false
	defer func() {
		r := recover()
		p.done = true
		goexit := r == nil && !returned
		switch {
		case e.aborting:
			// Unwound by the teardown. A panic the body's defers raised
			// while unwinding is dropped: the run already fails.
			e.mDrains.Inc()
		case goexit:
			e.aborting = true
		case r != nil:
			e.failure, e.aborting = r, true
		default:
			e.finish = max(e.finish, p.clock)
			e.remaining--
		}
		if goexit {
			e.hold(p)
		}
	}()
	if !e.aborting { // else the teardown reached a body that never started
		body(p)
	}
	returned = true
}

// hold keeps p's goroutine, which is ending by runtime.Goexit, from ending
// until the teardown has unwound every other body. Nothing stops a Goexit,
// and once the goroutine ends, next would re-raise it in whichever
// goroutine is parked on p's coroutine. So the goroutine parks on its own
// coroutine, handing control to the goroutine parked there, and waits for
// the teardown's release (Engine.teardown). Released, it resumes the body
// that reached hold before it, if any, and parks on that body's coroutine:
// the goroutines end in the order they reached hold, each woken by the
// previous one's end, so only the last one's end reaches Run's caller.
func (e *Engine) hold(p *Proc) {
	e.exiting = append(e.exiting, p)
	before := len(e.exiting) - 2
	switchOn(&p.at, p)
	if before >= 0 {
		switchOn(&p.at, e.exiting[before])
	}
}
