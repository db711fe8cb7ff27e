//go:build go1.23

package sim

import "iter"

// start makes body p's coroutine (iter.Pull): the dispatching loop resumes
// it with p.next, which returns the kind of trap the body yielded with, or
// false once the body has returned; a slow-path trap hands control back
// with p.yield, which reports false once the engine has stopped the
// coroutine; p.stop unwinds a suspended (or never started) body. Each
// switch is a direct runtime coroutine switch, so no trap goes through the
// Go scheduler.
//
// The abortRun sentinel that unwinds a stopped body is recovered here; any
// other panic propagates to the caller of next, that is, to Run.
func (p *Proc) start(body func(p *Proc)) {
	p.done = false
	p.next, p.stop = iter.Pull(func(yield func(yieldKind) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, ok := r.(abortRun); !ok {
					panic(r)
				}
			}
		}()
		body(p)
	})
}
