package engine

import "context"

// Cancellation support. The evaluator's hot loops poll a context every
// cancelCheckInterval iterations; on cancellation they unwind the
// recursive evaluation with a typed panic that TrapCancel converts back
// into the context's error at the call boundary. This keeps the operator
// code free of error plumbing while giving requests a bounded
// cancellation latency (one poll interval of row-level work).

// cancelCheckInterval is how many row-level operations may pass between
// two context polls. Polling is a single atomic load inside ctx.Err, so
// the interval trades cancellation latency against per-row overhead.
const cancelCheckInterval = 4096

// evalCancelled carries a context error out of the evaluation stack.
type evalCancelled struct{ err error }

// canceller polls a context cheaply inside hot loops. The zero value
// (nil context) never cancels, so uncancellable callers pay one nil
// check per poll site.
type canceller struct {
	ctx context.Context
	n   int
}

// check panics with evalCancelled when the context is done. Call it
// once per row-level unit of work.
func (c *canceller) check() {
	if c == nil || c.ctx == nil {
		return
	}
	c.n++
	if c.n%cancelCheckInterval != 0 {
		return
	}
	if err := c.ctx.Err(); err != nil {
		panic(evalCancelled{err})
	}
}

// checkNow polls the context unconditionally (for loop entry points and
// per-answer boundaries where work between polls can be large).
func (c *canceller) checkNow() {
	if c == nil || c.ctx == nil {
		return
	}
	if err := c.ctx.Err(); err != nil {
		panic(evalCancelled{err})
	}
}

// TrapCancel runs f and converts a cancellation panic raised by a
// context-bound evaluator back into that context's error. All other
// panics propagate unchanged.
func TrapCancel(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(evalCancelled); ok {
				err = c.err
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}
