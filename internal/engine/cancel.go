package engine

import "context"

// Cancellation support. The evaluator's hot loops poll a context every
// cancelCheckInterval iterations; on cancellation they unwind the
// evaluation with a typed panic that TrapCancel converts back
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
	n   uint // row-level operations counted; unsigned, so n/cancelCheckInterval is a shift
}

// check counts one row-level unit of work, panicking with
// evalCancelled when a poll finds the context done.
func (c *canceller) check() { c.advance(1) }

// advance counts n row-level operations at once — a probe row and its
// whole match span — and polls when the count crosses a multiple of
// cancelCheckInterval, so polls keep pace with the join rows a probe
// emits, not with the probe rows it reads.
func (c *canceller) advance(n int) {
	if c == nil || c.ctx == nil {
		return
	}
	prev := c.n
	c.n += uint(n)
	if prev/cancelCheckInterval == c.n/cancelCheckInterval {
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
