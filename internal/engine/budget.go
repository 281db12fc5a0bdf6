package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Resource-governed evaluation. A query's plans can materialize
// intermediate results far larger than either the input or the answer
// (a mis-ordered join, a cross product from a disconnected plan), and
// one such query can take down a shared server by exhausting memory.
// Options.MaxIntermediateRows caps the total number of intermediate
// rows one evaluation may materialize; the cap is checked cooperatively
// in the same hot loops that poll for cancellation, and unwinds through
// the existing panic channel so operator code stays free of error
// plumbing. TrapCancel hands the typed ErrBudget back to the caller.

// ErrBudget is returned (wrapped) when an evaluation exceeds its
// intermediate row budget. Callers classify it with errors.Is.
var ErrBudget = errors.New("engine: intermediate row budget exceeded")

// rowBudget tracks intermediate rows materialized by one evaluation.
// A batch's evaluators may share one budget through its BatchMemo and
// run concurrently, so the counter is atomic; a nil budget is unlimited
// and costs one nil check per charge site.
type rowBudget struct {
	limit int64
	used  atomic.Int64
}

// newRowBudget returns a budget of limit rows, or nil (unlimited) when
// limit <= 0.
func newRowBudget(limit int) *rowBudget {
	if limit <= 0 {
		return nil
	}
	return &rowBudget{limit: int64(limit)}
}

// charge accounts n freshly materialized rows, unwinding with a typed
// budget error once the total exceeds the limit. The check is
// cooperative: concurrent evaluators sharing a budget may overshoot by
// at most one in-flight charge each before the first panic propagates.
func (b *rowBudget) charge(n int) {
	if b == nil || n == 0 {
		return
	}
	if b.used.Add(int64(n)) > b.limit {
		panic(evalCancelled{fmt.Errorf("%w: limit %d rows", ErrBudget, b.limit)})
	}
}
