// Package oracle exposes the engine's retained row-at-a-time reference
// evaluator for differential testing.
//
// The production executor (internal/engine eval.go, stream.go) is
// columnar and vectorized; the oracle preserves the original per-tuple
// operators (internal/engine oracle.go). Both must produce bit-identical
// Results and identical typed errors on every workload — the test suites
// under the repository root and internal/engine evaluate each workload
// through both and compare byte-for-byte.
//
// This package is test-only: nothing in the production server or public
// lapushdb API imports it, and `make deps` checks that lapushd links
// neither it nor the reference operators.
package oracle

import (
	"lapushdb/internal/cq"
	"lapushdb/internal/engine"
	"lapushdb/internal/plan"
)

// EvalPlans evaluates plans through the row-at-a-time reference
// executor. Semantics otherwise match engine.EvalPlansCtx.
func EvalPlans(db *engine.DB, q *cq.Query, plans []plan.Node, o engine.Options) *engine.Result {
	return engine.EvalPlansOracle(nil, db, q, plans, o)
}
