package engine

import (
	"lapushdb/internal/cq"
	"lapushdb/internal/plan"
)

// Fused streaming Project(Join): the most allocation-heavy shape in the
// paper's dissociation plans is a duplicate-eliminating projection
// directly over a (possibly k-ary) join, whose output is often orders of
// magnitude larger than both its inputs and the projected result. This
// file evaluates that shape without ever materializing the final join:
// the last binary join's probe streams its matches, in probe order,
// through a re-chunking assembler that runs the projection's grouping
// kernel every morselSize rows.
//
// Bit-identity argument: a materialized evaluation would chunk the
// join's output array at absolute boundaries 0, morselSize,
// 2·morselSize, …; the accumulator flushes at exactly those same row
// counts, and rows arrive in the order a sequential probe would emit
// them. Each flushed chunk therefore holds exactly the rows of the
// corresponding materialized chunk, the chunk-local complement products
// multiply 1 − s in the same row order, and partials fold in the same
// chunk order — so every output bit matches the materialized evaluation
// (and the oracle's). Only the kept columns are ever gathered; columns
// the projection drops never exist.

// canStream reports whether the fused streaming Project(Join) path
// applies to the given join subtree: a real (k >= 2) join with no
// already-cached result for the subtree (reuse must win over
// recomputation).
func (e *Evaluator) canStream(jn *plan.Join) bool {
	if len(jn.Subs) < 2 {
		return false
	}
	if e.cache != nil {
		if _, ok := e.cache[jn.ID()]; ok {
			return false
		}
	}
	return true
}

// streamProjectJoin evaluates Project(Join) with the final binary join
// streamed into the projection. All join inputs and every fold except
// the last are materialized as usual (fold ordering inspects
// materialized sizes); only the last join's output — the largest
// intermediate — streams.
func (e *Evaluator) streamProjectJoin(jn *plan.Join, onto []cq.Var) *Result {
	subs := make([]*Result, len(jn.Subs))
	for i, c := range jn.Subs {
		subs[i] = e.Eval(c)
	}
	ex := &e.exec
	order := greedyJoinOrder(subs)
	cur := subs[order[0]]
	for _, i := range order[1 : len(order)-1] {
		cur = join(cur, subs[i], ex)
	}
	return streamJoinProject(cur, subs[order[len(order)-1]], onto, ex)
}

// streamJoinProject computes project(join(l, r), onto) with the join
// output streamed: probe matches feed the projection accumulator
// (projAccum) in the exact order a materialized join would store them,
// and the accumulator folds grouping chunks at the exact morsel
// boundaries the materialized projection would use.
func streamJoinProject(l, r *Result, onto []cq.Var, ex *exec) *Result {
	jl := makeJoinLayout(l, r)
	ka := len(onto)
	// Source column of each kept projection column within the join.
	srcBuild := make([]bool, ka)
	srcIDs := make([][]int32, ka)
	for k, v := range onto {
		oi := colIndex(jl.outCols, v)
		side := jl.probe
		if jl.fromBuild[oi] {
			side = jl.build
		}
		srcBuild[k] = jl.fromBuild[oi]
		srcIDs[k] = side.ids[jl.pos[oi]]
	}
	jt := buildJoinTable(jl.build, jl.buildPos, ex)
	np := jl.probe.Len()
	probeKeys := make([][]int32, len(jl.probePos))
	for k, j := range jl.probePos {
		probeKeys[k] = jl.probe.ids[j]
	}
	sg := newColSigner(probeKeys)
	wide := sg.wide()
	c := ex.canc()
	pa := newProjAccum(onto, l.dict, min(jl.probe.Len()+jl.build.Len(), projAccumHint), ex)
	bscores, pscores := jl.build.scores, jl.probe.scores
	pending := 0 // join rows found since the last budget charge
	for i := 0; i < np; i++ {
		c.check()
		var key []int32
		if wide {
			key = sg.keyAt(i)
		}
		st, n := jt.lookupSpan(sg.sig(i), key)
		pending += int(n)
		if (i+1)%morselSize == 0 || i == np-1 {
			// Charge at probe-chunk boundaries — the same batch granularity
			// (and identical totals) as the materialized join's first pass.
			ex.charge(pending)
			pending = 0
		}
		if n == 0 {
			continue
		}
		s := pscores[i]
		for k := 0; k < ka; k++ {
			if !srcBuild[k] {
				pa.key[k] = srcIDs[k][i]
			}
		}
		for j := int32(0); j < n; j++ {
			ri := jt.rows[st+j]
			for k := 0; k < ka; k++ {
				if srcBuild[k] {
					pa.key[k] = srcIDs[k][ri]
				}
			}
			pa.add(s * bscores[ri])
		}
	}
	return pa.finish()
}
