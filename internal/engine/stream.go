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
// intermediate — streams. It also reports whether the projection
// addressed its groups directly. Each intermediate join is given back
// once consumed, and the inputs once the projection is done.
func (e *Evaluator) streamProjectJoin(jn *plan.Join, onto []cq.Var) (*Result, bool) {
	subs := make([]*Result, len(jn.Subs))
	for i, c := range jn.Subs {
		subs[i] = e.eval(c)
	}
	ex := &e.exec
	order := greedyJoinOrder(subs)
	cur := subs[order[0]]
	for k, i := range order[1 : len(order)-1] {
		next := join(cur, subs[i], ex)
		if k > 0 {
			ex.ar.putResult(cur)
		}
		cur = next
	}
	out, direct := streamJoinProject(cur, subs[order[len(order)-1]], onto, ex)
	if len(order) > 2 {
		ex.ar.putResult(cur)
	}
	for _, r := range subs {
		e.drop(r)
	}
	return out, direct
}

// Direct-addressed grouping. A join row's projection key is its probe
// row's share of the key columns joined with its build row's share.
// Numbering each side's distinct shares — codes pc and bc, in
// first-appearance order, code 0 for a side with no key column — puts
// the row's group in cell pc·nbc + bc of a dense table, with no hash and
// no probe sequence. The table costs two int32s per cell (the group and
// its chunk slot, as in groupSlot) and the codes one pass over each
// input, so it pays only when many join rows share few groups: when
// each build key matches at least directMinFanout rows on average (a
// lower fan-out streams too few join rows per input row), and the table
// has at most directCellsPerRow cells per input row. Otherwise groups
// are hashed. Either way groups are numbered in first-appearance order
// and fold through the same accumulate step, so the choice moves no
// output bit.
const (
	directMinFanout   = 4
	directCellsPerRow = 2
	// codeTableHint seeds a side's code table: room for a few hundred codes
	// (a key share is usually a column or two of few values) in 8 KiB,
	// grown on demand past that.
	codeTableHint = 256
)

// directCodes returns the codes and the number of codes on each side
// when the join qualifies for direct-addressed grouping, or nil codes
// when it does not: pc per probe row, bc per entry of jt.rows (the
// build rows in the order the probe reads their spans), both from the
// arena. keyCols[k] is the id column of projection column k, on the
// build side iff fromBuild[k].
func directCodes(jl *joinLayout, jt *joinTable, fromBuild []bool, keyCols [][]int32, ex *exec) (pc, bc []int32, npc, nbc int) {
	np, nb := jl.probe.Len(), jl.build.Len()
	if keys := jt.g.size(); np == 0 || keys == 0 || nb < directMinFanout*keys {
		return nil, nil, 0, 0
	}
	var pcols, bcols [][]int32
	for k, col := range keyCols {
		if fromBuild[k] {
			bcols = append(bcols, col)
		} else {
			pcols = append(pcols, col)
		}
	}
	// A side with no key column interns every row as the empty key: one
	// code, 0.
	limit := directCellsPerRow * (np + nb)
	bc, bg := internRows(bcols, jt.rows, nb, limit, min(nb, limit, codeTableHint), ex)
	if bg == nil {
		return nil, nil, 0, 0
	}
	nbc = bg.size()
	bg.release()
	limit /= nbc
	pc, pg := internRows(pcols, nil, np, limit, min(np, limit, codeTableHint), ex)
	if pg == nil {
		ex.arena().putInt32s(bc)
		return nil, nil, 0, 0
	}
	npc = pg.size()
	pg.release()
	return pc, bc, npc, nbc
}

// streamJoinProject computes project(join(l, r), onto) with the join
// output streamed: probe matches feed the projection accumulator
// (projAccum) in the exact order a materialized join would store them,
// and the accumulator folds grouping chunks at the exact morsel
// boundaries the materialized projection would use. It also reports
// whether the groups were addressed directly (see directCodes).
func streamJoinProject(l, r *Result, onto []cq.Var, ex *exec) (*Result, bool) {
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
	pc, bc, npc, nbc := directCodes(&jl, jt, srcBuild, srcIDs, ex)
	direct := pc != nil
	pa := newProjAccum(onto, l.dict, min(np+jl.build.Len(), projAccumHint), npc*nbc, ex)
	bscores, pscores := jl.build.scores, jl.probe.scores
	pending := 0 // join rows found since the last budget charge
	for i := 0; i < np; i++ {
		var key []int32
		if wide {
			key = sg.keyAt(i)
		}
		st, n := jt.lookupSpan(sg.sig(i), key)
		c.advance(1 + int(n))
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
		if direct {
			base := pc[i] * int32(nbc)
			for p := st; p < st+n; p++ {
				ri := jt.rows[p]
				g := &pa.cells[base+bc[p]]
				if g.ref == 0 { // a new group: gather its build-side key ids
					for k := 0; k < ka; k++ {
						if srcBuild[k] {
							pa.key[k] = srcIDs[k][ri]
						}
					}
					pa.newGroup()
					g.ref = int32(len(pa.out.scores))
				}
				pa.accum(g.ref-1, &g.aux, s*bscores[ri])
			}
			continue
		}
		for j := int32(0); j < n; j++ {
			ri := jt.rows[st+j]
			for k := 0; k < ka; k++ {
				if srcBuild[k] {
					pa.key[k] = srcIDs[k][ri]
				}
			}
			g, fresh := pa.g.internSlot(keySig(pa.key), pa.key)
			if fresh {
				pa.newGroup()
			}
			pa.accum(g.ref-1, &g.aux, s*bscores[ri])
		}
	}
	ar := ex.arena()
	ar.putInt32s(pc)
	ar.putInt32s(bc)
	jt.release(ar)
	return pa.finish(), direct
}
