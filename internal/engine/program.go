package engine

import (
	"slices"
	"time"

	"lapushdb/internal/plan"
)

// A plan runs as a program: its nodes, children first in plan.Distinct's
// order, lowered to steps that one loop runs into a slot each. A slot's
// Result goes back to the arena once its last reader has run. Lowering
// keeps three rules:
//   - A k ≥ 2 Join whose parents are all Projects gets no slot: each of
//     them runs it as stream.go's fused π(⋈) over the join's inputs. Any
//     other Join is a step, and a Project over it reads it through
//     project, with the same bits (stream.go).
//   - With Opt2 (Options.ReuseSubplans) on, a node is one step however
//     many parents hold it, so a view (Algorithm 3) runs once. Off, each
//     occurrence in the unfolded tree is a step of its own.
//   - A BatchMemo is consulted per step. A step's result is
//     detached as it enters the memo and never goes back to the arena.

// step is one operator of a program.
type step struct {
	node  plan.Node
	in    []int32 // the steps it reads; a fused π(⋈) reads its join's inputs
	reads int32   // reads of its result by later steps
	other int32   // of those, by a parent that is not a Project (lowering only)
	fused bool    // a Project running its Join child as the fused π(⋈)
	inner bool    // a Join run inside its Project parents: no slot
}

// program is a lowered plan and its run's scratch. An arena keeps one
// for its next evaluator, so a warm run allocates none of it.
type program struct {
	steps []step
	ins   []int32           // the steps' input lists
	at    map[plan.ID]int32 // node id -> its step
	slots []*Result         // per step: its result, until its last reader has run
	args  []*Result         // the inputs of the step being computed
}

// lower turns p into the evaluator's program, with every slot empty.
func (e *Evaluator) lower(p plan.Node) []step {
	pg := e.prog
	pg.steps, pg.ins = pg.steps[:0], pg.ins[:0]
	if pg.at == nil {
		pg.at = map[plan.ID]int32{}
	}
	clear(pg.at)
	e.lowerNode(p)
	// Fuse each Join read by Projects only into them, and count the reads
	// the run will make.
	prog := pg.steps
	for i := range prog {
		s := &prog[i]
		switch n := s.node.(type) {
		case *plan.Join:
			s.inner = s.reads > 0 && s.other == 0 && len(n.Subs) >= 2
		case *plan.Project:
			if c := &prog[s.in[0]]; c.inner {
				s.in, s.fused = c.in, true
			}
		}
		s.reads = 0
		if !s.inner {
			for _, j := range s.in {
				prog[j].reads++
			}
		}
	}
	pg.slots = slices.Grow(pg.slots[:0], len(prog))[:len(prog)]
	clear(pg.slots)
	return prog
}

// lowerNode appends n's step after its children's and returns its index.
func (e *Evaluator) lowerNode(n plan.Node) int32 {
	pg := e.prog
	if i, ok := pg.at[n.ID()]; ok && e.opts.ReuseSubplans {
		return i
	}
	_, project := n.(*plan.Project)
	var buf [8]int32
	in := buf[:0]
	for _, c := range n.Children() {
		j := e.lowerNode(c)
		pg.steps[j].reads++
		if !project {
			pg.steps[j].other++
		}
		in = append(in, j)
	}
	lo := len(pg.ins)
	pg.ins = append(pg.ins, in...)
	i := int32(len(pg.steps))
	pg.steps = append(pg.steps, step{node: n, in: pg.ins[lo:len(pg.ins):len(pg.ins)]})
	pg.at[n.ID()] = i
	return i
}

// run executes a lowered program, skipping steps whose slot is already
// filled, and returns the last step's result, which is the caller's.
// With prof non-nil it appends one NodeStat per step it runs.
func (e *Evaluator) run(prog []step, prof *[]NodeStat) *Result {
	slots, memo := e.prog.slots, e.opts.Memo
	for i := range prog {
		s := &prog[i]
		if s.inner || slots[i] != nil {
			continue
		}
		e.cancel.checkNow()
		start, direct := time.Now(), false
		if memo != nil {
			slots[i] = memo.getOrCompute(e.memoKey(s.node), func() (out *Result) {
				out, direct = e.compute(s)
				out = e.detach(out)
				out.shared = true
				return out
			})
		} else {
			slots[i], direct = e.compute(s)
		}
		if prof != nil {
			*prof = append(*prof, NodeStat{Node: s.node, Rows: slots[i].Len(), Time: time.Since(start), Fused: s.fused, Direct: direct})
		}
		for _, j := range s.in {
			if prog[j].reads--; prog[j].reads == 0 {
				e.drop(slots[j])
				slots[j] = nil
			}
		}
	}
	out := slots[len(slots)-1]
	slots[len(slots)-1] = nil
	return out
}

// compute runs one step over its inputs' slots. It also reports whether
// a fused π(⋈) addressed its groups directly.
func (e *Evaluator) compute(s *step) (*Result, bool) {
	pg := e.prog
	args := pg.args[:0]
	for _, j := range s.in {
		args = append(args, pg.slots[j])
	}
	pg.args = args
	switch t := s.node.(type) {
	case *plan.Scan:
		out, _ := e.scan(t, nil)
		return out, false
	case *plan.Project:
		if s.fused {
			return streamProjectJoin(args, t.OnTo, &e.exec)
		}
		return project(args[0], t.OnTo, &e.exec), false
	case *plan.Join:
		return foldJoin(args, &e.exec, join), false
	case *plan.Min:
		fold := newMinFold(args[0], &e.exec)
		for _, r := range args[1:] {
			fold.merge(r)
		}
		return fold.finish(), false
	default:
		panic("engine: unknown plan node")
	}
}

// evalPlan lowers p and runs it; the result is the caller's.
func (e *Evaluator) evalPlan(p plan.Node, prof *[]NodeStat) *Result {
	return e.run(e.lower(p), prof)
}
