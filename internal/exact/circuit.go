package exact

import (
	"fmt"

	"lapushdb/internal/lineage"
)

// Circuit is an arithmetic circuit compiled from a monotone DNF by the
// solver's trace — the knowledge-compilation view of exact inference
// (the FO-d-DNNF circuits of Van den Broeck et al. that the paper's
// related work connects to safe plans). Compiling once and re-evaluating
// under different probability vectors is linear in the circuit size,
// which pays off when the same lineage is scored repeatedly (e.g. the
// probability-scaling experiments of Figures 5n–5p).
//
// Node kinds mirror the solver's decomposition steps: independent-OR
// for component splits, products for clauses, and Shannon gates for
// variable conditioning. Memoized subformulas become shared nodes, so
// the circuit is a DAG.
type Circuit struct {
	nodes []cnode
	// root is the index of the output node.
	root int32
}

type ckind uint8

const (
	cConst ckind = iota
	cVar
	cProduct // ∏ children (independent AND)
	cIndepOr // 1 − ∏ (1 − child) (independent OR)
	cShannon // p(v)·hi + (1 − p(v))·lo
)

type cnode struct {
	kind     ckind
	v        int32 // cVar / cShannon variable
	val      float64
	children []int32 // cProduct / cIndepOr; for cShannon: [hi, lo]
}

// Size returns the number of circuit nodes.
func (c *Circuit) Size() int { return len(c.nodes) }

// Eval computes the circuit's probability under the given variable
// probabilities, in one bottom-up pass.
func (c *Circuit) Eval(probs []float64) float64 {
	vals := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		switch n.kind {
		case cConst:
			vals[i] = n.val
		case cVar:
			vals[i] = probs[n.v]
		case cProduct:
			p := 1.0
			for _, ch := range n.children {
				p *= vals[ch]
			}
			vals[i] = p
		case cIndepOr:
			miss := 1.0
			for _, ch := range n.children {
				miss *= 1 - vals[ch]
			}
			vals[i] = 1 - miss
		case cShannon:
			pv := probs[n.v]
			vals[i] = pv*vals[n.children[0]] + (1-pv)*vals[n.children[1]]
		}
	}
	return vals[c.root]
}

// Compile builds a circuit for the monotone DNF within the given node
// budget; ErrBudget when exceeded. It is ProbBudget's walk emitting a
// node where ProbBudget folds a number (a read-once lineage's
// factorization tree maps directly onto gates), so the circuit's Eval
// agrees with ProbBudget bit for bit under every probability vector.
func Compile(clauses [][]int32, budget int) (*Circuit, error) {
	c := &Circuit{}
	k := kernels.Get().(*kernel)
	r, ok := k.run(clauses, nil, c, budget)
	k.release()
	if !ok {
		return nil, ErrBudget
	}
	c.root = r.id
	return c, nil
}

func (c *Circuit) add(n cnode) int32 {
	c.nodes = append(c.nodes, n)
	return int32(len(c.nodes) - 1)
}

func (c *Circuit) fromTree(t *lineage.Tree) int32 {
	switch t.Kind {
	case lineage.TreeVar:
		return c.add(cnode{kind: cVar, v: t.Var})
	case lineage.TreeTrue:
		return c.add(cnode{kind: cConst, val: 1})
	case lineage.TreeFalse:
		return c.add(cnode{kind: cConst, val: 0})
	case lineage.TreeAnd, lineage.TreeOr:
		children := make([]int32, len(t.Children))
		for i, ch := range t.Children {
			children[i] = c.fromTree(ch)
		}
		kind := cProduct
		if t.Kind == lineage.TreeOr {
			kind = cIndepOr
		}
		return c.add(cnode{kind: kind, children: children})
	default:
		panic(fmt.Sprintf("exact: unknown tree kind %d", t.Kind))
	}
}
