package plan

import (
	"slices"
	"strings"
)

// A node's key is the concatenation of its pieces, in order: text, or a
// child whose whole key is spliced in.
//
//	Scan     R(x, 'a')[x <= 3]          one piece, built with the scan
//	Project  "π{x,y}(", child, ")"
//	Join     "⋈[", c1, ", ", c2, …, "]"
//	Min      "min[", c1, ", ", c2, …, "]"
//
// piece is the one definition of that grammar: writeKey renders with it
// and compareKeys reads two keys through it, so the order it yields is
// the order of the rendered keys by construction.

// piece returns the i-th piece of n's key: text, or a child; ok is false
// past the last piece.
func piece(n Node, i int) (text string, child Node, ok bool) {
	switch t := n.(type) {
	case *Scan:
		if i == 0 {
			return t.text, nil, true
		}
	case *Project:
		switch i {
		case 0:
			return t.prefix, nil, true
		case 1:
			return "", t.Child, true
		case 2:
			return ")", nil, true
		}
	case *Join:
		return listPiece("⋈[", t.Subs, i)
	case *Min:
		return listPiece("min[", t.Subs, i)
	}
	return "", nil, false
}

func listPiece(open string, subs []Node, i int) (string, Node, bool) {
	switch {
	case i == 0:
		return open, nil, true
	case i == 2*len(subs):
		return "]", nil, true
	case i > 2*len(subs):
		return "", nil, false
	case i%2 == 1:
		return "", subs[i/2], true
	default:
		return ", ", nil, true
	}
}

// writeKey renders n's key, reusing any key already rendered beneath it
// but remembering none: only the node Key is called on keeps its text.
func writeKey(b *strings.Builder, n Node) {
	if k := n.meta().key.Load(); k != nil {
		b.WriteString(*k)
		return
	}
	for i := 0; ; i++ {
		text, child, ok := piece(n, i)
		switch {
		case !ok:
			return
		case child != nil:
			writeKey(b, child)
		default:
			b.WriteString(text)
		}
	}
}

// keyCursor reads a key piece by piece without rendering it: the unread
// text of the current piece, or a subplan whose key comes next, and the
// frames of the subplans being read. The frames are a slice of their
// own, passed beside the cursor and returned advanced, so that they can
// live in a caller's stack array.
type keyCursor struct {
	text string
	node Node
}

type keyFrame struct {
	n Node
	i int // next piece
}

// fill advances c until it holds unread text or a subplan to enter; ok
// is false at the end of the key.
func (c keyCursor) fill(stack []keyFrame) (_ keyCursor, _ []keyFrame, ok bool) {
	for c.text == "" && c.node == nil {
		if len(stack) == 0 {
			return c, stack, false
		}
		f := &stack[len(stack)-1]
		text, child, ok := piece(f.n, f.i)
		if !ok {
			stack = stack[:len(stack)-1]
			continue
		}
		f.i++
		c.text, c.node = text, child
	}
	return c, stack, true
}

// enter starts reading the pending subplan's key: whole when it is
// already rendered, piece by piece otherwise.
func (c keyCursor) enter(stack []keyFrame) (keyCursor, []keyFrame) {
	if k := c.node.meta().key.Load(); k != nil {
		c.text = *k
	} else {
		stack = append(stack, keyFrame{n: c.node})
	}
	c.node = nil
	return c, stack
}

// compareKeys orders two plans exactly as strings.Compare orders their keys,
// without rendering them: it reads both keys piece by piece and stops at
// the first differing byte. Where both keys reach a subplan at the same
// offset and the subplans' ids match, it skips both, since equal ids
// render equal text.
func compareKeys(a, b Node) int {
	if a.ID() == b.ID() {
		return 0
	}
	var bufA, bufB [16]keyFrame // most keys nest less deeply: no allocation
	sa, sb := bufA[:0], bufB[:0]
	ca, cb := keyCursor{node: a}, keyCursor{node: b}
	for {
		var okA, okB bool
		ca, sa, okA = ca.fill(sa)
		cb, sb, okB = cb.fill(sb)
		switch {
		case !okA && !okB:
			return 0
		case !okA:
			return -1
		case !okB:
			return 1
		case ca.node != nil && cb.node != nil && ca.node.ID() == cb.node.ID():
			ca.node, cb.node = nil, nil
		case ca.node != nil:
			ca, sa = ca.enter(sa)
		case cb.node != nil:
			cb, sb = cb.enter(sb)
		default:
			k := min(len(ca.text), len(cb.text))
			if c := strings.Compare(ca.text[:k], cb.text[:k]); c != 0 {
				return c
			}
			ca.text, cb.text = ca.text[k:], cb.text[k:]
		}
	}
}

// SortByKey sorts plans into the order of their keys (see compareKeys).
func SortByKey(ns []Node) { slices.SortFunc(ns, compareKeys) }
