package plan

// SetVisitHook installs f to see every node the DAG walk visits, so the
// external tests can count visits; nil removes it.
func SetVisitHook(f func(Node)) { visitHook = f }

// TreeSize returns the number of nodes of the tree the plan unfolds to:
// a node shared by several parent slots counts once under each. It is
// the exponential number a DAG avoids, computed over the distinct nodes.
func TreeSize(n Node) int {
	size := map[ID]int{}
	for _, u := range Distinct(n) {
		s := 1
		for _, c := range u.Node.Children() {
			s += size[c.ID()]
		}
		size[u.Node.ID()] = s
	}
	return size[n.ID()]
}
