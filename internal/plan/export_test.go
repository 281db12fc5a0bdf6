package plan

// SetVisitHook installs f to see every node the DAG walk visits, so the
// external tests can count visits; nil removes it.
func SetVisitHook(f func(Node)) { visitHook = f }
