package engine

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// Evaluation scratch. Every operator's buffers — selection vectors, id
// and score columns, group tables, join tables, grouping codes, the
// reduction's live sets and bitset — have a size known when they are
// made and a lifetime that ends inside one evaluation. An arena keeps
// them for the next one: free lists of each buffer type in power-of-two
// capacity classes, taken by an operator when it starts and given back
// when the buffer is dead. Evaluators draw arenas from one package pool,
// as the exact kernel pools its kernels, so a warm evaluation allocates
// little beyond its Result headers.
//
// Ownership (DESIGN.md, "Evaluation scratch"): an operator gives back
// its own scratch before it returns; a program gives back a step's
// Result once the last step that reads it has run (program.go); and a
// Result that leaves the engine, or enters a BatchMemo, is detached and
// never goes back. A nil arena allocates with make and takes nothing
// back.
// Under the race detector every buffer given back is poisoned (all bits
// set: ids index out of range, scores read NaN) and one given back twice
// panics, so a use after release shows in the differential suites.

// arenaClasses bounds the capacity classes kept: class c holds buffers
// whose capacity lies in [2^c, 2^(c+1)). Larger buffers are not kept.
const arenaClasses = 31

// arenaMaxBytes bounds the scratch an arena keeps when its evaluator
// releases it: an arena holding more is left to the collector, so one
// outsized evaluation does not pin its buffers. The largest arena the
// benchmark suite releases holds 4.2 MB (mixed_rw), the chain gate's
// all-plans evaluation 22.9 MB (both measured in EXPERIMENTS.md); the
// cap keeps both warm.
const arenaMaxBytes = 32 << 20

type freeList[T any] [arenaClasses][][]T

// arena is one evaluation's scratch allocator. It is not safe for
// concurrent use: one evaluator, on one goroutine, holds it at a time.
type arena struct {
	i32   freeList[int32]
	f64   freeList[float64]
	slots freeList[groupSlot]
	cells freeList[groupCell]
	u64   freeList[uint64]
	held  int     // bytes the free lists hold
	prog  program // the program scratch of the evaluator holding the arena
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// getArena takes an arena from the pool; putArena returns one, unless it
// has grown past arenaMaxBytes.
func getArena() *arena { return arenas.Get().(*arena) }

func putArena(a *arena) {
	if a.held <= arenaMaxBytes {
		arenas.Put(a)
	}
}

// take returns a buffer of length n from the free list — the smallest
// with room for n in class ⌊log₂ n⌋, else the smallest of the class
// above — or a fresh make. Its contents are whatever the last user left.
func take[T any](fl *freeList[T], held *int, n int) []T {
	if n == 0 {
		return make([]T, 0)
	}
	for c := bits.Len(uint(n)) - 1; c < arenaClasses && c <= bits.Len(uint(n)); c++ {
		l := fl[c]
		best := -1
		for i, s := range l {
			if cap(s) >= n && (best < 0 || cap(s) < cap(l[best])) {
				best = i
			}
		}
		if best >= 0 {
			s := l[best]
			l[best] = l[len(l)-1]
			l[len(l)-1] = nil
			fl[c] = l[:len(l)-1]
			*held -= cap(s) * int(unsafe.Sizeof(s[0]))
			return s[:n]
		}
	}
	return make([]T, n)
}

// give puts s back on its class's free list. s must be dead: nothing may
// read or write it after this call.
func give[T any](fl *freeList[T], held *int, s []T) {
	c := bits.Len(uint(cap(s))) - 1
	if c < 0 || c >= arenaClasses {
		return
	}
	s = s[:cap(s)]
	size := int(unsafe.Sizeof(s[0]))
	if raceEnabled {
		for _, t := range fl[c] {
			if unsafe.SliceData(t) == unsafe.SliceData(s) {
				panic(fmt.Sprintf("engine: arena buffer of %d elements given back twice", cap(s)))
			}
		}
		poison := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*size)
		for i := range poison {
			poison[i] = 0xff
		}
	}
	fl[c] = append(fl[c], s)
	*held += cap(s) * size
}

// The typed accessors below are safe on a nil arena, which allocates
// with make and keeps nothing. Buffers a caller relies on being zero
// (group slots, direct-address cells, counting-sort offsets, bitsets)
// come from the zeroing forms or are cleared by the caller.

func (a *arena) int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return take(&a.i32, &a.held, n)
}

func (a *arena) putInt32s(s []int32) {
	if a != nil {
		give(&a.i32, &a.held, s)
	}
}

func (a *arena) float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return take(&a.f64, &a.held, n)
}

func (a *arena) putFloat64s(s []float64) {
	if a != nil {
		give(&a.f64, &a.held, s)
	}
}

func (a *arena) zeroSlots(n int) []groupSlot {
	if a == nil {
		return make([]groupSlot, n)
	}
	s := take(&a.slots, &a.held, n)
	clear(s)
	return s
}

func (a *arena) putSlots(s []groupSlot) {
	if a != nil {
		give(&a.slots, &a.held, s)
	}
}

func (a *arena) zeroCells(n int) []groupCell {
	if a == nil {
		return make([]groupCell, n)
	}
	s := take(&a.cells, &a.held, n)
	clear(s)
	return s
}

func (a *arena) putCells(s []groupCell) {
	if a != nil {
		give(&a.cells, &a.held, s)
	}
}

func (a *arena) uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return take(&a.u64, &a.held, n)
}

func (a *arena) putUint64s(s []uint64) {
	if a != nil {
		give(&a.u64, &a.held, s)
	}
}

// putResult gives back r's columns, unless r is held by a BatchMemo.
// r must not be read again.
func (a *arena) putResult(r *Result) {
	if a == nil || r == nil || r.shared {
		return
	}
	for _, col := range r.ids {
		a.putInt32s(col)
	}
	a.putFloat64s(r.scores)
}

// reserveRows makes room for n more rows in every column of r.
func (a *arena) reserveRows(r *Result, n int) {
	for k := range r.ids {
		r.ids[k] = a.reserveInt32s(r.ids[k], n)
	}
	r.scores = a.reserveFloat64s(r.scores, n)
}

// reserveInt32s returns s with room for n more elements, moved to a
// buffer of at least twice its capacity when it has none; the old buffer
// goes back. The capacity is clamped to what was asked for, so columns
// grown together stay in step.
func (a *arena) reserveInt32s(s []int32, n int) []int32 {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(2*cap(s), len(s)+n, 16)
	t := a.int32s(c)[:len(s):c]
	copy(t, s)
	a.putInt32s(s)
	return t
}

func (a *arena) reserveFloat64s(s []float64, n int) []float64 {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(2*cap(s), len(s)+n, 16)
	t := a.float64s(c)[:len(s):c]
	copy(t, s)
	a.putFloat64s(s)
	return t
}
