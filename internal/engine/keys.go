package engine

import "encoding/binary"

// Interned join/project keys. A composite key is the tuple of dense
// value ids ([]int32, see DB.noteValue) at the key columns. Keys of
// arity <= 2 pack exactly into one uint64 — a collision-free signature —
// and wider keys fall back to a 64-bit hash with full-key comparison on
// signature collisions.
//
// groupTable is an open-addressing (linear probing) table rather than a
// Go map: the columnar operators intern one key per input row, which
// made map access the dominant cost of project/join under profiling.
// Open addressing with power-of-two sizing keeps the probe sequence in
// one cache line for most lookups. Each table is pre-sized from its
// operator's input: a join build or min fold from the row count it
// interns, a projection from its input's row count capped at
// projAccumHint. Any table grows on demand past its hint.

// packKey packs an arity <= 2 key of dense ids into a collision-free
// uint64.
func packKey(key []int32) uint64 {
	switch len(key) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(key[0]))
	default:
		return uint64(uint32(key[0]))<<32 | uint64(uint32(key[1]))
	}
}

// mix64 is the murmur3 finalizer: a cheap bijective scrambler used both
// to hash wide keys and to spread packed keys across table slots.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey32 hashes a wide ([]int32, arity >= 3) key.
func hashKey32(key []int32) uint64 {
	h := uint64(len(key)) + 0x9e3779b97f4a7c15
	for _, v := range key {
		h = mix64(h ^ uint64(uint32(v)))
	}
	return h
}

// keySig returns the packed key (arity <= 2, exact) or the hash (wider,
// needs comparison) — the signature group tables intern and look up by.
func keySig(key []int32) uint64 {
	if len(key) <= 2 {
		return packKey(key)
	}
	return hashKey32(key)
}

// colSigner computes row signatures directly from parallel id columns —
// the columnar counterpart of keySig(gather(row)), producing identical
// signatures without materializing the key tuple.
type colSigner struct {
	cols [][]int32
	key  []int32 // scratch for wide keys
}

func newColSigner(cols [][]int32) *colSigner {
	return &colSigner{cols: cols, key: make([]int32, len(cols))}
}

func (s *colSigner) sig(i int) uint64 {
	switch len(s.cols) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(s.cols[0][i]))
	case 2:
		return uint64(uint32(s.cols[0][i]))<<32 | uint64(uint32(s.cols[1][i]))
	default:
		h := uint64(len(s.cols)) + 0x9e3779b97f4a7c15
		for _, c := range s.cols {
			h = mix64(h ^ uint64(uint32(c[i])))
		}
		return h
	}
}

// keyAt gathers row i's key into the signer's scratch buffer. Only
// needed for wide (arity >= 3) keys, where tables compare full keys.
func (s *colSigner) keyAt(i int) []int32 {
	for k, c := range s.cols {
		s.key[k] = c[i]
	}
	return s.key
}

// wide reports whether intern/lookup calls need the full key (arity >=
// 3); exact tables never dereference it.
func (s *colSigner) wide() bool { return len(s.cols) > 2 }

// internRows interns the keys of n rows over parallel id columns —
// row order[i] i-th, or row i when order is nil — into a new group
// table pre-sized for sizeHint keys, and returns each row's group id
// with the table, both from the arena. Past limit groups it gives up and
// returns nil.
func internRows(cols [][]int32, order []int32, n, limit, sizeHint int, ex *exec) ([]int32, *groupTable) {
	ar := ex.arena()
	g := newGroupTable(ar, len(cols), sizeHint)
	gids := ar.int32s(n)
	sg := newColSigner(cols)
	wide := sg.wide()
	c := ex.canc()
	for i := 0; i < n; i++ {
		c.check()
		row := i
		if order != nil {
			row = int(order[i])
		}
		var key []int32
		if wide {
			key = sg.keyAt(row)
		}
		gids[i], _ = g.internSig(sg.sig(row), key)
		if g.size() > limit {
			ar.putInt32s(gids)
			g.release()
			return nil, nil
		}
	}
	return gids, g
}

// groupSlot is one open-addressing slot: the key signature and the
// group id + 1 (0 = empty), interleaved so a probe touches exactly one
// cache location instead of chasing slot -> gid -> signature through
// two arrays. The aux field rides in the struct's alignment padding
// (12 bytes round up to 16 either way) and gives operators a free
// per-group scratch word in the cache line the probe already loaded;
// grow copies slots wholesale, so aux survives rehashing.
type groupSlot struct {
	sig uint64
	ref int32 // gid + 1, 0 = empty
	aux int32 // operator scratch (e.g. projAccum's chunk-local slot)
}

// groupTable maps composite keys to dense group ids 0..n-1 assigned in
// first-appearance order — the deterministic property every operator's
// output ordering rests on. Open addressing, linear probing, grown at
// ~80% load.
type groupTable struct {
	arity int
	exact bool // arity <= 2: sig is the packed key, no compare needed
	slots []groupSlot
	mask  uint64
	n     int     // groups interned
	keys  []int32 // flattened interned keys, arity per group (wide only)
	ar    *arena  // where slots come from and go back to
}

// newGroupTable returns an empty table with room for sizeHint groups,
// its slots taken from ar.
func newGroupTable(ar *arena, arity, sizeHint int) *groupTable {
	cap := 8
	for cap*4 < sizeHint*5 { // hold sizeHint groups below 80% load
		cap *= 2
	}
	return &groupTable{
		arity: arity,
		exact: arity <= 2,
		slots: ar.zeroSlots(cap),
		mask:  uint64(cap - 1),
		ar:    ar,
	}
}

// release gives the table's slots and keys back to its arena. The table
// must not be used again. A nil table releases nothing.
func (g *groupTable) release() {
	if g == nil {
		return
	}
	g.ar.putSlots(g.slots)
	g.ar.putInt32s(g.keys)
	g.slots, g.keys = nil, nil
}

func (g *groupTable) size() int { return g.n }

// intern returns the group id of key, adding it when unseen.
func (g *groupTable) intern(key []int32) (gid int32, fresh bool) {
	return g.internSig(keySig(key), key)
}

// internSig is intern with the signature precomputed by the caller (the
// columnar operators compute signatures straight from id columns). For
// exact tables key may be nil.
func (g *groupTable) internSig(sig uint64, key []int32) (gid int32, fresh bool) {
	for i := mix64(sig) & g.mask; ; i = (i + 1) & g.mask {
		s := &g.slots[i]
		if s.ref == 0 {
			gid = int32(g.n)
			g.n++
			if !g.exact {
				g.keys = append(g.keys, key...)
			}
			s.sig, s.ref = sig, gid+1
			if g.n*5 >= len(g.slots)*4 {
				g.grow()
			}
			return gid, true
		}
		if s.sig == sig && (g.exact || g.keyEqual(s.ref-1, key)) {
			return s.ref - 1, false
		}
	}
}

// internSlot is internSig returning the slot itself, so callers can use
// the slot-resident aux scratch without a second gid-indexed lookup.
// Growth happens before insertion (the returned pointer must stay
// valid), so the load factor bound matches internSig's.
func (g *groupTable) internSlot(sig uint64, key []int32) (*groupSlot, bool) {
	if (g.n+1)*5 >= len(g.slots)*4 {
		g.grow()
	}
	for i := mix64(sig) & g.mask; ; i = (i + 1) & g.mask {
		s := &g.slots[i]
		if s.ref == 0 {
			gid := int32(g.n)
			g.n++
			if !g.exact {
				g.keys = append(g.keys, key...)
			}
			s.sig, s.ref, s.aux = sig, gid+1, 0
			return s, true
		}
		if s.sig == sig && (g.exact || g.keyEqual(s.ref-1, key)) {
			return s, false
		}
	}
}

// lookup returns the group id of key without adding it.
func (g *groupTable) lookup(key []int32) (int32, bool) {
	return g.lookupSig(keySig(key), key)
}

func (g *groupTable) lookupSig(sig uint64, key []int32) (int32, bool) {
	for i := mix64(sig) & g.mask; ; i = (i + 1) & g.mask {
		s := &g.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.sig == sig && (g.exact || g.keyEqual(s.ref-1, key)) {
			return s.ref - 1, true
		}
	}
}

func (g *groupTable) grow() {
	slots := g.ar.zeroSlots(len(g.slots) * 2)
	mask := uint64(len(slots) - 1)
	for _, s := range g.slots {
		if s.ref == 0 {
			continue
		}
		i := mix64(s.sig) & mask
		for slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	g.ar.putSlots(g.slots)
	g.slots, g.mask = slots, mask
}

func (g *groupTable) keyEqual(id int32, key []int32) bool {
	base := int(id) * g.arity
	for i, v := range key {
		if g.keys[base+i] != v {
			return false
		}
	}
	return true
}

// AppendKey appends the value key of vals to dst: each value's 8-byte
// little-endian encoding, in order. It is the one encoding that matches
// an answer across results, lineages and plan rounds (as a map key) and
// that seeds an answer's sampling stream, so it must not change.
func AppendKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}
