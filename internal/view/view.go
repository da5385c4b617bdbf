package view

import (
	"sort"
)

// Rand is the minimal random-source interface view selection draws from.
// Both *math/rand.Rand and the simulation engine's counter-based per-node
// streams satisfy it, so the same selection code serves the serial and the
// worker-sharded engine.
type Rand interface {
	Intn(n int) int
	Shuffle(n int, swap func(i, j int))
}

// View is a bounded partial view: an ordered collection of descriptors with
// unique node IDs, bounded by a capacity. The zero value is unusable; create
// views with New. Views are not safe for concurrent use — the simulation
// engine is single-threaded by design (determinism).
type View struct {
	capacity int
	entries  []Descriptor
}

// New returns an empty view bounded to the given capacity (min 1).
func New(capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	return &View{
		capacity: capacity,
		entries:  make([]Descriptor, 0, capacity),
	}
}

// Len returns the number of descriptors currently held.
func (v *View) Len() int { return len(v.entries) }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.capacity }

// SetCap changes the capacity. If the view holds more entries than the new
// capacity, the tail entries are dropped.
func (v *View) SetCap(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	v.capacity = capacity
	if len(v.entries) > capacity {
		v.entries = v.entries[:capacity]
	}
}

// At returns the descriptor at position i. It panics if i is out of range,
// mirroring slice semantics.
func (v *View) At(i int) Descriptor { return v.entries[i] }

// Entries returns a copy of the current descriptors.
func (v *View) Entries() []Descriptor {
	return v.AppendEntries(make([]Descriptor, 0, len(v.entries)))
}

// AppendEntries appends the current descriptors to dst and returns the
// extended slice. Passing a reused scratch buffer (dst[:0]) makes the read
// allocation-free in steady state.
func (v *View) AppendEntries(dst []Descriptor) []Descriptor {
	return append(dst, v.entries...)
}

// IDs returns the node IDs currently held, in view order.
func (v *View) IDs() []NodeID {
	return v.AppendIDs(make([]NodeID, 0, len(v.entries)))
}

// AppendIDs appends the node IDs currently held to dst, in view order, and
// returns the extended slice.
func (v *View) AppendIDs(dst []NodeID) []NodeID {
	for _, d := range v.entries {
		dst = append(dst, d.ID)
	}
	return dst
}

// IndexOf returns the position of id in the view, or -1.
func (v *View) IndexOf(id NodeID) int {
	for i, d := range v.entries {
		if d.ID == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the view holds a descriptor for id.
func (v *View) Contains(id NodeID) bool { return v.IndexOf(id) >= 0 }

// Add inserts d if there is spare capacity and no descriptor for the same
// node exists; if one exists, the fresher of the two is kept. It reports
// whether the view changed.
func (v *View) Add(d Descriptor) bool {
	changed, _ := v.Upsert(d)
	return changed
}

// Upsert inserts d exactly like Add, and additionally reports whether the
// view now holds a descriptor for d.ID (held). It exists as a fast path for
// merge loops that would otherwise pay a second IndexOf scan for
// `v.Add(d) || v.Contains(d.ID)`.
func (v *View) Upsert(d Descriptor) (changed, held bool) {
	if i := v.IndexOf(d.ID); i >= 0 {
		if d.Fresher(v.entries[i]) {
			v.entries[i] = d
			return true, true
		}
		return false, true
	}
	if len(v.entries) >= v.capacity {
		return false, false
	}
	v.entries = append(v.entries, d)
	return true, true
}

// ForceAdd inserts d, evicting the oldest entry if the view is full. A
// descriptor for the same node is replaced by the fresher of the two.
func (v *View) ForceAdd(d Descriptor) {
	if i := v.IndexOf(d.ID); i >= 0 {
		if d.Fresher(v.entries[i]) {
			v.entries[i] = d
		}
		return
	}
	if len(v.entries) < v.capacity {
		v.entries = append(v.entries, d)
		return
	}
	v.entries[v.oldestIndex()] = d
}

// Remove deletes the descriptor for id, reporting whether it was present.
func (v *View) Remove(id NodeID) bool {
	i := v.IndexOf(id)
	if i < 0 {
		return false
	}
	v.RemoveAt(i)
	return true
}

// RemoveAt deletes the descriptor at position i (order not preserved).
func (v *View) RemoveAt(i int) {
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.entries = v.entries[:last]
}

// Clear drops all entries, keeping capacity.
func (v *View) Clear() { v.entries = v.entries[:0] }

// AgeAll increments the age of every descriptor (saturating).
func (v *View) AgeAll() {
	for i := range v.entries {
		if v.entries[i].Age < ^uint16(0) {
			v.entries[i].Age++
		}
	}
}

// Penalize adds delta to the age of the descriptor for id (saturating),
// reporting whether it was present. Failure detectors use this to mark a
// peer as suspect after a failed exchange without evicting it outright —
// a dead peer keeps accumulating penalties until it ages out, while a peer
// behind a lossy link recovers when fresh descriptors arrive.
func (v *View) Penalize(id NodeID, delta uint16) bool {
	i := v.IndexOf(id)
	if i < 0 {
		return false
	}
	if age := uint32(v.entries[i].Age) + uint32(delta); age < uint32(^uint16(0)) {
		v.entries[i].Age = uint16(age)
	} else {
		v.entries[i].Age = ^uint16(0)
	}
	return true
}

// Oldest returns the descriptor with the highest age (ties broken by the
// lowest position) and its index. ok is false for an empty view.
func (v *View) Oldest() (d Descriptor, idx int, ok bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, -1, false
	}
	idx = v.oldestIndex()
	return v.entries[idx], idx, true
}

func (v *View) oldestIndex() int {
	best := 0
	for i := 1; i < len(v.entries); i++ {
		if v.entries[i].Age > v.entries[best].Age {
			best = i
		}
	}
	return best
}

// Random returns a uniformly random descriptor. ok is false for an empty
// view.
func (v *View) Random(rng Rand) (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	return v.entries[rng.Intn(len(v.entries))], true
}

// RandomSample returns up to n distinct descriptors chosen uniformly at
// random, in random order. n <= 0 returns nil without consuming randomness.
func (v *View) RandomSample(rng Rand, n int) []Descriptor {
	if n <= 0 || len(v.entries) == 0 {
		return nil
	}
	if n > len(v.entries) {
		n = len(v.entries)
	}
	var s Sampler
	return v.RandomSampleInto(rng, n, make([]Descriptor, 0, n), &s)
}

// Sampler is reusable scratch for RandomSampleInto: it holds the permutation
// buffer a partial sample needs, so steady-state sampling allocates nothing.
// The zero value is ready to use. A Sampler may be shared by any number of
// views as long as calls do not overlap.
type Sampler struct {
	perm []int
}

// RandomSampleInto appends up to n distinct descriptors chosen uniformly at
// random, in random order, to dst and returns the extended slice. It draws
// from rng exactly like RandomSample (math/rand Shuffle when n covers the
// view, a Perm-equivalent otherwise), so the two are interchangeable without
// perturbing a seeded run. n <= 0 appends nothing and consumes no
// randomness.
func (v *View) RandomSampleInto(rng Rand, n int, dst []Descriptor, s *Sampler) []Descriptor {
	return SampleInto(rng, v.entries, n, dst, s)
}

// SampleInto is RandomSampleInto over a raw descriptor buffer: it appends up
// to n distinct elements of src, chosen uniformly at random and in random
// order, to dst and returns the extended slice. src is not modified.
// Protocols use it to sample from ad-hoc candidate pools (e.g. "the view
// minus the exchange partner") without mutating the view they were built
// from — the read-only discipline the parallel plan phase requires.
func SampleInto(rng Rand, src []Descriptor, n int, dst []Descriptor, s *Sampler) []Descriptor {
	if n <= 0 || len(src) == 0 {
		return dst
	}
	if n >= len(src) {
		base := len(dst)
		dst = append(dst, src...)
		out := dst[base:]
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return dst
	}
	// Replicate rand.Perm draw-for-draw into the reusable buffer.
	if cap(s.perm) < len(src) {
		s.perm = make([]int, len(src))
	}
	perm := s.perm[:len(src)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, p := range perm[:n] {
		dst = append(dst, src[p])
	}
	return dst
}

// Filter removes every descriptor for which keep returns false.
func (v *View) Filter(keep func(Descriptor) bool) {
	kept := v.entries[:0]
	for _, d := range v.entries {
		if keep(d) {
			kept = append(kept, d)
		}
	}
	// Zero the tail so dropped descriptors do not linger in the backing
	// array (defensive; descriptors hold no pointers but stale data is
	// confusing in debuggers).
	for i := len(kept); i < len(v.entries); i++ {
		v.entries[i] = Descriptor{}
	}
	v.entries = kept
}

// SortByAge orders entries from youngest to oldest (stable on input order
// for equal ages is not guaranteed; ties broken by node ID for determinism).
func (v *View) SortByAge() {
	sort.Slice(v.entries, func(i, j int) bool {
		if v.entries[i].Age != v.entries[j].Age {
			return v.entries[i].Age < v.entries[j].Age
		}
		return v.entries[i].ID < v.entries[j].ID
	})
}

// ReplaceAll replaces the view's contents with ds, truncated to the view's
// capacity. Callers are expected to pass deduplicated, owner-free buffers
// (e.g. a Merger result); ReplaceAll performs no checks of its own.
func (v *View) ReplaceAll(ds []Descriptor) {
	if len(ds) > v.capacity {
		ds = ds[:v.capacity]
	}
	v.entries = append(v.entries[:0], ds...)
}

// Merger is the reusable scratch state behind descriptor-buffer merging: a
// deduplication index plus an output buffer, both retained across calls so
// steady-state merges allocate nothing. The zero value is ready to use.
// A Merger is not safe for concurrent use; the parallel engine keeps one
// per worker (inside each sim.Pad), never sharing a merger across shards.
type Merger struct {
	self NodeID
	out  []Descriptor
	pos  map[NodeID]int
}

// Begin resets the merger for a new merge that excludes self (and
// InvalidNode) from its output.
func (m *Merger) Begin(self NodeID) {
	m.self = self
	m.out = m.out[:0]
	if m.pos == nil {
		m.pos = make(map[NodeID]int, 64)
	} else {
		clear(m.pos)
	}
}

// AddSlice folds a descriptor buffer into the merge: first occurrence fixes
// the output position, later duplicates keep the freshest copy.
func (m *Merger) AddSlice(ds []Descriptor) {
	for _, d := range ds {
		m.add(d)
	}
}

// AddView folds a view's entries into the merge without copying them out
// first — the allocation-free equivalent of AddSlice(v.Entries()).
func (m *Merger) AddView(v *View) {
	for i := range v.entries {
		m.add(v.entries[i])
	}
}

func (m *Merger) add(d Descriptor) {
	if d.ID == m.self || d.ID == InvalidNode {
		return
	}
	if i, seen := m.pos[d.ID]; seen {
		if d.Fresher(m.out[i]) {
			m.out[i] = d
		}
		return
	}
	m.pos[d.ID] = len(m.out)
	m.out = append(m.out, d)
}

// Result returns the merged buffer: deduplicated (freshest copy wins), in
// first-occurrence order, without self. The slice is scratch owned by the
// merger — callers may filter or sort it in place, but it is only valid
// until the next Begin.
func (m *Merger) Result() []Descriptor { return m.out }

// MergeInto merges descriptor buffers through dst's reusable scratch,
// returning dst.Result(). It is the allocation-free equivalent of
// MergeBuffers: same output, same order, no per-call map or slice.
func MergeInto(dst *Merger, self NodeID, buffers ...[]Descriptor) []Descriptor {
	dst.Begin(self)
	for _, b := range buffers {
		dst.AddSlice(b)
	}
	return dst.Result()
}

// MergeBuffers combines descriptor slices, dropping self and keeping the
// freshest descriptor per node ID. The result order is deterministic: it
// follows first occurrence in the concatenated input. It is a thin copying
// wrapper over MergeInto; hot paths reuse a Merger instead.
func MergeBuffers(self NodeID, buffers ...[]Descriptor) []Descriptor {
	var m Merger
	out := MergeInto(&m, self, buffers...)
	return out
}
