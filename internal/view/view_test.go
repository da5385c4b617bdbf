package view

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func desc(id NodeID, age uint16) Descriptor {
	return Descriptor{ID: id, Age: age}
}

func TestNewClampsCapacity(t *testing.T) {
	v := New(0)
	if v.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1", v.Cap())
	}
}

func TestAddRespectsCapacity(t *testing.T) {
	v := New(2)
	if !v.Add(desc(1, 0)) || !v.Add(desc(2, 0)) {
		t.Fatal("first two adds should succeed")
	}
	if v.Add(desc(3, 0)) {
		t.Fatal("add beyond capacity should fail")
	}
	if v.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", v.Len())
	}
}

func TestAddKeepsFresher(t *testing.T) {
	v := New(4)
	v.Add(desc(1, 5))
	if v.Add(desc(1, 9)) {
		t.Fatal("older duplicate must not replace fresher entry")
	}
	if !v.Add(desc(1, 2)) {
		t.Fatal("fresher duplicate must replace older entry")
	}
	if got := v.At(v.IndexOf(1)).Age; got != 2 {
		t.Fatalf("age = %d, want 2", got)
	}
	if v.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (no duplicate IDs)", v.Len())
	}
}

func TestFresherPrefersNewerEpoch(t *testing.T) {
	older := Descriptor{ID: 1, Age: 0, Profile: Profile{Epoch: 1}}
	newer := Descriptor{ID: 1, Age: 50, Profile: Profile{Epoch: 2}}
	if !newer.Fresher(older) {
		t.Fatal("newer epoch must beat lower age")
	}
	if older.Fresher(newer) {
		t.Fatal("older epoch must lose")
	}
}

func TestForceAddEvictsOldest(t *testing.T) {
	v := New(2)
	v.Add(desc(1, 9))
	v.Add(desc(2, 1))
	v.ForceAdd(desc(3, 0))
	if v.Contains(1) {
		t.Fatal("oldest entry (id 1) should have been evicted")
	}
	if !v.Contains(2) || !v.Contains(3) {
		t.Fatal("ids 2 and 3 should be present")
	}
}

func TestRemove(t *testing.T) {
	v := New(4)
	v.Add(desc(1, 0))
	v.Add(desc(2, 0))
	if !v.Remove(1) {
		t.Fatal("Remove(1) should report true")
	}
	if v.Remove(1) {
		t.Fatal("second Remove(1) should report false")
	}
	if v.Len() != 1 || !v.Contains(2) {
		t.Fatal("only id 2 should remain")
	}
}

func TestAgeAllSaturates(t *testing.T) {
	v := New(2)
	v.Add(desc(1, ^uint16(0)))
	v.AgeAll()
	if got := v.At(0).Age; got != ^uint16(0) {
		t.Fatalf("age = %d, want saturation at max", got)
	}
}

func TestOldest(t *testing.T) {
	v := New(4)
	if _, _, ok := v.Oldest(); ok {
		t.Fatal("empty view has no oldest")
	}
	v.Add(desc(1, 3))
	v.Add(desc(2, 7))
	v.Add(desc(3, 5))
	d, _, ok := v.Oldest()
	if !ok || d.ID != 2 {
		t.Fatalf("Oldest() = %v, want id 2", d)
	}
}

func TestFilter(t *testing.T) {
	v := New(8)
	for i := NodeID(0); i < 6; i++ {
		v.Add(desc(i, 0))
	}
	v.Filter(func(d Descriptor) bool { return d.ID%2 == 0 })
	if v.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", v.Len())
	}
	for _, id := range v.IDs() {
		if id%2 != 0 {
			t.Fatalf("id %d should have been filtered out", id)
		}
	}
}

func TestRandomSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := New(10)
	for i := NodeID(0); i < 10; i++ {
		v.Add(desc(i, 0))
	}
	s := v.RandomSample(rng, 4)
	if len(s) != 4 {
		t.Fatalf("len(sample) = %d, want 4", len(s))
	}
	seen := map[NodeID]bool{}
	for _, d := range s {
		if seen[d.ID] {
			t.Fatalf("duplicate id %d in sample", d.ID)
		}
		seen[d.ID] = true
	}
	if got := v.RandomSample(rng, 50); len(got) != 10 {
		t.Fatalf("oversized sample should return all %d entries, got %d", 10, len(got))
	}
}

func TestSetCapTruncates(t *testing.T) {
	v := New(5)
	for i := NodeID(0); i < 5; i++ {
		v.Add(desc(i, 0))
	}
	v.SetCap(2)
	if v.Len() != 2 || v.Cap() != 2 {
		t.Fatalf("after SetCap(2): len=%d cap=%d", v.Len(), v.Cap())
	}
}

// Property: MergeBuffers output always holds the freshest descriptor per ID
// across all input buffers.
func TestMergeBuffersFreshest(t *testing.T) {
	f := func(agesA, agesB []uint16) bool {
		a := make([]Descriptor, len(agesA))
		for i, age := range agesA {
			a[i] = desc(NodeID(i%5), age)
		}
		b := make([]Descriptor, len(agesB))
		for i, age := range agesB {
			b[i] = desc(NodeID(i%5), age)
		}
		out := MergeBuffers(InvalidNode, a, b)
		best := map[NodeID]uint16{}
		for _, d := range append(append([]Descriptor{}, a...), b...) {
			if cur, ok := best[d.ID]; !ok || d.Age < cur {
				best[d.ID] = d.Age
			}
		}
		if len(out) != len(best) {
			return false
		}
		for _, d := range out {
			if d.Age != best[d.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is idempotent in size — adding the same descriptor twice
// never grows the view.
func TestAddIdempotentSize(t *testing.T) {
	f := func(id int16, age uint16) bool {
		v := New(4)
		v.Add(desc(NodeID(id), age))
		n := v.Len()
		v.Add(desc(NodeID(id), age))
		return v.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortByAge(t *testing.T) {
	v := New(5)
	v.Add(desc(3, 9))
	v.Add(desc(1, 2))
	v.Add(desc(2, 2))
	v.SortByAge()
	ids := v.IDs()
	want := []NodeID{1, 2, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order = %v, want %v", ids, want)
		}
	}
}
