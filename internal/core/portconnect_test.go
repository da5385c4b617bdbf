package core

import (
	"fmt"
	"reflect"
	"testing"

	"sosf/internal/spec"
)

// starTopo is a hub component with k ports, each linked to its own leaf
// ring — hub nodes carry k link sides, far more than a ring of rings gives.
func starTopo(k int) *spec.Topology {
	t := &spec.Topology{Name: "star"}
	hub := spec.Component{Name: "hub", Shape: "ring", Weight: 1}
	for i := 0; i < k; i++ {
		port := fmt.Sprintf("p%d", i)
		leaf := fmt.Sprintf("leaf%d", i)
		hub.Ports = append(hub.Ports, port)
		t.Components = append(t.Components, spec.Component{
			Name: leaf, Shape: "ring", Weight: 1, Ports: []string{"up"},
		})
		t.Links = append(t.Links, spec.Link{
			A: spec.PortRef{Component: "hub", Port: port},
			B: spec.PortRef{Component: leaf, Port: "up"},
		})
	}
	t.Components = append(t.Components, hub)
	return t
}

// beliefTrace steps sys round by round and records every slot's
// portconnect belief for every link side after each round.
func beliefTrace(t *testing.T, sys *System, rounds int) [][]PortRecord {
	t.Helper()
	var trace [][]PortRecord
	for i := 0; i < rounds; i++ {
		if _, err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
		var row []PortRecord
		for slot := 0; slot < sys.Engine().Size(); slot++ {
			for side := range sys.Allocator().Sides() {
				row = append(row, sys.Conns().Remote(slot, side))
			}
		}
		trace = append(trace, row)
	}
	return trace
}

// TestPortConnectWorkerInvariantAcrossReconfigure reconfigures a ring of
// rings (two link sides per component) into a star whose hub has six, so
// the hub's belief rows must grow inside the parallel Refresh. The beliefs
// must match the serial run at any worker count; under -race this also
// pins that growing a row touches no state shared between workers.
func TestPortConnectWorkerInvariantAcrossReconfigure(t *testing.T) {
	run := func(workers int) [][]PortRecord {
		sys, err := NewSystem(Config{Topology: ringsTopo(3), Nodes: 240, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		before := beliefTrace(t, sys, 8)
		if err := sys.Reconfigure(starTopo(6)); err != nil {
			t.Fatal(err)
		}
		return append(before, beliefTrace(t, sys, 15)...)
	}
	serial := run(1)
	valid := 0
	for _, r := range serial[len(serial)-1] {
		if r.Valid() {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no slot resolved a far-end manager after the reconfiguration; the test is vacuous")
	}
	if got := run(8); !reflect.DeepEqual(got, serial) {
		for r := range serial {
			if !reflect.DeepEqual(got[r], serial[r]) {
				t.Fatalf("workers=8 beliefs diverge from workers=1 at traced round %d", r+1)
			}
		}
		t.Fatal("workers=8 beliefs diverge from workers=1")
	}
}
