package sosf

import (
	"strings"
	"testing"
)

const pairSrc = `
topology pair {
    component left ring {
        weight 1
        port out
    }
    component right ring {
        weight 1
        port in
    }
    link left.out right.in
    nodes 120
}`

func TestValidate(t *testing.T) {
	if err := Validate(pairSrc); err != nil {
		t.Fatalf("valid source rejected: %v", err)
	}
	if err := Validate("topology broken {"); err == nil {
		t.Fatal("invalid source accepted")
	}
	if err := Validate("topology t { component c blob }"); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	rep, err := Run(pairSrc, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("did not converge:\n%s", rep)
	}
	if rep.Components != 2 || rep.Links != 1 || rep.Nodes != 120 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Subs) != 5 {
		t.Fatalf("subs = %d", len(rep.Subs))
	}
	for _, s := range rep.Subs {
		if s.ConvergedAt < 0 || s.Final < 1.0 {
			t.Fatalf("%s: convergedAt=%d final=%f", s.Name, s.ConvergedAt, s.Final)
		}
	}
	if rep.BaselineBytes <= 0 || rep.OverheadBytes <= 0 {
		t.Fatalf("bandwidth missing: %+v", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "Elementary Topology") || !strings.Contains(out, "converged: true") {
		t.Fatalf("report rendering:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("topology t { component c ring }"); err == nil {
		t.Fatal("missing population should fail")
	}
	if _, err := Run("not a topology", WithNodes(10)); err == nil {
		t.Fatal("parse error should surface")
	}
}

func TestNodesOptionOverride(t *testing.T) {
	rep, err := Run(pairSrc, WithNodes(60), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 60 {
		t.Fatalf("Options.Nodes should win over the DSL value: %d", rep.Nodes)
	}
}

func TestSystemReconfigure(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	if !sys.Report().Converged {
		t.Fatal("precondition: converged")
	}
	three := strings.Replace(pairSrc, "link left.out right.in",
		"component mid ring { weight 1 port a port b }\n link left.out mid.a\n link mid.b right.in", 1)
	if err := sys.ReconfigureSource(three); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(120); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.Components != 3 || rep.Links != 2 {
		t.Fatalf("reconfigured report = %+v", rep)
	}
	if !rep.Converged {
		t.Fatalf("did not re-converge:\n%s", rep)
	}
}

func TestSystemKillAndRecover(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	killed := sys.Kill(0.3)
	if killed != 36 {
		t.Fatalf("killed %d, want 36", killed)
	}
	acc := sys.Accuracy()
	if acc["Elementary Topology"] >= 1.0 {
		t.Fatal("blast should break some target edges")
	}
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	if got := sys.Accuracy()["Port Selection"]; got < 1.0 {
		t.Fatalf("port selection should recover, got %f", got)
	}
}

func TestChurnOption(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(7), WithChurn(0.02), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(40); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.Nodes != 120 {
		t.Fatalf("population drifted: %d", rep.Nodes)
	}
	if rep.Rounds != 40 {
		t.Fatalf("RunToEnd should not stop early: %d rounds", rep.Rounds)
	}
}

func TestDOT(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	dot := sys.DOT()
	for _, want := range []string{"graph \"pair\"", "fillcolor", "shape=box", " -- "} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%.400s", want, dot)
		}
	}
	// Two ring components of 60 nodes: expect ~120 node lines.
	if strings.Count(dot, "\n  n") < 120 {
		t.Fatal("DOT seems to be missing nodes")
	}
}

func TestLossOption(t *testing.T) {
	rep, err := Run(pairSrc, WithSeed(9), WithLoss(0.15), WithRounds(200))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("should converge under 15%% loss:\n%s", rep)
	}
}
