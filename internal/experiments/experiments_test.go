package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

// The sweep tests run the complete paper evaluation on the simulated
// testbeds and assert the qualitative claims of §3. They are the
// heart of the reproduction.

func runSweep(t *testing.T, tb testbed.Testbed) *Sweep {
	t.Helper()
	s, err := RunSweep(context.Background(), tb, DefaultSeed)
	if err != nil {
		t.Fatalf("RunSweep(%s): %v", tb.Name, err)
	}
	return s
}

func assertChecks(t *testing.T, checks []Check) {
	t.Helper()
	for _, c := range checks {
		if !c.OK {
			t.Errorf("paper claim failed: %s (%s)", c.Name, c.Detail)
		} else {
			t.Logf("ok: %s %s", c.Name, c.Detail)
		}
	}
}

func TestFig2XSEDE(t *testing.T) {
	s := runSweep(t, testbed.XSEDE())
	assertChecks(t, CheckXSEDESweep(s))
}

func TestFig3FutureGrid(t *testing.T) {
	s := runSweep(t, testbed.FutureGrid())
	assertChecks(t, CheckWANSweep(s))
}

func TestFig4DIDCLAB(t *testing.T) {
	s := runSweep(t, testbed.DIDCLAB())
	assertChecks(t, CheckDIDCLABSweep(s))
}

func TestFig5SLAXSEDE(t *testing.T) {
	s, err := RunSLA(context.Background(), testbed.XSEDE(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	assertChecks(t, CheckSLA(s, true))
}

func TestFig6SLAFutureGrid(t *testing.T) {
	s, err := RunSLA(context.Background(), testbed.FutureGrid(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	assertChecks(t, CheckSLA(s, true))
}

func TestFig7SLADIDCLAB(t *testing.T) {
	s, err := RunSLA(context.Background(), testbed.DIDCLAB(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	assertChecks(t, CheckSLA(s, false))
}

func TestFig8RatePowerCurves(t *testing.T) {
	points := RatePowerCurves(20)
	if len(points) != 21 {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].Utilization != 0 || points[len(points)-1].Utilization != 1 {
		t.Error("curve does not span [0,1]")
	}
	// Non-linear sits above linear in the interior (Fig. 8's shape).
	for _, p := range points[1 : len(points)-1] {
		if p.NonLinear <= p.Linear {
			t.Errorf("at %.2f non-linear %.3f not above linear %.3f",
				p.Utilization, p.NonLinear, p.Linear)
		}
	}
	if RatePowerCurves(1)[0].Utilization != 0 {
		t.Error("degenerate step count not clamped")
	}
}

func TestFig10EnergySplit(t *testing.T) {
	ctx := context.Background()
	var splits []EnergySplit
	for _, tb := range testbed.All() {
		s, err := RunEnergySplit(ctx, tb, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: end-system %v (%.0f%%), network %v (%.0f%%)",
			s.Testbed, s.EndSystem, s.EndSystemShare, s.Network, s.NetworkShare)
		splits = append(splits, s)
	}
	assertChecks(t, CheckEnergySplit(splits))
}

func TestHeadlineEnergySaving(t *testing.T) {
	// The abstract's headline: "up to 30% energy savings with no or
	// minimal degradation in the expected transfer throughput". The
	// 90% SLA on XSEDE is the paper's showcase.
	s, err := RunSLA(context.Background(), testbed.XSEDE(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	saving := s.EnergySaving(0.90)
	if saving < 20 {
		t.Errorf("90%% SLA saves only %.0f%% energy, want ≥20%%", saving)
	}
	dev := s.Results[0.90].Deviation()
	if dev < -10 {
		t.Errorf("90%% SLA missed its throughput target by %.0f%%", dev)
	}
	t.Logf("90%% SLA: %.0f%% energy saving at %.1f%% deviation", saving, dev)
}

func TestMarkdownRenderers(t *testing.T) {
	s := runSweep(t, testbed.DIDCLAB())
	md := MarkdownSweep(s)
	for _, want := range []string{"DIDCLAB", "throughput (Mbps)", "GUC", "HTEE search outcome"} {
		if !strings.Contains(md, want) {
			t.Errorf("sweep markdown missing %q", want)
		}
	}
	csv := CSVSweep(s)
	if !strings.Contains(csv, "DIDCLAB,GUC,1,") {
		t.Error("sweep CSV missing expected row prefix")
	}

	sla, err := RunSLA(context.Background(), testbed.DIDCLAB(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if md := MarkdownSLA(sla); !strings.Contains(md, "SLA transfers") {
		t.Error("SLA markdown malformed")
	}
	if csv := CSVSLA(sla); !strings.Contains(csv, "target_pct") {
		t.Error("SLA CSV malformed")
	}
	if md := MarkdownRatePower(RatePowerCurves(4)); !strings.Contains(md, "state-based") {
		t.Error("rate-power markdown malformed")
	}
	split, err := RunEnergySplit(context.Background(), testbed.DIDCLAB(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if md := MarkdownEnergySplit([]EnergySplit{split}); !strings.Contains(md, "DIDCLAB") {
		t.Error("split markdown malformed")
	}
}

func TestFailedHelper(t *testing.T) {
	checks := []Check{{Name: "a", OK: true}, {Name: "b", OK: false}}
	failed := Failed(checks)
	if len(failed) != 1 || failed[0].Name != "b" {
		t.Errorf("Failed() = %+v", failed)
	}
}

func TestSweepDeterministic(t *testing.T) {
	a := runSweep(t, testbed.DIDCLAB())
	b := runSweep(t, testbed.DIDCLAB())
	for _, algo := range a.Algorithms() {
		for _, l := range a.Levels {
			if a.Reports[algo][l].EndSystemEnergy != b.Reports[algo][l].EndSystemEnergy {
				t.Fatalf("%s@%d energy differs across identical runs", algo, l)
			}
		}
	}
	_ = core.NameBF
}

// The sweep's ProMC column at a level BF probed is BF's run relabelled,
// and owns its Samples and Chunks: editing one report must not edit
// the other.
func TestSweepProMCIsBFRun(t *testing.T) {
	s := runSweep(t, testbed.DIDCLAB())
	for _, l := range s.Levels {
		p, bf := s.Reports[core.NameProMC][l], s.BF.Reports[l]
		if p.Algorithm != core.NameProMC || bf.Algorithm != core.NameBF {
			t.Fatalf("level %d labelled %q and %q", l, p.Algorithm, bf.Algorithm)
		}
		p.Algorithm = bf.Algorithm
		if !reflect.DeepEqual(p, bf) {
			t.Fatalf("ProMC@%d differs from BF's run at %d", l, l)
		}
		if len(p.Samples) == 0 || len(p.Chunks) == 0 {
			t.Fatalf("ProMC@%d has %d samples and %d chunks", l, len(p.Samples), len(p.Chunks))
		}
		if &p.Samples[0] == &bf.Samples[0] || &p.Chunks[0] == &bf.Chunks[0] {
			t.Errorf("ProMC@%d shares a backing array with BF's report", l)
		}
	}
}

func TestAblationsXSEDE(t *testing.T) {
	abl, err := RunAblations(context.Background(), testbed.XSEDE(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 4 {
		t.Fatalf("got %d ablations, want 4", len(abl))
	}
	for _, a := range abl {
		t.Logf("%s: throughput %+.1f%%, energy %+.1f%% %s",
			a.Name, a.ThroughputDelta(), a.EnergyDelta(), a.Extra)
	}
	assertChecks(t, CheckAblations(abl))
	if md := MarkdownAblations("XSEDE", abl); !strings.Contains(md, "MinE-unpin-large") {
		t.Error("ablation markdown malformed")
	}
}

func TestFigureBuilders(t *testing.T) {
	s := runSweep(t, testbed.DIDCLAB())
	for name, svg := range map[string]string{
		"throughput": FigureThroughput(s).SVG(),
		"energy":     FigureEnergy(s).SVG(),
		"efficiency": FigureEfficiency(s).SVG(),
	} {
		if !strings.Contains(svg, "<polyline") || !strings.Contains(svg, "GUC") {
			t.Errorf("%s figure missing content", name)
		}
	}
	sla, err := RunSLA(context.Background(), testbed.DIDCLAB(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if svg := FigureSLAThroughput(sla).SVG(); !strings.Contains(svg, "achieved") {
		t.Error("SLA throughput figure malformed")
	}
	if svg := FigureSLAEnergy(sla).SVG(); !strings.Contains(svg, "ProMC") {
		t.Error("SLA energy figure malformed")
	}
	if svg := FigureSLADeviation(sla).SVG(); !strings.Contains(svg, "deviation") {
		t.Error("SLA deviation figure malformed")
	}
	if svg := FigureRatePower(RatePowerCurves(10)).SVG(); !strings.Contains(svg, "state-based") {
		t.Error("rate-power figure malformed")
	}
	split, err := RunEnergySplit(context.Background(), testbed.DIDCLAB(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if svg := FigureEnergySplitChart([]EnergySplit{split}).SVG(); !strings.Contains(svg, "DIDCLAB") {
		t.Error("energy split figure malformed")
	}
}

func TestModelChoice(t *testing.T) {
	var mcs []ModelChoice
	for _, tb := range testbed.All() {
		mc, err := RunModelChoice(context.Background(), tb, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", tb.Name, err)
		}
		t.Logf("%s: fine cc=%d, cpu-only cc=%d, penalty %.1f%%",
			mc.Testbed, mc.FineGrained.ChosenConcurrency, mc.CPUOnly.ChosenConcurrency, mc.EfficiencyPenalty)
		mcs = append(mcs, mc)
	}
	assertChecks(t, CheckModelChoice(mcs))
	if md := MarkdownModelChoice(mcs); !strings.Contains(md, "CPU-only") {
		t.Error("model-choice markdown malformed")
	}
}

func TestAdaptationXSEDE(t *testing.T) {
	a, err := RunAdaptation(context.Background(), testbed.XSEDE(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("step %.0f%% at %v, target %v: static %v vs SLAEE %v (cc=%d)",
		a.StepFraction*100, a.StepAt, a.Target,
		a.StaticLateThroughput, a.SLAEELateThroughput, a.SLAEELateConcurrency)
	assertChecks(t, CheckAdaptation(a))
	if md := MarkdownAdaptation(a); !strings.Contains(md, "Congestion-step") {
		t.Error("adaptation markdown malformed")
	}
}

func TestBackgroundTrafficReducesThroughput(t *testing.T) {
	tb := testbed.XSEDE()
	ds := tb.Dataset(DefaultSeed)
	clean, err := core.ProMC(context.Background(), transfer.NewSim(tb), ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	congestedSim := transfer.NewSim(tb)
	congestedSim.Background = func(time.Duration) float64 { return 0.5 }
	congested, err := core.ProMC(context.Background(), congestedSim, ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if congested.Throughput >= clean.Throughput*75/100 {
		t.Errorf("50%% cross traffic barely hurt: clean %v vs congested %v",
			clean.Throughput, congested.Throughput)
	}
}

func TestSeedRobustnessXSEDE(t *testing.T) {
	// The paper's claims must not hinge on one lucky workload: rerun
	// the Fig. 2 checks on independently generated datasets.
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []int64{DefaultSeed, 7, 20260101} {
		s, err := RunSweep(context.Background(), testbed.XSEDE(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range CheckXSEDESweep(s) {
			if !c.OK {
				t.Errorf("seed %d: claim failed: %s (%s)", seed, c.Name, c.Detail)
			}
		}
	}
}
