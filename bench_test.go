package eta_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its figure's data on the
// simulated testbeds and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` reprints the evaluation:
//
//	Fig. 2  — XSEDE concurrency sweep        (BenchmarkFig2XSEDE)
//	Fig. 3  — FutureGrid concurrency sweep   (BenchmarkFig3FutureGrid)
//	Fig. 4  — DIDCLAB LAN concurrency sweep  (BenchmarkFig4DIDCLAB)
//	Fig. 5  — SLAEE on XSEDE                 (BenchmarkFig5SLAXSEDE)
//	Fig. 6  — SLAEE on FutureGrid            (BenchmarkFig6SLAFutureGrid)
//	Fig. 7  — SLAEE on DIDCLAB               (BenchmarkFig7SLADIDCLAB)
//	Fig. 8  — device rate-power relations    (BenchmarkFig8NetPowerModels)
//	Fig. 10 — end-system vs network energy   (BenchmarkFig10EnergySplit)
//	§2.2    — power-model validation         (BenchmarkTable2ModelError)
//
// plus micro-benchmarks of the simulator-side primitives. The real-TCP
// data plane has no benchmark here: perfbench measures it end to end
// and per layer (perfbench/NOTES.md), and scripts/ab.sh gates a change
// on it against its base revision.

import (
	"context"
	"math"
	"testing"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/experiments"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

func benchSweep(b *testing.B, tb testbed.Testbed) {
	b.Helper()
	ctx := context.Background()
	var sweep *experiments.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunSweep(ctx, tb, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	top := sweep.Reports[core.NameProMC][12]
	mine := sweep.Reports[core.NameMinE][12]
	htee := sweep.Reports[core.NameHTEE][12]
	b.ReportMetric(top.Throughput.Mbit(), "ProMC@12_Mbps")
	b.ReportMetric(float64(mine.EndSystemEnergy), "MinE@12_J")
	b.ReportMetric(sweep.NormalizedEfficiency(htee), "HTEE_eff_of_BF")
	b.ReportMetric(float64(sweep.BF.Best), "BF_best_cc")
}

func BenchmarkFig2XSEDE(b *testing.B)      { benchSweep(b, testbed.XSEDE()) }
func BenchmarkFig3FutureGrid(b *testing.B) { benchSweep(b, testbed.FutureGrid()) }
func BenchmarkFig4DIDCLAB(b *testing.B)    { benchSweep(b, testbed.DIDCLAB()) }

// BenchmarkSweepXSEDESerial is the one-worker baseline for the
// parallel experiment engine: compare against BenchmarkFig2XSEDE
// (which runs the same sweep at GOMAXPROCS workers) to measure the
// fan-out speedup on this machine.
func BenchmarkSweepXSEDESerial(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepSerial(ctx, testbed.XSEDE(), experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSLA(b *testing.B, tb testbed.Testbed) {
	b.Helper()
	ctx := context.Background()
	var sweep *experiments.SLASweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunSLA(ctx, tb, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	var meanAbsDev float64
	for _, t := range sweep.Targets {
		meanAbsDev += math.Abs(sweep.Results[t].Deviation())
	}
	meanAbsDev /= float64(len(sweep.Targets))
	b.ReportMetric(sweep.MaxThroughput.Mbit(), "max_Mbps")
	b.ReportMetric(meanAbsDev, "mean_abs_deviation_pct")
	b.ReportMetric(sweep.EnergySaving(0.50), "saving_at_50pct_target_pct")
}

func BenchmarkFig5SLAXSEDE(b *testing.B)      { benchSLA(b, testbed.XSEDE()) }
func BenchmarkFig6SLAFutureGrid(b *testing.B) { benchSLA(b, testbed.FutureGrid()) }
func BenchmarkFig7SLADIDCLAB(b *testing.B)    { benchSLA(b, testbed.DIDCLAB()) }

func BenchmarkFig8NetPowerModels(b *testing.B) {
	var points []experiments.RatePowerPoint
	for i := 0; i < b.N; i++ {
		points = experiments.RatePowerCurves(1000)
	}
	mid := points[len(points)/2]
	b.ReportMetric(mid.NonLinear, "nonlinear_at_50pct")
	b.ReportMetric(mid.Linear, "linear_at_50pct")
}

func BenchmarkFig10EnergySplit(b *testing.B) {
	ctx := context.Background()
	var splits []experiments.EnergySplit
	for i := 0; i < b.N; i++ {
		var err error
		splits, err = experiments.RunEnergySplits(ctx, testbed.All(), experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range splits {
		b.ReportMetric(s.NetworkShare, s.Testbed+"_net_pct")
	}
}

func BenchmarkTable2ModelError(b *testing.B) {
	var results []power.ValidationResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = power.Validate(power.DefaultGroundTruth(), 200, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstFG, worstCO float64
	for _, r := range results {
		if r.FineGrainedError > worstFG {
			worstFG = r.FineGrainedError
		}
		if r.CPUOnlyError > worstCO {
			worstCO = r.CPUOnlyError
		}
	}
	b.ReportMetric(worstFG, "worst_finegrained_pct")
	b.ReportMetric(worstCO, "worst_cpuonly_pct")
}

// --- micro-benchmarks of the primitives the harness leans on ---

func BenchmarkSimProMCXSEDE(b *testing.B) {
	tb := testbed.XSEDE()
	ds := tb.Dataset(experiments.DefaultSeed)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProMC(ctx, transfer.NewSim(tb), ds, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionAndMerge(b *testing.B) {
	ds := testbed.XSEDE().Dataset(experiments.DefaultSeed)
	bdp := testbed.XSEDE().Path.BDP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.PartitionAndMerge(ds, bdp)
	}
}

func BenchmarkFitFineGrained(b *testing.B) {
	calib := power.CalibrationSweep(power.DefaultGroundTruth(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.BuildFineGrained(calib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationsXSEDE(b *testing.B) {
	ctx := context.Background()
	var abl []experiments.Ablation
	for i := 0; i < b.N; i++ {
		var err error
		abl, err = experiments.RunAblations(ctx, testbed.XSEDE(), experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abl {
		b.ReportMetric(a.EnergyDelta(), a.Name+"_energy_pct")
	}
}
