package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/experiments"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
)

// simSLAProbe is the SLA target of the traced SLAEE probe; it is one of
// experiments.SLATargets, so the probe's result can be compared with the
// sweep's.
const simSLAProbe = 0.90

// simBench is the simulator workload: one pass is the data behind
// Figs. 2–7 — experiments.RunSweep and RunSLA on every testbed.
//
// It runs at experiments.DefaultSeed, the seed the paper claims are
// checked at; the claims do not hold for every dataset seed (see
// NOTES.md), and a pass whose claims fail counts as failed.
type simBench struct {
	beds   []testbed.Testbed
	seed   int64
	rec    *recorder
	digest string // the first pass's report digest
}

// simPass is one pass's results, per testbed.
type simPass struct {
	sweeps []*experiments.Sweep
	slas   []*experiments.SLASweep
}

func openSim(rec *recorder) *simBench {
	return &simBench{beds: testbed.All(), seed: experiments.DefaultSeed, rec: rec}
}

func (s *simBench) close() {}

// run executes one pass, spanning each experiment call when rec is set.
func (s *simBench) run(ctx context.Context, rec *recorder, parent uint64) (simPass, error) {
	var p simPass
	for _, tb := range s.beds {
		sp := rec.begin(spSweep, parent).withAttr(tb.Name)
		sw, err := experiments.RunSweep(ctx, tb, s.seed)
		sp.end()
		if err != nil {
			return p, fmt.Errorf("sweep on %s: %w", tb.Name, err)
		}
		sp = rec.begin(spSLA, parent).withAttr(tb.Name)
		sla, err := experiments.RunSLA(ctx, tb, s.seed)
		sp.end()
		if err != nil {
			return p, fmt.Errorf("SLA on %s: %w", tb.Name, err)
		}
		p.sweeps = append(p.sweeps, sw)
		p.slas = append(p.slas, sla)
	}
	return p, nil
}

// digest hashes every field of a pass's results. fmt's Go-syntax form
// prints floats at full precision and maps in key order, so any change
// to any result changes the digest; the simulator is deterministic, so
// every pass must match the first.
func (p simPass) digest() string {
	h := sha256.New()
	for i := range p.sweeps {
		fmt.Fprintf(h, "%#v\n%#v\n", *p.sweeps[i], *p.slas[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checks evaluates the paper's claims on a pass, as cmd/expdriver does.
func (p simPass) checks() []experiments.Check {
	var all []experiments.Check
	for i, sw := range p.sweeps {
		switch sw.Testbed {
		case "XSEDE":
			all = append(all, experiments.CheckXSEDESweep(sw)...)
		case "DIDCLAB":
			all = append(all, experiments.CheckDIDCLABSweep(sw)...)
		default:
			all = append(all, experiments.CheckWANSweep(sw)...)
		}
		all = append(all, experiments.CheckSLA(p.slas[i], sw.Testbed != "DIDCLAB")...)
	}
	return all
}

// simMB is the payload the pass's simulated transfers moved, the work
// unit the simulator's per-MB figures are taken over.
func (p simPass) simMB() float64 {
	var bytes float64
	for i, sw := range p.sweeps {
		for _, byLevel := range sw.Reports {
			for _, r := range byLevel {
				bytes += float64(r.Bytes)
			}
		}
		for _, h := range sw.HTEE {
			bytes += float64(h.Report.Bytes)
		}
		bytes += float64(p.slas[i].Reference.Bytes)
		for _, r := range p.slas[i].Results {
			bytes += float64(r.Report.Bytes)
		}
	}
	return bytes / (1 << 20)
}

// verify checks a pass against the first pass's digest and the paper's
// claims.
func (s *simBench) verify(p simPass) error {
	d := p.digest()
	if s.digest == "" {
		s.digest = d
	} else if d != s.digest {
		return fmt.Errorf("report digest %s differs from the first pass's %s", d[:12], s.digest[:12])
	}
	if bad := experiments.Failed(p.checks()); len(bad) > 0 {
		return fmt.Errorf("%d paper claims fail, first %s: %s", len(bad), bad[0].Name, bad[0].Detail)
	}
	return nil
}

func (s *simBench) pass(ctx context.Context, traced bool) (passResult, error) {
	rec := s.rec
	if !traced {
		rec = nil
	}
	var root openSpan
	if rec != nil {
		rec.pass.Add(1)
		root = rec.root(spPass)
	}
	pre := readMem(traced)
	var p simPass
	iv, err := measure(func() error {
		var err error
		p, err = s.run(ctx, rec, root.id)
		return err
	})
	res := passResult{iv: iv}
	if err != nil {
		root.end()
		return res, err
	}
	res.mem = readMem(traced).sub(pre)
	res.simMB = p.simMB()
	v0 := time.Now()
	err = s.verify(p)
	res.verify = time.Since(v0)
	if err == nil && rec != nil {
		err = s.probe(ctx, p, rec, root.id)
	}
	root.end()
	return res, err
}

// probe runs core.HTEE and core.SLAEE once per testbed over a wrapped
// transfer.Sim, outside the timed pass, so the traced run sees the
// algorithms' search steps and the simulator's Advance calls. The
// simulator is deterministic, so each probe must reproduce the sweep's
// own result for the same setting; that also proves the wrappers did not
// change the path.
func (s *simBench) probe(ctx context.Context, p simPass, rec *recorder, parent uint64) error {
	for i, tb := range s.beds {
		ds := tb.Dataset(s.seed)
		sp := rec.begin(spHTEE, parent).withAttr(tb.Name)
		h, err := core.HTEE(ctx, &tracedExecutor{inner: transfer.NewSim(tb), rec: rec, parent: sp.id}, ds, tb.MaxConcurrency)
		sp.end()
		if err != nil {
			return fmt.Errorf("HTEE probe on %s: %w", tb.Name, err)
		}
		if want, ok := p.sweeps[i].HTEE[tb.MaxConcurrency]; ok && !reflect.DeepEqual(h, want) {
			return fmt.Errorf("HTEE probe on %s differs from the sweep's run", tb.Name)
		}
		sla := p.slas[i]
		sp = rec.begin(spSLAEE, parent).withAttr(tb.Name)
		r, err := core.SLAEE(ctx, &tracedExecutor{inner: transfer.NewSim(tb), rec: rec, parent: sp.id},
			ds, sla.MaxThroughput, simSLAProbe, tb.MaxConcurrency)
		sp.end()
		if err != nil {
			return fmt.Errorf("SLAEE probe on %s: %w", tb.Name, err)
		}
		if want, ok := sla.Results[simSLAProbe]; ok && !reflect.DeepEqual(r, want) {
			return fmt.Errorf("SLAEE probe on %s differs from the SLA sweep's run", tb.Name)
		}
	}
	return nil
}

// reference runs the CPU kernel once.
func (s *simBench) reference() (refResult, error) {
	kern, _ := measure(func() error { cpuKernel(); return nil })
	return refResult{iv: kern}, nil
}
