package proto

import (
	"context"
	"testing"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// TestAllocationContract runs one table of channel-allocation requests
// against both transfer executors — the simulator and the real-TCP
// executor over loopback — which share one allocation policy
// (transfer/alloc.go) and must agree on what they accept. Every
// session then runs to completion, so a rejected request must also
// leave the transfer intact.
func TestAllocationContract(t *testing.T) {
	g := dataset.NewGenerator(91)
	small := dataset.Chunk{Class: dataset.Small, Files: g.Uniform(6, 40*units.KB).Files, Parallelism: 1, Pipelining: 2}
	large := dataset.Chunk{Class: dataset.Large, Files: g.Uniform(3, 200*units.KB).Files, Parallelism: 2, Pipelining: 1}
	for i := range large.Files {
		large.Files[i].Name = "lg/" + large.Files[i].Name
	}
	plan := transfer.Plan{
		Chunks: []transfer.ChunkPlan{
			{Chunk: small, Channels: 1, Weight: 0.4, AcceptRealloc: true},
			{Chunk: large, Channels: 1, Weight: 0.6, AcceptRealloc: true},
		},
		ReallocOnComplete: true,
	}
	all := dataset.Dataset{Files: append(append([]dataset.File{}, small.Files...), large.Files...)}
	srv := synthServer(t, all, nil)

	executors := []struct {
		name string
		exec func() transfer.Executor
	}{
		{"sim", func() transfer.Executor { return transfer.NewSim(testbed.DIDCLAB()) }},
		{"proto", func() transfer.Executor {
			return &Executor{
				Client:      &Client{Addr: srv.Addr(), Counters: &Counters{}},
				Sink:        NewVerifySink(),
				Environment: testEnv(),
			}
		}},
	}
	cases := []struct {
		name    string
		apply   func(s transfer.Session, budget int) error
		wantErr bool
	}{
		{"SetTotalChannels zero", func(s transfer.Session, _ int) error { return s.SetTotalChannels(0) }, true},
		{"SetTotalChannels over budget", func(s transfer.Session, b int) error { return s.SetTotalChannels(b + 1) }, true},
		{"SetAllocation wrong length", func(s transfer.Session, _ int) error { return s.SetAllocation([]int{1}) }, true},
		{"SetAllocation negative entry", func(s transfer.Session, _ int) error { return s.SetAllocation([]int{-1, 2}) }, true},
		{"SetAllocation all zero", func(s transfer.Session, _ int) error { return s.SetAllocation([]int{0, 0}) }, true},
		{"SetAllocation over budget", func(s transfer.Session, b int) error { return s.SetAllocation([]int{b, 1}) }, true},
		{"valid redistribution", func(s transfer.Session, b int) error {
			if err := s.SetAllocation([]int{2, 1}); err != nil {
				return err
			}
			return s.SetTotalChannels(b)
		}, false},
	}
	for _, ex := range executors {
		for _, tc := range cases {
			t.Run(ex.name+"/"+tc.name, func(t *testing.T) {
				exec := ex.exec()
				sess, err := exec.Start(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				err = tc.apply(sess, exec.Env().MaxChannels)
				if tc.wantErr && err == nil {
					t.Error("request accepted, want rejected")
				}
				if !tc.wantErr && err != nil {
					t.Errorf("request rejected: %v", err)
				}
				r, err := sess.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if r.Bytes != plan.TotalBytes() {
					t.Errorf("moved %v, want %v", r.Bytes, plan.TotalBytes())
				}
			})
		}
	}
}
