// Quickstart: start an in-process transfer server with a synthetic
// dataset, then let the High Throughput Energy-Efficient algorithm
// (HTEE) move it over real TCP sockets — searching concurrency levels
// and settling on the most energy-efficient one — with end-to-end
// integrity verification.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

func main() {
	// A 256 MB synthetic dataset of mixed file sizes.
	ds := dataset.NewGenerator(42).Mixed(256*units.MB, 200*units.KB, 32*units.MB)
	fmt.Printf("dataset: %d files, %v\n", ds.Count(), ds.TotalSize())

	// Server with WAN-ish shaping: 40 Mbps per stream, 400 Mbps link,
	// 20 ms control RTT — so parallelism, concurrency and pipelining
	// all matter, exactly like on the paper's testbeds.
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:         proto.NewSynthStore(ds),
		PerStreamRate: 40 * units.Mbps,
		LinkRate:      400 * units.Mbps,
		ControlRTT:    20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client := &proto.Client{Addr: srv.Addr()}
	files, err := client.List()
	if err != nil {
		log.Fatal(err)
	}

	// Energy estimation: hardware RAPL counters when available, else
	// the paper's fine-grained power model over procfs utilization.
	energy, usedRAPL, err := monitor.AutoSource(monitor.Monitor{},
		monitor.LocalServerModel(runtime.NumCPU(), 10*units.Gbps, 0),
		monitor.LocalPowerModel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("energy source: RAPL=%v\n", usedRAPL)

	sink := proto.NewVerifySink()
	exec := &proto.Executor{
		Client: client,
		Sink:   sink,
		Energy: energy,
		Environment: transfer.Environment{
			Path: netem.Path{
				Bandwidth:       400 * units.Mbps,
				RTT:             20 * time.Millisecond,
				MaxTCPBuffer:    4 * units.MB,
				EffStreamBuffer: 512 * units.KB,
			},
			MaxChannels:    8,
			ServersPerSite: 1,
		},
	}

	start := time.Now()
	res, err := core.HTEE(context.Background(), exec, dataset.Dataset{Files: files}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTEE settled on concurrency %d\n", res.ChosenConcurrency)
	fmt.Printf("moved %v in %v → %v, estimated transfer energy %v\n",
		res.Bytes, time.Since(start).Round(time.Millisecond), res.Throughput, res.EndSystemEnergy)
	if bad := sink.Corrupt(); len(bad) > 0 {
		log.Fatalf("integrity check failed: %v", bad)
	}
	fmt.Println("integrity: every byte verified against the synthetic generator")
}
