// Command powermon prints this host's live component utilization and
// the power the paper's fine-grained model (§2.2) books for it, plus
// hardware RAPL readings where available — a tiny standalone view of
// the measurement layer the transfer algorithms rely on. Each row is
// one interval exactly as monitor.ModelSource books it during a
// transfer.
//
// Usage:
//
//	powermon [-interval 2s] [-count 10] [-nic 1gbps]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/didclab/eta/internal/cliutil"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

func main() {
	interval := flag.Duration("interval", 2*time.Second, "sampling interval")
	count := flag.Int("count", 0, "number of samples (0 = run forever)")
	nic := flag.String("nic", "10gbps", "NIC line rate for utilization scaling")
	flag.Parse()

	if err := run(*interval, *count, *nic); err != nil {
		fmt.Fprintln(os.Stderr, "powermon:", err)
		os.Exit(1)
	}
}

func run(interval time.Duration, count int, nicStr string) error {
	nicRate, err := cliutil.ParseRate(nicStr)
	if err != nil {
		return err
	}
	mon := monitor.Monitor{}
	src, events := newModel(mon, nicRate)

	rapl, haveRAPL, err := monitor.OpenRAPL(mon)
	if err != nil {
		return err
	}
	var lastRAPL units.Joules
	if haveRAPL {
		if lastRAPL, err = rapl.Total(); err != nil {
			haveRAPL = false
		}
	}
	// The first Total primes the counters and books nothing.
	if _, err := src.Total(); err != nil {
		return err
	}

	fmt.Printf("%-8s %6s %6s %6s %9s", "time", "cpu%", "nic%", "disk%", "model(W)")
	if haveRAPL {
		fmt.Printf(" %9s", "rapl(W)")
	}
	fmt.Println()

	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		b, err := book(src, events)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %6.1f %6.1f %6.1f %9.2f",
			time.Now().Format("15:04:05"), b.CPU, b.NIC, b.Disk, b.Watts)
		if haveRAPL {
			if total, err := rapl.Total(); err == nil {
				fmt.Printf(" %9.2f", float64(total-lastRAPL)/interval.Seconds())
				lastRAPL = total
			}
		}
		fmt.Println()
	}
	return nil
}

// newModel returns the model estimator energytransfer books this host
// with, recording each booked interval on the returned log.
func newModel(mon monitor.Monitor, nic units.Rate) (*monitor.ModelSource, *obs.Log) {
	src := monitor.NewModelSource(mon, monitor.LocalServerModel(runtime.NumCPU(), nic, 0), monitor.LocalPowerModel)
	src.Events = obs.NewLog(nil)
	return src, src.Events
}

// booked is one interval as the model estimator booked it: the fields
// of its energy_model_sample event.
type booked struct {
	CPU   float64 `json:"cpu_pct"`
	NIC   float64 `json:"nic_pct"`
	Disk  float64 `json:"disk_pct"`
	Watts float64 `json:"watts"`
}

// book has src book the interval since its last sample and returns that
// interval as src recorded it on events.
func book(src *monitor.ModelSource, events *obs.Log) (booked, error) {
	var b booked
	seq := events.Seq()
	if _, err := src.Total(); err != nil {
		return b, err
	}
	if events.Seq() == seq {
		return b, errors.New("no time elapsed since the last sample")
	}
	return b, json.Unmarshal(events.Tail(1)[0], &b)
}
