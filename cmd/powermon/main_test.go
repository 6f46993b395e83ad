package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/units"
)

func TestRunOneSample(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no procfs on this host")
	}
	if err := run(30*time.Millisecond, 1, "1gbps"); err != nil {
		t.Fatal(err)
	}
	if err := run(time.Millisecond, 1, "junk"); err == nil {
		t.Error("bad NIC rate accepted")
	}
}

// TestBookReportsModelSourceInterval drives powermon's sampling over a
// fake procfs tree with an injected clock: the row it prints is the
// interval monitor.ModelSource booked, so the row's watts held for the
// interval are exactly the joules the source's total grew by.
func TestBookReportsModelSourceInterval(t *testing.T) {
	root := t.TempDir()
	write := func(busy, idle, rx, tx, sectors uint64) {
		t.Helper()
		files := map[string]string{
			"proc/stat": fmt.Sprintf("cpu  %d 0 0 %d 0 0 0\n", busy, idle),
			"proc/net/dev": "Inter-|   Receive |  Transmit\n face |bytes packets|bytes packets\n" +
				"    lo: 999 9 0 0 0 0 0 0 999 9 0 0 0 0 0 0\n" +
				fmt.Sprintf("  eth0: %d 100 0 0 0 0 0 0 %d 100 0 0 0 0 0 0\n", rx, tx),
			"proc/diskstats": fmt.Sprintf(" 8 0 sda 100 0 %d 0 100 0 0 0 0 0 0\n", sectors),
		}
		for rel, content := range files {
			path := filepath.Join(root, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 1000, 0, 0, 0)
	src, events := newModel(monitor.Monitor{Root: root}, units.Gbps)
	now := time.Unix(1000, 0)
	src.SetClock(func() time.Time { return now })
	if _, err := src.Total(); err != nil {
		t.Fatal(err)
	}

	// One busy second: 60% CPU, 50 MB received on a 1 Gbps NIC (40%),
	// 40 000 sectors read.
	write(600, 1400, 50_000_000, 1_000_000, 40_000)
	now = now.Add(time.Second)
	b, err := book(src, events)
	if err != nil {
		t.Fatal(err)
	}
	total, err := src.Total() // the clock has not moved: books nothing
	if err != nil {
		t.Fatal(err)
	}
	if b.CPU != 60 || b.NIC != 40 || b.Disk <= 0 {
		t.Errorf("row cpu %v%% nic %v%% disk %v%%, want 60, 40 and some disk load", b.CPU, b.NIC, b.Disk)
	}
	if b.Watts <= 0 || math.Abs(b.Watts*time.Second.Seconds()-float64(total)) > 1e-9 {
		t.Errorf("row says %v W over 1 s, the model source booked %v", b.Watts, total)
	}
	if _, err := book(src, events); err == nil {
		t.Error("a sample with no elapsed time printed a row")
	}
}
