package chaos_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/didclab/eta/internal/chaos"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/units"
)

// Crash-recovery soak: a REAL child process (this test binary re-execed
// in child mode) transfers into a shared destination with a receipt
// journal, and the parent SIGKILLs it at scripted byte offsets. Each
// resume cycle must plan strictly less refetch than the last — the
// journal is doing its job — and the final tree must be byte-identical
// to the source. See crash.go for the harness.

const (
	crashChildEnv = "ETA_CRASH_CHILD"
	crashAddrEnv  = "ETA_CRASH_ADDR"
	crashDestEnv  = "ETA_CRASH_DEST"
	crashFsyncEnv = "ETA_CRASH_FSYNC"
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		os.Exit(crashChild())
	}
	os.Exit(m.Run())
}

// crashChild is the transfer process under test: plan a verified resume
// from the journal, report the plan, fetch the gaps while journaling
// receipts, and remove the journal once the destination proves
// complete. It reports durable progress on stdout for RunUntilOffset
// and is built to be SIGKILLed at any instant.
func crashChild() int {
	addr := os.Getenv(crashAddrEnv)
	dest := os.Getenv(crashDestEnv)
	fsync := 2 * time.Millisecond
	if v := os.Getenv(crashFsyncEnv); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return childFail(fmt.Errorf("bad %s: %v", crashFsyncEnv, err))
		}
		fsync = d
	}
	jpath := filepath.Join(dest, proto.JournalFileName)

	client := &proto.Client{Addr: addr, VerifyChecksums: true}
	files, err := client.List()
	if err != nil {
		return childFail(err)
	}
	var total units.Bytes
	for _, f := range files {
		total += f.Size
	}
	plan, err := proto.PlanResume(dest, files, proto.ResumeOptions{JournalPath: jpath})
	if err != nil {
		return childFail(err)
	}
	// The plan line must precede any fetching: the parent reads it even
	// from runs it kills mid-transfer.
	fmt.Printf("PLAN skipped=%d verified=%d refetch=%d torn=%v ranges=%d total=%d\n",
		int64(plan.Skipped), int64(plan.Verified), int64(plan.Refetch),
		plan.JournalTorn, len(plan.Ranges), int64(total))
	if len(plan.Ranges) == 0 {
		os.Remove(jpath)
		fmt.Println("DONE")
		return 0
	}

	jr, err := proto.OpenJournal(jpath, proto.JournalOptions{FsyncInterval: fsync})
	if err != nil {
		return childFail(err)
	}
	client.Journal = jr
	stopReport, err := reportDurable(jr)
	if err != nil {
		return childFail(err)
	}
	ds := proto.NewDirSink(dest)
	ds.SyncOnClose = true
	ex := &proto.Executor{
		Client:      client,
		Sink:        ds,
		Environment: testEnv(),
		Resume:      plan,
		MaxRetries:  4,
	}
	chunk := dataset.Chunk{Class: dataset.Large, Files: files, Parallelism: 2, Pipelining: 2}
	if _, err := ex.Run(context.Background(), planForChunk(chunk, 2)); err != nil {
		return childFail(err)
	}
	stopReport()
	if err := jr.Close(); err != nil {
		return childFail(fmt.Errorf("journal: %w", err))
	}
	final, err := proto.PlanResume(dest, files, proto.ResumeOptions{JournalPath: jpath})
	if err != nil {
		return childFail(err)
	}
	if len(final.Ranges) != 0 {
		return childFail(fmt.Errorf("still %d ranges missing after a clean run", len(final.Ranges)))
	}
	os.Remove(jpath)
	fmt.Println("DONE")
	return 0
}

func childFail(err error) int {
	fmt.Println("ERROR:", err)
	return 1
}

// reportDurable reports the child's progress for the crash harness as
// the payload bytes whose receipts this run has made durable: after each
// completed Journal.Sync it sums the receipts in the journal file, less
// what the file held when the run began. Counting bytes as they are
// received instead would let the kill land before the group commit has
// written a single receipt of the run, and the next cycle would plan no
// less refetch than this one. stop ends the reporting.
func reportDurable(jr *proto.Journal) (stop func(), err error) {
	base, err := journaledBytes(jr.Path())
	if err != nil {
		return nil, err
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
			if jr.Sync() != nil {
				continue
			}
			n, err := journaledBytes(jr.Path())
			if err != nil || n-base == last {
				continue
			}
			last = n - base
			fmt.Println(chaos.FormatProgress(last))
		}
	}()
	return func() { close(quit); <-done }, nil
}

// journaledBytes sums the payload bytes of the receipts in the journal
// file at path, up to any torn tail.
func journaledBytes(path string) (int64, error) {
	recs, _, err := proto.ReadJournal(path)
	var n int64
	for _, r := range recs {
		n += r.N
	}
	return n, err
}

// planLine is the child's parsed PLAN report.
type planLine struct {
	skipped, verified, refetch, total int64
	ranges                            int
	torn                              bool
}

func parsePlan(t *testing.T, lines []string) planLine {
	t.Helper()
	for _, l := range lines {
		if !strings.HasPrefix(l, "PLAN ") {
			continue
		}
		var p planLine
		if _, err := fmt.Sscanf(l, "PLAN skipped=%d verified=%d refetch=%d torn=%t ranges=%d total=%d",
			&p.skipped, &p.verified, &p.refetch, &p.torn, &p.ranges, &p.total); err != nil {
			t.Fatalf("bad plan line %q: %v", l, err)
		}
		return p
	}
	t.Fatalf("child never reported a PLAN line; lines: %v", lines)
	return planLine{}
}

// checkPartition asserts the recovery invariant: every source byte is
// accounted for exactly once — already complete, journal-verified, or
// planned for refetch. Verified bytes never refetch.
func checkPartition(t *testing.T, p planLine) {
	t.Helper()
	if p.skipped+p.verified+p.refetch != p.total {
		t.Errorf("recovery plan does not partition the dataset: skipped=%d + verified=%d + refetch=%d != total=%d",
			p.skipped, p.verified, p.refetch, p.total)
	}
}

func runCrashChild(t *testing.T, addr, dest string, killAt int64) chaos.CrashResult {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashAddrEnv+"="+addr,
		crashDestEnv+"="+dest,
		crashFsyncEnv+"=2ms",
	)
	res, err := chaos.RunUntilOffset(cmd, killAt)
	if err != nil {
		t.Fatalf("crash child: %v (lines: %v)", err, res.Lines)
	}
	for _, l := range res.Lines {
		if strings.HasPrefix(l, "ERROR:") {
			t.Fatalf("crash child failed: %s", l)
		}
	}
	return res
}

func noLeftoverMarkers(t *testing.T, dest string) {
	t.Helper()
	err := filepath.WalkDir(dest, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), proto.PartialMarkerSuffix) {
			t.Errorf("partial marker survived a complete delivery: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume soak in -short mode")
	}
	ds := dataset.NewGenerator(97).Uniform(8, 768*units.KB)
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.PerStreamRate = 80 * units.Mbps // pace it so kills land mid-flight
	})
	dest := t.TempDir()

	// Each offset is per-run NEW bytes (the child counts the receipts
	// this run has made durable), so every cycle makes durable progress
	// before dying and the planned refetch must strictly shrink.
	offsets := []int64{768 << 10, 1280 << 10, 1792 << 10}
	var prev planLine
	for i, off := range offsets {
		res := runCrashChild(t, srv.Addr(), dest, off)
		if !res.Killed {
			t.Fatalf("cycle %d: child finished before the scripted kill at %d (progress %d)", i, off, res.Progress)
		}
		p := parsePlan(t, res.Lines)
		checkPartition(t, p)
		if i == 0 {
			if p.verified != 0 || p.skipped != 0 || p.refetch != p.total {
				t.Errorf("cold start should plan a full refetch, got %+v", p)
			}
		} else {
			if p.refetch >= prev.refetch {
				t.Errorf("cycle %d: planned refetch did not strictly decrease: %d -> %d", i, prev.refetch, p.refetch)
			}
			if p.skipped+p.verified <= prev.skipped+prev.verified {
				t.Errorf("cycle %d: settled bytes did not grow: %d -> %d", i, prev.skipped+prev.verified, p.skipped+p.verified)
			}
		}
		prev = p
	}

	// Final cycle: no kill. Delivery must complete, the plan must shrink
	// once more, and the tree must be byte-identical to the source.
	res := runCrashChild(t, srv.Addr(), dest, -1)
	if res.Killed || res.ExitCode != 0 {
		t.Fatalf("final cycle did not complete cleanly: killed=%v exit=%d lines=%v", res.Killed, res.ExitCode, res.Lines)
	}
	p := parsePlan(t, res.Lines)
	checkPartition(t, p)
	if p.refetch >= prev.refetch {
		t.Errorf("final cycle: planned refetch did not strictly decrease: %d -> %d", prev.refetch, p.refetch)
	}
	assertContent(t, dest, ds)
	noLeftoverMarkers(t, dest)
	if _, err := os.Stat(filepath.Join(dest, proto.JournalFileName)); !os.IsNotExist(err) {
		t.Errorf("receipt journal survived a proven-complete delivery (stat err: %v)", err)
	}
}

func TestCrashRecoveryTornJournalTail(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume soak in -short mode")
	}
	ds := dataset.NewGenerator(98).Uniform(6, 768*units.KB)
	srv := synthServer(t, ds, func(c *proto.ServerConfig) {
		c.PerStreamRate = 80 * units.Mbps
	})
	dest := t.TempDir()

	res := runCrashChild(t, srv.Addr(), dest, 1<<20)
	if !res.Killed {
		t.Fatalf("child finished before the scripted kill (progress %d)", res.Progress)
	}
	// Sever the journal tail mid-record and garble what remains: the
	// resume must report the tear, trust nothing past it, and still
	// deliver a byte-identical tree — torn tails degrade to refetch,
	// never to corruption.
	jpath := filepath.Join(dest, proto.JournalFileName)
	if err := chaos.TornTail(jpath, 13, 64); err != nil {
		t.Fatal(err)
	}

	res = runCrashChild(t, srv.Addr(), dest, -1)
	if res.Killed || res.ExitCode != 0 {
		t.Fatalf("resume after torn tail did not complete: killed=%v exit=%d lines=%v", res.Killed, res.ExitCode, res.Lines)
	}
	p := parsePlan(t, res.Lines)
	checkPartition(t, p)
	if !p.torn {
		t.Errorf("resume did not report the torn journal tail: %+v", p)
	}
	assertContent(t, dest, ds)
	noLeftoverMarkers(t, dest)
}
