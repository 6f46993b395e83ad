package proto

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/units"
)

func TestFileRangeRemaining(t *testing.T) {
	f := dataset.File{Name: "x", Size: 100}
	if (FileRange{File: f}).Remaining() != 100 {
		t.Error("whole file remaining wrong")
	}
	if (FileRange{File: f, Offset: 40}).Remaining() != 60 {
		t.Error("partial remaining wrong")
	}
	if (FileRange{File: f, Offset: 100}).Remaining() != 0 {
		t.Error("complete file should have 0 remaining")
	}
	if (FileRange{File: f, Offset: 150}).Remaining() != 0 {
		t.Error("over-long offset should clamp to 0")
	}
}

func TestResumeRangesPlanning(t *testing.T) {
	root := t.TempDir()
	files := []dataset.File{
		{Name: "done.bin", Size: 100},
		{Name: "partial.bin", Size: 200},
		{Name: "sub/missing.bin", Size: 300},
	}
	if err := os.WriteFile(filepath.Join(root, "done.bin"), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "partial.bin"), make([]byte, 80), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanResume(root, files, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranges := plan.Ranges
	if plan.Skipped != 180 { // 100 complete + 80 partial
		t.Errorf("skipped = %v, want 180", plan.Skipped)
	}
	if len(ranges) != 2 {
		t.Fatalf("planned %d ranges, want 2", len(ranges))
	}
	if ranges[0].File.Name != "partial.bin" || ranges[0].Offset != 80 {
		t.Errorf("partial range wrong: %+v", ranges[0])
	}
	if ranges[1].File.Name != "sub/missing.bin" || ranges[1].Offset != 0 {
		t.Errorf("missing range wrong: %+v", ranges[1])
	}
}

func TestResumeRangesRejectsEscapes(t *testing.T) {
	for _, name := range []string{
		"../evil",
		"..",
		"a/../../evil",
		"/abs/evil",
	} {
		if _, err := PlanResume(t.TempDir(), []dataset.File{{Name: name, Size: 1}}, ResumeOptions{}); err == nil {
			t.Errorf("path escape %q accepted", name)
		}
	}
}

func TestResumeRangesAcceptsDotPrefixedNames(t *testing.T) {
	// A name that merely *starts* with two dots is a legitimate file, not
	// an escape: only a leading ".." path element leaves the root.
	root := t.TempDir()
	files := []dataset.File{
		{Name: "..config", Size: 100},
		{Name: "..d/file.bin", Size: 50},
	}
	if err := os.WriteFile(filepath.Join(root, "..config"), make([]byte, 40), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanResume(root, files, ResumeOptions{})
	if err != nil {
		t.Fatalf("dot-prefixed names rejected: %v", err)
	}
	if plan.Skipped != 40 {
		t.Errorf("skipped = %v, want 40", plan.Skipped)
	}
	ranges := plan.Ranges
	if len(ranges) != 2 || ranges[0].File.Name != "..config" || ranges[0].Offset != 40 ||
		ranges[1].File.Name != "..d/file.bin" || ranges[1].Offset != 0 {
		t.Errorf("resume plan wrong: %+v", ranges)
	}
}

func TestResumedTransferCompletesFile(t *testing.T) {
	// Interrupt simulation: destination already holds a correct prefix;
	// the resumed ranged fetch must complete the file byte-exactly.
	ds := dataset.Dataset{Files: []dataset.File{{Name: "big.dat", Size: units.Bytes(900_000)}}}
	srv := synthServer(t, ds, func(c *ServerConfig) { c.BlockSize = 64 * 1024 })

	dst := t.TempDir()
	prefix := make([]byte, 300_000)
	FillSynth("big.dat", 0, prefix)
	if err := os.WriteFile(filepath.Join(dst, "big.dat"), prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	files, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanResume(dst, files, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Skipped != 300_000 || len(plan.Ranges) != 1 || plan.Ranges[0].Offset != 300_000 {
		t.Fatalf("resume plan wrong: skipped=%v ranges=%+v", plan.Skipped, plan.Ranges)
	}

	ch, err := client.OpenChannel(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewDirSink(dst)
	res, err := ch.FetchRanges(plan.Ranges, 2, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 600_000 {
		t.Errorf("resumed fetch moved %v, want 600000", res.Bytes)
	}

	got, err := os.ReadFile(filepath.Join(dst, "big.dat"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 900_000)
	FillSynth("big.dat", 0, want)
	if !bytes.Equal(got, want) {
		t.Error("resumed file content wrong")
	}

	// A second resume plan finds nothing left to do.
	plan, err = PlanResume(dst, files, ResumeOptions{})
	if err != nil || len(plan.Ranges) != 0 || plan.Skipped != 900_000 {
		t.Errorf("post-completion plan: %+v err=%v", plan, err)
	}
}

func TestRangedFetchChecksumCoversRangeOnly(t *testing.T) {
	// The server's DONE checksum covers the requested range; the
	// client's combined block CRCs (normalized by the range offset)
	// must match it.
	ds := dataset.Dataset{Files: []dataset.File{{Name: "r.dat", Size: 500_000}}}
	srv := synthServer(t, ds, func(c *ServerConfig) { c.BlockSize = 32 * 1024 })
	client := &Client{Addr: srv.Addr(), VerifyChecksums: true}
	ch, err := client.OpenChannel(3)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	r := FileRange{File: ds.Files[0], Offset: 123_456}
	if _, err := ch.FetchRanges([]FileRange{r}, 1, NewVerifySink()); err != nil {
		t.Fatalf("ranged checksum fetch failed: %v", err)
	}
}

func TestRealExecutorResume(t *testing.T) {
	// Half the dataset is already at the destination; the executor must
	// move only the remainder.
	ds := dataset.NewGenerator(31).Uniform(8, 200*units.KB)
	srv := synthServer(t, ds, nil)

	resume := resumeFrom(t, ds.Files, map[string]units.Bytes{
		ds.Files[0].Name: 200 * units.KB, // complete
		ds.Files[1].Name: 50 * units.KB,  // partial
	})
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), Counters: &Counters{}, VerifyChecksums: true},
		Sink:        NewVerifySink(),
		Environment: testEnv(),
		Resume:      resume,
	}
	plan := planFor(ds, 2, 1, 2)
	r, err := exec.Run(nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := ds.TotalSize() - 250*units.KB
	if r.Bytes != want {
		t.Errorf("resumed executor moved %v, want %v", r.Bytes, want)
	}
}

func TestRealExecutorFullyResumed(t *testing.T) {
	ds := dataset.NewGenerator(32).Uniform(2, 10*units.KB)
	srv := synthServer(t, ds, nil)
	resume := resumeFrom(t, ds.Files, map[string]units.Bytes{
		ds.Files[0].Name: 10 * units.KB,
		ds.Files[1].Name: 10 * units.KB,
	})
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), Counters: &Counters{}},
		Sink:        NewVerifySink(),
		Environment: testEnv(),
		Resume:      resume,
	}
	r, err := exec.Run(nil, planFor(ds, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes != 0 {
		t.Errorf("fully-resumed run moved %v bytes", r.Bytes)
	}
}

// resumeFrom plans the resume of files against a destination holding
// the first have[name] bytes of each named file.
func resumeFrom(t *testing.T, files []dataset.File, have map[string]units.Bytes) *RecoveryPlan {
	t.Helper()
	root := t.TempDir()
	for name, n := range have {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := PlanResume(root, files, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
