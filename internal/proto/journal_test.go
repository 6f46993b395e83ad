package proto

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

func journalPathIn(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), JournalFileName)
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPathIn(t)
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []Receipt{
		{Name: "a.dat", Off: 0, N: 256 << 10, CRC: 0xDEADBEEF},
		{Name: "a.dat", Off: 256 << 10, N: 1234, CRC: 7},
		{Name: "sub/b.dat", Off: 99, N: 1, CRC: 0},
	}
	for _, r := range want {
		j.Append(r.Name, r.Off, r.N, r.CRC)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadJournal(path)
	if err != nil || torn {
		t.Fatalf("ReadJournal: torn=%v err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d receipts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("receipt %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, torn, err := ReadJournal(journalPathIn(t))
	if err != nil || torn || len(recs) != 0 {
		t.Errorf("missing journal: recs=%v torn=%v err=%v", recs, torn, err)
	}
}

func TestJournalTornTailDecode(t *testing.T) {
	path := journalPathIn(t)
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append("x", 0, 100, 1)
	j.Append("x", 100, 100, 2)
	j.Append("x", 200, 100, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncating mid-record severs the last receipt; the first two must
	// survive and the tear must be reported, never an error.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := ReadJournal(path)
	if err != nil || !torn || len(recs) != 2 {
		t.Fatalf("truncated: recs=%d torn=%v err=%v, want 2/true/nil", len(recs), torn, err)
	}

	// Garbling bytes inside the second record fails its CRC: decoding
	// stops there, one more receipt lost, still no error. Each record for
	// the one-byte name "x" is recFixedSize+1+4 bytes after the header.
	recSize := int64(recFixedSize + 1 + 4)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF}, int64(len(journalHeader))+recSize+5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, torn, err = ReadJournal(path)
	if err != nil || !torn || len(recs) != 1 {
		t.Fatalf("garbled: recs=%d torn=%v err=%v, want 1/true/nil", len(recs), torn, err)
	}
}

func TestJournalReopenRepairsTornTail(t *testing.T) {
	path := journalPathIn(t)
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append("x", 0, 100, 1)
	j.Append("x", 100, 100, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Reopening must truncate back to the last clean record — records
	// appended after a tear would be invisible to the decoder.
	j, err = OpenJournal(path, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append("x", 200, 100, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := ReadJournal(path)
	if err != nil || torn {
		t.Fatalf("after repair: torn=%v err=%v", torn, err)
	}
	if len(recs) != 2 || recs[0].Off != 0 || recs[1].Off != 200 {
		t.Errorf("after repair: recs=%+v, want offsets 0 and 200", recs)
	}
}

func TestJournalSyncModeIsImmediatelyDurable(t *testing.T) {
	path := journalPathIn(t)
	reg := obs.NewRegistry()
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append("x", 0, 42, 9)
	// No Close, no Sync: every append in sync mode commits on its own.
	recs, torn, err := ReadJournal(path)
	if err != nil || torn || len(recs) != 1 {
		t.Fatalf("sync-mode append not durable: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["journal_appends"] != 1 {
		t.Errorf("journal_appends = %d, want 1", snap.Counters["journal_appends"])
	}
	if snap.Counters["journal_fsyncs"] < 1 {
		t.Errorf("journal_fsyncs = %d, want ≥1", snap.Counters["journal_fsyncs"])
	}
}

func TestJournalRejectsUnencodableReceipts(t *testing.T) {
	path := journalPathIn(t)
	j, err := OpenJournal(path, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, maxJournalName+1)
	for i := range long {
		long[i] = 'n'
	}
	j.Append(string(long), 0, 10, 1) // name too long
	j.Append("x", -1, 10, 1)         // negative offset
	j.Append("x", 0, -1, 1)          // negative length
	j.Append("x", 0, 10, 1)          // the only valid one
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := ReadJournal(path)
	if err != nil || torn || len(recs) != 1 || recs[0].Name != "x" {
		t.Errorf("unencodable receipts leaked: recs=%+v torn=%v err=%v", recs, torn, err)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	j.Append("x", 0, 1, 2)
	if err := j.Sync(); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if err := j.Err(); err != nil {
		t.Error(err)
	}
}

// markPartial materializes what a crashed preallocated transfer leaves
// behind: a full-size destination file holding real content only on the
// given [off,n) spans (holes elsewhere) plus the partial marker. It
// returns per-span CRCs for journaling.
func markPartial(t *testing.T, root string, f dataset.File, spans [][2]int64) []uint32 {
	t.Helper()
	buf := make([]byte, f.Size)
	crcs := make([]uint32, len(spans))
	for i, s := range spans {
		FillSynth(f.Name, s[0], buf[s[0]:s[0]+s[1]])
		crcs[i] = crc32.Checksum(buf[s[0]:s[0]+s[1]], crcTable)
	}
	path := filepath.Join(root, filepath.FromSlash(f.Name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+PartialMarkerSuffix, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return crcs
}

func checkPlanPartition(t *testing.T, plan *RecoveryPlan, total units.Bytes) {
	t.Helper()
	if plan.Skipped+plan.Verified+plan.Refetch != total {
		t.Errorf("plan does not partition the dataset: skipped=%v + verified=%v + refetch=%v != %v",
			plan.Skipped, plan.Verified, plan.Refetch, total)
	}
}

func TestPlanResumeJournalPlansGapsOnly(t *testing.T) {
	root := t.TempDir()
	f := dataset.File{Name: "holes.dat", Size: 1000}
	// Real content at [0,300) and [500,800); holes at [300,500) and
	// [800,1000).
	crcs := markPartial(t, root, f, [][2]int64{{0, 300}, {500, 300}})

	jp := filepath.Join(root, JournalFileName)
	j, err := OpenJournal(jp, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(f.Name, 0, 300, crcs[0])
	j.Append(f.Name, 500, 300, crcs[1])
	// A lying receipt: claims the first hole is present. The disk bytes
	// are zeros, the hash cannot match, the span must refetch.
	j.Append(f.Name, 300, 200, 0x12345678)
	// An out-of-bounds receipt must be ignored outright.
	j.Append(f.Name, 900, 200, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	plan, err := PlanResume(root, []dataset.File{f}, ResumeOptions{JournalPath: jp, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanPartition(t, plan, f.Size)
	if plan.Verified != 600 || plan.Refetch != 400 || plan.Skipped != 0 {
		t.Errorf("plan books verified=%v refetch=%v skipped=%v, want 600/400/0",
			plan.Verified, plan.Refetch, plan.Skipped)
	}
	gaps := plan.ByFile[f.Name]
	if len(gaps) != 2 {
		t.Fatalf("planned %d gaps, want 2: %+v", len(gaps), gaps)
	}
	if gaps[0].Offset != 300 || gaps[0].Length != 200 {
		t.Errorf("first gap = %+v, want [300,500)", gaps[0])
	}
	if gaps[1].Offset != 800 || gaps[1].Remaining() != 200 {
		t.Errorf("second gap = %+v, want [800,EOF)", gaps[1])
	}
	snap := reg.Snapshot()
	if snap.Counters["journal_recovered_bytes"] != 600 {
		t.Errorf("journal_recovered_bytes = %d, want 600", snap.Counters["journal_recovered_bytes"])
	}
	if snap.Counters["recovery_refetch_bytes"] != 400 {
		t.Errorf("recovery_refetch_bytes = %d, want 400", snap.Counters["recovery_refetch_bytes"])
	}
}

func TestPlanResumeLiftsMarkerWhenFullyVerified(t *testing.T) {
	root := t.TempDir()
	f := dataset.File{Name: "whole.dat", Size: 700}
	crcs := markPartial(t, root, f, [][2]int64{{0, 400}, {400, 300}})
	jp := filepath.Join(root, JournalFileName)
	j, err := OpenJournal(jp, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(f.Name, 0, 400, crcs[0])
	j.Append(f.Name, 400, 300, crcs[1])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	plan, err := PlanResume(root, []dataset.File{f}, ResumeOptions{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanPartition(t, plan, f.Size)
	if len(plan.Ranges) != 0 || plan.Verified != f.Size {
		t.Errorf("fully-journaled file still plans work: %+v", plan)
	}
	marker := filepath.Join(root, f.Name+PartialMarkerSuffix)
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Errorf("marker not lifted after full verification (stat err: %v)", err)
	}
}

func TestPlanResumeMarkedWithoutJournalRefetchesWhole(t *testing.T) {
	root := t.TempDir()
	f := dataset.File{Name: "marked.dat", Size: 500}
	markPartial(t, root, f, [][2]int64{{0, 500}}) // content complete, but marked
	plan, err := PlanResume(root, []dataset.File{f}, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanPartition(t, plan, f.Size)
	// No journal: the marker means the length lies, and with nothing to
	// verify against the only sound plan is a whole refetch.
	if plan.Verified != 0 || plan.Refetch != f.Size || len(plan.Ranges) != 1 {
		t.Errorf("marked file without journal: %+v", plan)
	}
}

func TestPlanResumeReportsTornJournal(t *testing.T) {
	root := t.TempDir()
	f := dataset.File{Name: "t.dat", Size: 400}
	crcs := markPartial(t, root, f, [][2]int64{{0, 400}})
	jp := filepath.Join(root, JournalFileName)
	j, err := OpenJournal(jp, JournalOptions{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(f.Name, 0, 400, crcs[0])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	plan, err := PlanResume(root, []dataset.File{f}, ResumeOptions{JournalPath: jp})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanPartition(t, plan, f.Size)
	if !plan.JournalTorn {
		t.Error("torn journal tail not reported")
	}
	// The severed receipt was the only one: the marked file degrades to
	// a whole refetch, never to trusting unverifiable bytes.
	if plan.Verified != 0 || plan.Refetch != f.Size {
		t.Errorf("torn journal plan: %+v", plan)
	}
}
