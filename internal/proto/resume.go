package proto

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

// FileRange is a contiguous span of one file — the unit of resumable
// transfers. A zero Offset with a zero Length fetches the whole file; a
// zero Length alone runs through EOF (a suffix resume); a non-zero
// Length is a fine-grained mid-file range, the shape journal-verified
// recovery plans for the gaps between receipts.
type FileRange struct {
	File   dataset.File
	Offset units.Bytes
	// Length bounds the range; 0 means through the end of the file.
	Length units.Bytes
}

// Remaining returns the bytes the range will move.
func (r FileRange) Remaining() units.Bytes {
	if r.Offset >= r.File.Size {
		return 0
	}
	rem := r.File.Size - r.Offset
	if r.Length > 0 && r.Length < rem {
		rem = r.Length
	}
	return rem
}

// WholeFiles wraps files as full-fetch ranges.
func WholeFiles(files []dataset.File) []FileRange {
	ranges := make([]FileRange, len(files))
	for i, f := range files {
		ranges[i] = FileRange{File: f}
	}
	return ranges
}

// ResumeOptions configures PlanResume.
type ResumeOptions struct {
	// JournalPath points at the destination's block-receipt journal;
	// empty disables journal-verified recovery (marked files refetch
	// whole, the pre-journal behavior).
	JournalPath string
	// Metrics receives journal_recovered_bytes/recovery_refetch_bytes;
	// optional.
	Metrics *obs.Registry
	// Events receives one recovery_planned event; optional.
	Events *obs.Log
}

// RecoveryPlan is the minimal transfer completing a destination tree.
type RecoveryPlan struct {
	// Ranges is every range still to fetch, in file order.
	Ranges []FileRange
	// ByFile maps each incomplete file's name to its ranges. A file
	// with no entry is already complete at the destination.
	ByFile map[string][]FileRange
	// Skipped counts bytes trusted without the journal: complete files
	// and the length-implied prefixes of unmarked partial files.
	Skipped units.Bytes
	// Verified counts bytes of marked files proven present by replaying
	// the journal and re-hashing the destination ranges it claims.
	Verified units.Bytes
	// Refetch counts the bytes the plan will move. Skipped + Verified +
	// Refetch always equals the dataset's total size.
	Refetch units.Bytes
	// JournalTorn reports that the journal decode stopped at a
	// truncated or garbled tail (expected after a crash; the receipts
	// before the tear were still used).
	JournalTorn bool
}

// destFilePath confines name to the destination root, rejecting only a
// leading ".." *path element*; a name that merely starts with two dots
// ("..config") is legitimate.
func destFilePath(root, name string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("proto: path %q escapes destination root", name)
	}
	return filepath.Join(root, clean), nil
}

// PlanResume inspects a DirSink destination tree and plans the minimal
// transfer completing it. Files already at full size are skipped,
// unmarked partial files resume from their current length, and missing
// files fetch whole. Files carrying the partial marker — preallocated,
// so their length lies — are recovered through the receipt journal:
// every journaled range is re-read from disk and re-hashed, the verified
// ranges are kept, and only the gaps are planned for refetch. Nothing
// the journal claims is trusted without matching bytes on disk, so a
// lying, stale, or torn journal degrades to refetching more, never to
// corruption. Without a journal a marked file refetches whole.
func PlanResume(root string, files []dataset.File, opt ResumeOptions) (*RecoveryPlan, error) {
	receipts, torn, err := loadReceipts(opt.JournalPath)
	if err != nil {
		return nil, err
	}
	plan := &RecoveryPlan{ByFile: make(map[string][]FileRange), JournalTorn: torn}
	for _, f := range files {
		path, err := destFilePath(root, f.Name)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(path + partialMarkerSuffix); err == nil {
			// Preallocated but unfinished: the length lies. Recover what
			// the journal can prove, refetch the gaps.
			verified, gaps := recoverMarked(path, f, receipts[f.Name])
			plan.Verified += verified
			if len(gaps) == 0 {
				// Every byte re-hashed clean: the file is complete, the
				// marker just outlived the crash. Lift it.
				if err := os.Remove(path + partialMarkerSuffix); err != nil && !os.IsNotExist(err) {
					return nil, err
				}
				continue
			}
			for _, g := range gaps {
				plan.Refetch += g.Remaining()
			}
			plan.ByFile[f.Name] = gaps
			plan.Ranges = append(plan.Ranges, gaps...)
			continue
		}
		info, err := os.Stat(path)
		switch {
		case err == nil && units.Bytes(info.Size()) >= f.Size:
			plan.Skipped += f.Size
			continue
		case err == nil:
			have := units.Bytes(info.Size())
			plan.Skipped += have
			r := FileRange{File: f, Offset: have}
			plan.Refetch += r.Remaining()
			plan.ByFile[f.Name] = []FileRange{r}
			plan.Ranges = append(plan.Ranges, r)
		case os.IsNotExist(err):
			r := FileRange{File: f}
			plan.Refetch += r.Remaining()
			plan.ByFile[f.Name] = []FileRange{r}
			plan.Ranges = append(plan.Ranges, r)
		default:
			return nil, err
		}
	}
	opt.Metrics.Counter("journal_recovered_bytes").Add(int64(plan.Verified))
	opt.Metrics.Counter("recovery_refetch_bytes").Add(int64(plan.Refetch))
	opt.Events.Emit(obs.EvRecoveryPlanned,
		"files_incomplete", len(plan.ByFile),
		"ranges", len(plan.Ranges),
		"skipped_bytes", int64(plan.Skipped),
		"verified_bytes", int64(plan.Verified),
		"refetch_bytes", int64(plan.Refetch),
		"journal_torn", plan.JournalTorn)
	return plan, nil
}

// loadReceipts reads the journal (if any) and keeps, per file and per
// block span, the most recent receipt — a block refetched after a
// checksum failure appends a newer record whose CRC supersedes the
// older one.
func loadReceipts(path string) (map[string][]Receipt, bool, error) {
	if path == "" {
		return nil, false, nil
	}
	recs, torn, err := ReadJournal(path)
	if err != nil {
		return nil, torn, err
	}
	type span struct {
		off, n int64
	}
	latest := make(map[string]map[span]uint32)
	for _, r := range recs {
		m := latest[r.Name]
		if m == nil {
			m = make(map[span]uint32)
			latest[r.Name] = m
		}
		m[span{r.Off, r.N}] = r.CRC
	}
	out := make(map[string][]Receipt, len(latest))
	for name, m := range latest {
		rs := make([]Receipt, 0, len(m))
		for s, crc := range m {
			rs = append(rs, Receipt{Name: name, Off: s.off, N: s.n, CRC: crc})
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Off < rs[j].Off })
		out[name] = rs
	}
	return out, torn, nil
}

// recoverMarked re-verifies a marked file's journaled receipts against
// the bytes on disk and returns the verified byte count plus the gap
// ranges still to fetch. Any receipt that is out of bounds, unreadable,
// or hashes differently is simply not verified — its span lands in a
// gap and refetches.
func recoverMarked(path string, f dataset.File, recs []Receipt) (units.Bytes, []FileRange) {
	wholeFile := []FileRange{{File: f}}
	if len(recs) == 0 {
		return 0, wholeFile
	}
	df, err := os.Open(path)
	if err != nil {
		return 0, wholeFile
	}
	defer df.Close()
	// Verify each receipt by re-hashing its span, then merge the clean
	// spans into disjoint intervals (receipts arrive block-sized and
	// adjacent, so merging collapses them into a few runs).
	type iv struct{ lo, hi int64 }
	var ivs []iv
	buf := make([]byte, 256*1024)
	for _, r := range recs {
		if r.Off < 0 || r.N <= 0 || r.Off+r.N > int64(f.Size) {
			continue
		}
		if verifyDiskRange(df, r.Off, r.N, r.CRC, buf) {
			ivs = append(ivs, iv{r.Off, r.Off + r.N})
		}
	}
	if len(ivs) == 0 {
		return 0, wholeFile
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	merged := ivs[:1]
	for _, v := range ivs[1:] {
		if last := &merged[len(merged)-1]; v.lo <= last.hi {
			if v.hi > last.hi {
				last.hi = v.hi
			}
		} else {
			merged = append(merged, v)
		}
	}
	var verified units.Bytes
	var gaps []FileRange
	cursor := int64(0)
	for _, v := range merged {
		if v.lo > cursor {
			gaps = append(gaps, FileRange{File: f, Offset: units.Bytes(cursor), Length: units.Bytes(v.lo - cursor)})
		}
		verified += units.Bytes(v.hi - v.lo)
		cursor = v.hi
	}
	if cursor < int64(f.Size) {
		gaps = append(gaps, FileRange{File: f, Offset: units.Bytes(cursor)})
	}
	return verified, gaps
}

// verifyDiskRange reports whether file bytes [off, off+n) hash to crc
// (CRC-32C), streaming through buf.
func verifyDiskRange(f *os.File, off, n int64, crc uint32, buf []byte) bool {
	sum := uint32(0)
	for n > 0 {
		chunk := buf
		if int64(len(chunk)) > n {
			chunk = chunk[:n]
		}
		if _, err := f.ReadAt(chunk, off); err != nil {
			return false
		}
		sum = crc32.Update(sum, crcTable, chunk)
		off += int64(len(chunk))
		n -= int64(len(chunk))
	}
	return sum == crc
}
