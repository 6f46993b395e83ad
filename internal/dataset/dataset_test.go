package dataset

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/didclab/eta/internal/units"
)

func TestMixedHitsTotalAndEnvelope(t *testing.T) {
	g := NewGenerator(42)
	d := g.Mixed(40*units.GB, 3*units.MB, 5*units.GB)
	total := d.TotalSize()
	if total < 40*units.GB-3*units.MB || total > 40*units.GB {
		t.Errorf("total = %v, want within 3MB under 40GB", total)
	}
	for _, f := range d.Files {
		if f.Size < 3*units.MB || f.Size > 5*units.GB+5*units.GB {
			t.Errorf("file %s size %v outside envelope", f.Name, f.Size)
		}
	}
	if d.Count() < 10 {
		t.Errorf("suspiciously few files: %d", d.Count())
	}
}

func TestMixedDeterministic(t *testing.T) {
	a := NewGenerator(7).Mixed(1*units.GB, 3*units.MB, 100*units.MB)
	b := NewGenerator(7).Mixed(1*units.GB, 3*units.MB, 100*units.MB)
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatalf("file %d differs: %+v vs %+v", i, a.Files[i], b.Files[i])
		}
	}
}

func TestMixedPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for max < min")
		}
	}()
	NewGenerator(1).Mixed(units.GB, 10*units.MB, units.MB)
}

func TestUniform(t *testing.T) {
	d := NewGenerator(1).Uniform(10, 5*units.MB)
	if d.Count() != 10 || d.TotalSize() != 50*units.MB {
		t.Errorf("got count=%d total=%v", d.Count(), d.TotalSize())
	}
	if d.AvgFileSize() != 5*units.MB || d.MinSize() != 5*units.MB || d.MaxSize() != 5*units.MB {
		t.Error("uniform stats wrong")
	}
}

func TestEmptyDatasetStats(t *testing.T) {
	var d Dataset
	if d.TotalSize() != 0 || d.AvgFileSize() != 0 || d.MinSize() != 0 || d.MaxSize() != 0 {
		t.Error("empty dataset stats should be zero")
	}
}

func TestPaperDatasets(t *testing.T) {
	x := Paper10Gbps(1)
	if got := x.TotalSize(); got < 159*units.GB || got > 160*units.GB {
		t.Errorf("10Gbps dataset total = %v", got)
	}
	f := Paper1Gbps(1)
	if got := f.TotalSize(); got < 39*units.GB || got > 40*units.GB {
		t.Errorf("1Gbps dataset total = %v", got)
	}
	if f.MinSize() < 3*units.MB {
		t.Errorf("1Gbps min file %v below 3MB", f.MinSize())
	}
}

func TestSortBySize(t *testing.T) {
	d := Dataset{Files: []File{{"c", 30}, {"a", 10}, {"b", 10}, {"d", 5}}}
	d = d.SortBySize()
	want := []string{"d", "a", "b", "c"}
	for i, name := range want {
		if d.Files[i].Name != name {
			t.Fatalf("order %v, want %v", d.Files, want)
		}
	}
}

func TestPartitionClasses(t *testing.T) {
	bdp := units.Bytes(50 * units.MB) // XSEDE
	d := Dataset{Files: []File{
		{"s1", 3 * units.MB},
		{"s2", 49 * units.MB},
		{"m1", 50 * units.MB},
		{"m2", 499 * units.MB},
		{"l1", 500 * units.MB},
		{"l2", 20 * units.GB},
	}}
	chunks := Partition(d, bdp)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if chunks[0].Class != Small || chunks[0].Count() != 2 {
		t.Errorf("small chunk wrong: %+v", chunks[0])
	}
	if chunks[1].Class != Medium || chunks[1].Count() != 2 {
		t.Errorf("medium chunk wrong: %+v", chunks[1])
	}
	if chunks[2].Class != Large || chunks[2].Count() != 2 {
		t.Errorf("large chunk wrong: %+v", chunks[2])
	}
}

func TestPartitionZeroBDPIsSingleLargeChunk(t *testing.T) {
	d := NewGenerator(3).Uniform(5, units.MB)
	chunks := Partition(d, 0)
	if len(chunks) != 1 || chunks[0].Class != Large || chunks[0].Count() != 5 {
		t.Errorf("got %+v", chunks)
	}
}

// filesMultiset maps name→count so permutation checks catch loss and
// duplication.
func filesMultiset(chunks []Chunk) map[string]int {
	m := make(map[string]int)
	for _, c := range chunks {
		for _, f := range c.Files {
			m[f.Name]++
		}
	}
	return m
}

func TestPartitionIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		d := NewGenerator(seed).ManySmall(n, units.KB, units.GB)
		got := filesMultiset(Partition(d, 50*units.MB))
		if len(got) != n {
			return false
		}
		for _, f := range d.Files {
			if got[f.Name] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every chunk's Files is capped at its own length, so appending to one
// chunk, as MergeChunks does, reallocates it: no other chunk and not
// the source dataset can change. The zero-BDP path holds it too.
func TestPartitionChunksDoNotAlias(t *testing.T) {
	d := NewGenerator(5).ManySmall(60, units.KB, units.GB)
	src := slices.Clone(d.Files)
	for _, bdp := range []units.Bytes{50 * units.MB, 0} {
		n := len(Partition(d, bdp))
		if bdp > 0 && n != 3 {
			t.Fatalf("bdp %v: %d chunks, want all three classes", bdp, n)
		}
		for i := 0; i < n; i++ {
			chunks := Partition(d, bdp)
			before := make([][]File, n)
			for j, c := range chunks {
				if cap(c.Files) != len(c.Files) {
					t.Errorf("bdp %v: chunk %d has cap %d, len %d", bdp, j, cap(c.Files), len(c.Files))
				}
				before[j] = slices.Clone(c.Files)
			}
			chunks[i].Files = append(chunks[i].Files, File{"extra.dat", units.MB})
			for j, c := range chunks {
				if j != i && !slices.Equal(c.Files, before[j]) {
					t.Errorf("bdp %v: appending to chunk %d changed chunk %d", bdp, i, j)
				}
			}
			if !slices.Equal(d.Files, src) {
				t.Fatalf("bdp %v: appending to chunk %d changed the dataset", bdp, i)
			}
		}
	}
}

// Partition allocates the files array and the chunk list, nothing else:
// core.prepareChunks runs it in every cell of the sweeps.
func TestPartitionAllocatesTwice(t *testing.T) {
	d := NewGenerator(5).ManySmall(400, units.KB, units.GB)
	for _, bdp := range []units.Bytes{50 * units.MB, 0} {
		if allocs := testing.AllocsPerRun(100, func() { Partition(d, bdp) }); allocs > 2 {
			t.Errorf("bdp %v: Partition allocates %v times, want at most 2", bdp, allocs)
		}
	}
}

func TestMergeChunksIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		d := NewGenerator(seed).ManySmall(n, units.KB, units.GB)
		chunks := MergeChunks(Partition(d, 50*units.MB))
		got := filesMultiset(chunks)
		if len(got) != n {
			return false
		}
		for _, f := range d.Files {
			if got[f.Name] != 1 {
				return false
			}
		}
		return len(chunks) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeChunksFoldsRunts(t *testing.T) {
	// One lone small file plus a real large chunk: the small chunk has
	// fewer than MinChunkFiles files and must be merged away.
	d := Dataset{Files: []File{
		{"runt", 1 * units.MB},
		{"l1", 10 * units.GB}, {"l2", 10 * units.GB}, {"l3", 10 * units.GB},
	}}
	chunks := MergeChunks(Partition(d, 50*units.MB))
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1 after merging", len(chunks))
	}
	if chunks[0].Count() != 4 {
		t.Errorf("merged chunk has %d files, want 4", chunks[0].Count())
	}
}

func TestMergeChunksKeepsHealthyChunks(t *testing.T) {
	bdp := units.Bytes(50 * units.MB)
	g := NewGenerator(11)
	var files []File
	for i, c := range []struct {
		n    int
		size units.Bytes
	}{{40, 10 * units.MB}, {40, 100 * units.MB}, {40, 1 * units.GB}} {
		sub := g.Uniform(c.n, c.size)
		for j := range sub.Files {
			sub.Files[j].Name = sub.Files[j].Name + string(rune('a'+i))
			_ = j
		}
		files = append(files, sub.Files...)
	}
	chunks := MergeChunks(Partition(Dataset{Files: files}, bdp))
	if len(chunks) != 3 {
		t.Fatalf("healthy 3-class dataset merged to %d chunks", len(chunks))
	}
}

func TestChunkWeightMonotonicity(t *testing.T) {
	// More files of the same size must not lower the weight, and more
	// bytes with the same count must not lower it either (HTEE weights
	// drive channel allocation: bigger chunks deserve no fewer channels).
	small := Chunk{Files: NewGenerator(1).Uniform(10, 10*units.MB).Files}
	big := Chunk{Files: NewGenerator(1).Uniform(100, 10*units.MB).Files}
	if big.Weight() < small.Weight() {
		t.Errorf("weight fell with file count: %v < %v", big.Weight(), small.Weight())
	}
	fat := Chunk{Files: NewGenerator(1).Uniform(10, 1*units.GB).Files}
	if fat.Weight() < small.Weight() {
		t.Errorf("weight fell with size: %v < %v", fat.Weight(), small.Weight())
	}
}

func TestChunkWeightPositive(t *testing.T) {
	c := Chunk{Files: []File{{"one", 3 * units.MB}}}
	if w := c.Weight(); w <= 0 {
		t.Errorf("single-file chunk weight = %v, want > 0", w)
	}
	var empty Chunk
	if empty.Weight() != 0 {
		t.Error("empty chunk weight should be 0")
	}
}

func TestClassString(t *testing.T) {
	if Small.String() != "Small" || Medium.String() != "Medium" || Large.String() != "Large" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class formatting wrong")
	}
}
