package dataset

import (
	"fmt"
	"math"

	"github.com/didclab/eta/internal/units"
)

// Class labels a chunk by where its file sizes sit relative to the
// path's bandwidth-delay product.
type Class int

// Chunk classes, ordered small to large as the paper's loops iterate
// ("for each chunk small :: large", Algorithm 1).
const (
	Small Class = iota
	Medium
	Large
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Default class thresholds relative to BDP. Files below the BDP benefit
// from pipelining (paper §2.1: "the size of the transferred files should
// be smaller than the bandwidth-delay product to take advantage of
// pipelining"); files many BDPs long are window-limited streams where
// only parallelism/concurrency matter.
const (
	// MediumFactor: files >= BDP and < LargeFactor×BDP are Medium.
	MediumFactor = 1
	// LargeFactor: files >= LargeFactor×BDP are Large.
	LargeFactor = 10
)

// Chunk is a set of files of one class plus the transfer parameters the
// algorithms assign to it.
type Chunk struct {
	Class Class
	Files []File

	// Transfer parameters chosen per chunk (paper §2.1). Zero values
	// mean "not yet decided".
	Pipelining  int
	Parallelism int
	Concurrency int
}

// TotalSize returns the chunk's byte count.
func (c Chunk) TotalSize() units.Bytes {
	var total units.Bytes
	for _, f := range c.Files {
		total += f.Size
	}
	return total
}

// Count returns the number of files in the chunk.
func (c Chunk) Count() int { return len(c.Files) }

// AvgFileSize returns the chunk's mean file size, or 0 when empty.
func (c Chunk) AvgFileSize() units.Bytes {
	if len(c.Files) == 0 {
		return 0
	}
	return c.TotalSize() / units.Bytes(len(c.Files))
}

// Weight implements the HTEE chunk weight (Algorithm 2 line 7):
// log(chunk.size) × log(chunk.fileCount). Sizes are taken in MB so a
// one-file chunk still gets non-zero size weight; a chunk with a single
// file gets the minimal count factor of log(2) rather than zero so that
// it is never starved of channels entirely.
func (c Chunk) Weight() float64 {
	if len(c.Files) == 0 {
		return 0
	}
	sizeMB := math.Max(float64(c.TotalSize())/float64(units.MB), 2)
	count := math.Max(float64(len(c.Files)), 2)
	return math.Log(sizeMB) * math.Log(count)
}

// Partition splits d into Small/Medium/Large chunks around the given
// BDP. Empty classes are dropped; the result is ordered Small→Large.
// The partition is a permutation of d's files: nothing is lost or
// duplicated (property-tested). Every chunk's Files is a window of one
// new array, capped at its own length, so appending to one chunk (as
// MergeChunks does) reallocates it and never writes into a neighbour or
// into d.
func Partition(d Dataset, bdp units.Bytes) []Chunk {
	files := make([]File, len(d.Files))
	if bdp <= 0 {
		// Degenerate path (e.g. zero RTT in a LAN): everything is
		// effectively many BDPs long.
		copy(files, d.Files)
		return []Chunk{{Class: Large, Files: files}}
	}
	class := func(f File) Class {
		switch {
		case f.Size < MediumFactor*bdp:
			return Small
		case f.Size < LargeFactor*bdp:
			return Medium
		default:
			return Large
		}
	}
	var count [numClasses]int
	for _, f := range d.Files {
		count[class(f)]++
	}
	// Classes sit in order in files, each after the ones before it;
	// next[c] is where class c's next file goes.
	var next [numClasses]int
	chunks := make([]Chunk, 0, numClasses)
	for c, off := Small, 0; c < numClasses; c++ {
		next[c] = off
		if n := count[c]; n > 0 {
			chunks = append(chunks, Chunk{Class: c, Files: files[off : off+n : off+n]})
			off += n
		}
	}
	for _, f := range d.Files {
		c := class(f)
		files[next[c]] = f
		next[c]++
	}
	return chunks
}

// Merge thresholds used by MergeChunks. A chunk smaller than this many
// files, or carrying less than MinChunkFraction of the dataset, is "too
// small to be treated separately" (paper §2.3, mergeChunks subroutine).
// The byte threshold is deliberately tiny: in the paper's own datasets
// the Small chunk dominates the file count while holding well under 1%
// of the bytes, yet it is kept separate and given most of the channels.
const (
	MinChunkFiles    = 3
	MinChunkFraction = 0.001
)

// MergeChunks folds undersized chunks into their nearest neighbour by
// class (Small merges into Medium, Large into Medium, Medium into the
// larger of its neighbours). It never drops files and always returns at
// least one chunk when given one.
func MergeChunks(chunks []Chunk) []Chunk {
	if len(chunks) <= 1 {
		return chunks
	}
	var total units.Bytes
	for _, c := range chunks {
		total += c.TotalSize()
	}
	minBytes := units.Bytes(float64(total) * MinChunkFraction)

	tooSmall := func(c Chunk) bool {
		return c.Count() < MinChunkFiles || c.TotalSize() < minBytes
	}

	out := append([]Chunk(nil), chunks...)
	for {
		idx := -1
		for i, c := range out {
			if len(out) > 1 && tooSmall(c) {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		// Merge into the neighbour with the larger total size so the
		// combined chunk's average file size shifts as little as
		// possible toward the runt.
		var into int
		switch {
		case idx == 0:
			into = 1
		case idx == len(out)-1:
			into = idx - 1
		case out[idx-1].TotalSize() >= out[idx+1].TotalSize():
			into = idx - 1
		default:
			into = idx + 1
		}
		out[into].Files = append(out[into].Files, out[idx].Files...)
		out = append(out[:idx], out[idx+1:]...)
	}
	return out
}

// PartitionAndMerge is the exact sequence the algorithms run:
// partitionFiles followed by mergeChunks.
func PartitionAndMerge(d Dataset, bdp units.Bytes) []Chunk {
	return MergeChunks(Partition(d, bdp))
}
