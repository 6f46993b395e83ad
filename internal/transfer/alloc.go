package transfer

import (
	"errors"
	"fmt"
)

// The chunk-scheduling rules every executor shares. Each rule is a
// plain function over per-chunk inputs the executor measures for
// itself (weights, whether a chunk is live or has queued work, its
// remaining bytes), so the simulator and the real-TCP executor run the
// same policy by construction. None of them allocates: the simulator
// consults NextChunk every tick for each retired channel.

// Placement fills dst (one entry per plan chunk) with the channels each
// chunk starts with. A Sequential plan puts every channel on the first
// chunk for which hasWork reports true; any other plan gives each chunk
// its planned Channels.
func Placement(dst []int, p Plan, hasWork func(i int) bool) {
	clear(dst)
	if !p.Sequential {
		for i, c := range p.Chunks {
			dst[i] = c.Channels
		}
		return
	}
	for i := range dst {
		if hasWork(i) {
			dst[i] = p.TotalChannels()
			return
		}
	}
}

// CheckTotal is the SetTotalChannels precondition: at least one channel
// and no more than budget (zero means unlimited).
func CheckTotal(n, budget int) error {
	if n < 1 {
		return fmt.Errorf("transfer: total channels %d < 1", n)
	}
	if budget > 0 && n > budget {
		return fmt.Errorf("transfer: total channels %d exceeds budget %d", n, budget)
	}
	return nil
}

// SplitByWeight fills dst with n channels shared over the live chunks
// in proportion to their weights (Algorithm 2 line 12:
// channelAllocation[i] = ⌊maxChannel · weights[i]⌋). The remainder goes
// one channel at a time to the largest fractional part, the lower index
// winning a tie, so all n channels are used. Chunks that are not live
// get none; live chunks whose weights sum to zero share equally.
// live is asked once per chunk, so a chunk that drains during the call
// cannot make the split inconsistent. SplitByWeight reports false, with
// dst zeroed, when no chunk is live.
func SplitByWeight(dst []int, n int, weight func(i int) float64, live func(i int) bool) bool {
	// Until the end, dst[i] < 0 marks a chunk that is not live.
	var total float64
	nLive := 0
	for i := range dst {
		dst[i] = -1
		if live(i) {
			dst[i] = 0
			total += weight(i)
			nLive++
		}
	}
	exact := func(i int) float64 {
		if total <= 0 {
			return float64(n) * (1.0 / float64(nLive))
		}
		return float64(n) * (weight(i) / total)
	}
	used := 0
	for i := range dst {
		if dst[i] == 0 {
			dst[i] = int(exact(i))
			used += dst[i]
		}
	}
	// A chunk that already took a remainder channel has a negative
	// fractional part, so it falls behind the rest for the next one.
	for ; nLive > 0 && used < n; used++ {
		best, bestFrac := -1, 0.0
		for i := range dst {
			if dst[i] < 0 {
				continue
			}
			if f := exact(i) - float64(dst[i]); best < 0 || f > bestFrac {
				best, bestFrac = i, f
			}
		}
		dst[best]++
	}
	for i := range dst {
		dst[i] = max(dst[i], 0)
	}
	return nLive > 0
}

// CheckAllocation is the SetAllocation precondition: one entry per
// chunk, none negative, a non-zero total within budget (zero means
// unlimited).
func CheckAllocation(channels []int, chunks, budget int) error {
	if len(channels) != chunks {
		return fmt.Errorf("transfer: allocation for %d chunks, plan has %d", len(channels), chunks)
	}
	total := 0
	for i, n := range channels {
		if n < 0 {
			return fmt.Errorf("transfer: chunk %d allocated %d channels", i, n)
		}
		total += n
	}
	if total == 0 {
		return errors.New("transfer: allocation has no channels")
	}
	if budget > 0 && total > budget {
		return fmt.Errorf("transfer: allocation of %d channels exceeds budget %d", total, budget)
	}
	return nil
}

// NextChunk picks the chunk a channel drained from chunk from moves to,
// or returns -1 to retire it. A Sequential plan moves it to the next
// chunk in plan order with queued work. Otherwise it moves only when
// the plan sets ReallocOnComplete, to the AcceptRealloc chunk with
// queued work and the most bytes left (the lower index on a tie).
func NextChunk(p Plan, from int, queued func(i int) bool, bytesLeft func(i int) float64) int {
	if p.Sequential {
		for i := range p.Chunks {
			if i != from && queued(i) {
				return i
			}
		}
		return -1
	}
	if !p.ReallocOnComplete {
		return -1
	}
	best, bestLeft := -1, 0.0
	for i, c := range p.Chunks {
		if i == from || !c.AcceptRealloc || !queued(i) {
			continue
		}
		if left := bytesLeft(i); best < 0 || left > bestLeft {
			best, bestLeft = i, left
		}
	}
	return best
}
