package transfer

import "github.com/didclab/eta/internal/units"

// SimBooks is a simulator session's incremental bookkeeping next to the
// same figures recomputed from scratch. The two must agree exactly.
type SimBooks struct {
	// Done is the session's Done, which reads the unfinished-file
	// counter; ScanDone scans for the same state: every chunk drained
	// and no channel holding a file.
	Done, ScanDone bool
	// Unfinished is the counter; Files counts the files no channel has
	// finished: queued in a chunk or held by a channel.
	Unfinished, Files int
	// Watts is integratePower through the power memo; FreshWatts is
	// integratePower with the memo cleared.
	Watts, FreshWatts units.Watts
	// IdlePool counts the servers that hold no channel but pay their
	// base activity floor because the plan spreads over the pool.
	IdlePool int
}

// ReadSimBooks reads the books of sess, a session a Sim started. It
// runs integratePower twice, the second time with the memo cleared, so
// it leaves the memo holding the current loads and activeConc set to
// the live channel count; step sets both again before they are read.
func ReadSimBooks(sess Session) SimBooks {
	s := sess.(*simSession)
	b := SimBooks{Done: s.Done(), ScanDone: true, Unfinished: s.unfinished}
	for _, c := range s.chunks {
		if c.hasQueuedFiles() {
			b.ScanDone = false
		}
		b.Files += len(c.partials) + len(c.plan.Chunk.Files) - c.head
	}
	for _, ch := range s.channels {
		if ch.hasFile {
			b.ScanDone = false
			b.Files++
		}
	}
	b.Watts = s.integratePower()
	clear(s.power)
	b.FreshWatts = s.integratePower()
	if s.plan.SpreadServers && s.activeConc > 0 {
		for _, l := range s.loads {
			if l.procs == 0 {
				b.IdlePool++
			}
		}
	}
	return b
}
