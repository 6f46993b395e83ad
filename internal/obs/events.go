package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types emitted by the instrumented transfer path. The log
// accepts any type string; these constants are the vocabulary the
// proto/monitor instrumentation uses and DESIGN.md §8.2 documents. They
// are point events only: anything with a duration is a span
// (span_begin/span_end, DESIGN.md §13.1), never a start/finish pair.
const (
	EvChannelPlaced       = "channel_placed"
	EvEndpointBlacklisted = "endpoint_blacklisted"
	EvEndpointRecovered   = "endpoint_recovered"
	EvChunkRealloc        = "chunk_reallocated"
	EvEnergySample        = "energy_sample"
	EvEnergyModel         = "energy_model_sample"
	EvStallDetected       = "stall_detected"
	EvServerDraining      = "server_draining"
	EvServerDrained       = "server_drained"
	EvRecoveryPlanned     = "recovery_planned"
	EvSpanBegin           = "span_begin"
	EvSpanEnd             = "span_end"
)

// DefaultRingSize is how many recent events a Log retains for Tail.
const DefaultRingSize = 1024

// Log is a structured JSONL event log. Each event is one line:
//
//	{"seq":12,"t":"2026-08-06T10:00:00.123Z","type":"stall_detected","sid":3,"pending":2}
//
// Events always land in an in-memory ring (for the /events tail) and,
// when the log was built over a writer, are appended to it as they
// happen. Emit is safe for concurrent use; a nil *Log drops everything.
type Log struct {
	mu  sync.Mutex
	now Clock
	w   io.Writer
	// underlying is the sink beneath a buffering wrapper (NewBufferedLog);
	// Close closes it after flushing. Nil for unbuffered logs.
	underlying io.Writer
	ring       [][]byte
	next       int
	full       bool
	seq        uint64
	// dropped counts events overwritten out of the ring — the tail a
	// /events consumer can no longer fetch. Mirrored into dropCounter
	// (the registry's events_dropped) when one is attached.
	dropped     uint64
	dropCounter *Counter
	writeErr    error
}

// NewLog returns a log retaining DefaultRingSize events, streaming each
// event line to w when w is non-nil.
func NewLog(w io.Writer) *Log {
	return &Log{
		now:  time.Now, //lint:allow nodeterm wall-clock default seam; SetClock injects a deterministic clock
		w:    w,
		ring: make([][]byte, DefaultRingSize),
	}
}

// NewBufferedLog returns a log whose event lines are buffered before
// reaching w (bufSize bytes; <= 0 means 64KiB), amortizing small-write
// syscalls on hot paths. The buffer is NOT crash-safe: callers owning a
// buffered log must Flush (or Close) it on shutdown or the tail of the
// run's events is lost — exactly the failure the crash harness provokes.
// Close also closes w when it is an io.Closer, so handing a file here
// transfers ownership.
func NewBufferedLog(w io.Writer, bufSize int) *Log {
	if bufSize <= 0 {
		bufSize = 64 * 1024
	}
	l := NewLog(bufio.NewWriterSize(w, bufSize))
	l.underlying = w
	return l
}

// flusher is the subset of bufio.Writer that Flush forwards to.
type flusher interface{ Flush() error }

// Flush pushes any event lines still buffered in the log's writer down
// to the underlying sink. It is a no-op for unbuffered logs and safe on
// a nil log.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if f, ok := l.w.(flusher); ok {
		if err := f.Flush(); err != nil && l.writeErr == nil {
			l.writeErr = err
		}
	}
	return l.writeErr
}

// Close flushes the log and closes the underlying writer when the log
// owns one that is closeable (NewBufferedLog over a file, or NewLog
// over an io.WriteCloser). Emit after Close writes into a closed sink;
// don't.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	target := l.underlying
	if target == nil {
		target = l.w
	}
	if c, ok := target.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// SetClock overrides the timestamp source (tests, deterministic runs).
func (l *Log) SetClock(c Clock) {
	if l == nil || c == nil {
		return
	}
	l.mu.Lock()
	l.now = c
	l.mu.Unlock()
}

// Emit appends one event. kv is alternating key, value pairs; values
// are JSON-marshalled (falling back to their string form when they
// cannot be), keys keep their argument order so a given call site
// always produces the same line shape.
func (l *Log) Emit(typ string, kv ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"seq":%d,"t":%q,"type":%q`, l.seq, l.now().UTC().Format(time.RFC3339Nano), typ)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok || key == "" {
			continue
		}
		val, err := json.Marshal(kv[i+1])
		if err != nil {
			val, _ = json.Marshal(fmt.Sprint(kv[i+1]))
		}
		keyJSON, _ := json.Marshal(key)
		b.WriteByte(',')
		b.Write(keyJSON)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteString("}\n")
	line := append([]byte(nil), b.Bytes()...)
	if l.full {
		// The slot being written still holds the oldest retained event;
		// overwriting it is a drop from the tail consumers can resume
		// from (the streamed writer, if any, already has it).
		l.dropped++
		l.dropCounter.Inc()
	}
	l.ring[l.next] = line
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	if l.w != nil {
		if _, err := l.w.Write(line); err != nil && l.writeErr == nil {
			l.writeErr = err
		}
	}
}

// Tail returns copies of the most recent n event lines in emission
// order (each including its trailing newline). n <= 0 means all
// retained events.
func (l *Log) Tail(n int) [][]byte {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var lines [][]byte
	if l.full {
		lines = append(lines, l.ring[l.next:]...)
	}
	lines = append(lines, l.ring[:l.next]...)
	if n > 0 && len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	out := make([][]byte, len(lines))
	for i, line := range lines {
		out[i] = append([]byte(nil), line...)
	}
	return out
}

// TailSince returns copies of the retained event lines with sequence
// numbers strictly greater than since, capped at the most recent n
// (n <= 0 means no cap), plus how many requested events were already
// overwritten out of the ring — the consumer's gap. A consumer that
// remembers the last seq it saw calls TailSince(lastSeq, 0) to resume
// the stream and learns exactly what it lost instead of silently
// re-reading a truncated head.
func (l *Log) TailSince(since uint64, n int) (lines [][]byte, missed uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var all [][]byte
	if l.full {
		all = append(all, l.ring[l.next:]...)
	}
	all = append(all, l.ring[:l.next]...)
	// Retained lines carry seqs (l.seq-len(all), l.seq] in order.
	firstSeq := l.seq - uint64(len(all)) + 1
	if since+1 < firstSeq {
		missed = firstSeq - since - 1
	}
	if since >= firstSeq-1 {
		skip := since - (firstSeq - 1)
		if skip >= uint64(len(all)) {
			all = nil
		} else {
			all = all[skip:]
		}
	}
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	lines = make([][]byte, len(all))
	for i, line := range all {
		lines[i] = append([]byte(nil), line...)
	}
	return lines, missed
}

// Dropped returns how many events have been overwritten out of the
// ring so far.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// SetDropCounter mirrors future ring drops into c (typically the
// registry's events_dropped counter, wired by the HTTP handler).
func (l *Log) SetDropCounter(c *Counter) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.dropCounter = c
	l.mu.Unlock()
}

// Seq returns how many events were ever emitted.
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Err returns the first error the underlying writer produced, if any.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}
