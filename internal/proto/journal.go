package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"github.com/didclab/eta/internal/crc32c"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
)

// Write-ahead receipt journal. Preallocation (store.go) makes an
// interrupted destination file's length lie — holes can hide anywhere —
// so without extra state the only sound resume of a file marked in
// flight (one byte longer than its source) is a whole refetch. The journal is that extra state: an append-only log of
// CRC-verified block receipts, one record per block the client wrote to
// its sink, durable independently of the destination files. On resume,
// PlanResume (resume.go) replays the journal and re-verifies each
// journaled range against the bytes actually on disk, so recovery
// plans fine-grained gap refetches instead of refetching whole files —
// and a lying or corrupted journal degrades to refetch, never to
// corruption, because nothing is trusted that does not re-hash clean.
//
// Durability discipline: records are buffered in user space and made
// durable by a group-commit fsync every FsyncInterval (journal_fsyncs
// counts them). A crash can therefore lose the last interval's worth of
// receipts — bounded re-work, never wrong data — and can sever the
// file mid-record; the decoder treats any truncated or garbled tail as
// the end of the journal (torn-tail tolerance) rather than an error.

// JournalFileName is the conventional receipt-journal file name inside
// a destination root, next to the files it describes.
const JournalFileName = ".eta-journal"

// journalHeader identifies (and versions) a receipt journal file.
var journalHeader = []byte("ETAJRNL1\n")

// recMagic opens every journal record; a decoder that does not find it
// where a record should start has hit a torn or garbled tail.
const recMagic byte = 0xEA

// recFixedSize is the wire size of a record before the name and the
// trailing record CRC: magic(1) + nameLen(2) + offset(8) + length(4) +
// payload crc(4).
const recFixedSize = 1 + 2 + 8 + 4 + 4

// maxJournalName bounds the encoded file-name length; a decoded length
// beyond it means the tail is garbage, not a name.
const maxJournalName = 4096

// defaultFsyncInterval is the group-commit window when none is
// configured: short enough that a crash loses at most a few dozen
// milliseconds of receipts, long enough to amortize fsync across many
// block appends.
const defaultFsyncInterval = 25 * time.Millisecond

// Receipt is one journaled block receipt: file bytes [Off, Off+N) were
// written to the destination with CRC-32C CRC.
type Receipt struct {
	Name string
	Off  int64
	N    int64
	CRC  uint32
}

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// FsyncInterval is the group-commit window: appended records are
	// flushed and fsynced together every interval. Zero means the
	// default (25ms); negative means fsync on every append (tests and
	// paranoid callers).
	FsyncInterval time.Duration
	// Metrics receives journal_appends/journal_fsyncs; optional.
	Metrics *obs.Registry
	// Events receives journal lifecycle events; optional.
	Events *obs.Log
}

// Journal is an open receipt journal in append mode. Append is safe for
// concurrent use by the client's stream loops; one journal serves one
// destination root.
type Journal struct {
	path string
	sync bool // fsync every append (FsyncInterval < 0)

	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	dirty   bool
	err     error
	scratch []byte

	stop chan struct{}
	done chan struct{}

	appends *obs.Counter
	fsyncs  *obs.Counter

	// trace/parent make each dirty group-commit a journal_flush span
	// under the running transfer's root. Guarded by mu (set by the
	// executor at Start, read by the flusher goroutine).
	trace  *span.Tracer
	parent *span.Span
}

// setTraceParent attaches the journal's flush spans to a transfer's
// root span (executor wiring; same package, so unexported).
func (j *Journal) setTraceParent(t *span.Tracer, parent *span.Span) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.trace = t
	j.parent = parent
	j.mu.Unlock()
}

// detachTraceParent stops parenting flush spans under parent, unless a
// later transfer has attached its own root since.
func (j *Journal) detachTraceParent(parent *span.Span) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.parent == parent {
		j.parent = nil
	}
	j.mu.Unlock()
}

// OpenJournal opens (creating if needed) the receipt journal at path
// for appending and starts its group-commit flusher. A torn tail left
// by a crash is repaired first — truncated back to the last clean
// record — because records appended after a tear would be unreachable
// (the decoder stops at the first bad byte).
func OpenJournal(path string, opt JournalOptions) (*Journal, error) {
	if _, cleanLen, torn, scanErr := scanJournal(path); scanErr != nil {
		return nil, fmt.Errorf("proto: scanning journal: %w", scanErr)
	} else if torn {
		if err := os.Truncate(path, cleanLen); err != nil {
			return nil, fmt.Errorf("proto: repairing journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("proto: opening journal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("proto: opening journal: %w", err)
	}
	j := &Journal{
		path:    path,
		sync:    opt.FsyncInterval < 0,
		f:       f,
		bw:      bufio.NewWriterSize(f, 64*1024),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		appends: opt.Metrics.Counter("journal_appends"),
		fsyncs:  opt.Metrics.Counter("journal_fsyncs"),
	}
	if info.Size() == 0 {
		if _, err := j.bw.Write(journalHeader); err != nil {
			f.Close()
			return nil, fmt.Errorf("proto: writing journal header: %w", err)
		}
		j.dirty = true
	}
	interval := opt.FsyncInterval
	if interval == 0 {
		interval = defaultFsyncInterval
	}
	if interval > 0 {
		go j.flusher(interval)
	} else {
		close(j.done) // no flusher to wait for
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// flusher is the group-commit loop: everything appended since the last
// tick becomes durable together.
func (j *Journal) flusher(interval time.Duration) {
	defer close(j.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.Sync()
		}
	}
}

// Append journals one block receipt. Failures are sticky and surfaced
// by Err/Close rather than returned per append: the journal is a
// recovery accelerator, and recovery re-verifies everything against the
// destination bytes, so a sick journal must not fail the transfer.
// A receipt the record cannot hold (an empty or over-long name, a
// length outside 0..2^32-1, a negative offset) is dropped: an empty
// name would read back as a torn tail and hide every later receipt,
// and a length would be truncated.
func (j *Journal) Append(name string, off, n int64, crc uint32) {
	if j == nil || n < 0 || n > math.MaxUint32 || off < 0 || len(name) == 0 || len(name) > maxJournalName {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		need := recFixedSize + len(name) + 4
		if cap(j.scratch) < need {
			j.scratch = make([]byte, need)
		}
		rec := j.scratch[:need]
		rec[0] = recMagic
		binary.BigEndian.PutUint16(rec[1:3], uint16(len(name)))
		binary.BigEndian.PutUint64(rec[3:11], uint64(off))
		binary.BigEndian.PutUint32(rec[11:15], uint32(n))
		binary.BigEndian.PutUint32(rec[15:19], crc)
		copy(rec[recFixedSize:], name)
		sum := crc32c.Checksum(rec[:recFixedSize+len(name)])
		binary.BigEndian.PutUint32(rec[recFixedSize+len(name):], sum)
		if _, err := j.bw.Write(rec); err != nil {
			j.err = err
		} else {
			j.dirty = true
		}
	}
	j.mu.Unlock()
	j.appends.Inc()
	if j.sync {
		j.Sync()
	}
}

// Sync flushes buffered records and fsyncs the journal file — one group
// commit. It is a no-op when nothing was appended since the last call.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return j.err
	}
	// Only dirty commits get a span, and only while a transfer owns the
	// journal: the idle ticker path above costs nothing, and a post-
	// session flush (Close) should not mint a lone root trace.
	var fsp *span.Span
	if j.parent != nil {
		fsp = j.trace.StartChild(j.parent, span.NameJournalFlush)
	}
	if err := j.bw.Flush(); err != nil {
		if j.err == nil {
			j.err = err
		}
		fsp.End("error", err.Error())
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		if j.err == nil {
			j.err = err
		}
		fsp.End("error", err.Error())
		return j.err
	}
	j.dirty = false
	j.fsyncs.Inc()
	fsp.End()
	return j.err
}

// Err returns the first write error the journal hit, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close stops the flusher, commits everything buffered, and closes the
// file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	select {
	case <-j.stop:
	default:
		close(j.stop)
	}
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadJournal decodes the receipt journal at path. A missing file is an
// empty journal. torn reports that decoding stopped before the end of
// the file — a truncated or garbled tail, the expected shape after a
// crash — in which case the receipts before the tear are still
// returned. Only unexpected I/O errors are returned as err.
func ReadJournal(path string) (recs []Receipt, torn bool, err error) {
	recs, _, torn, err = scanJournal(path)
	return recs, torn, err
}

// scanJournal is ReadJournal plus the byte length of the clean prefix —
// what OpenJournal truncates a torn journal back to before appending.
func scanJournal(path string) (recs []Receipt, cleanLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	head := make([]byte, len(journalHeader))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, true, nil // shorter than a header: all tail
	}
	if string(head) != string(journalHeader) {
		return nil, 0, true, nil
	}
	cleanLen = int64(len(journalHeader))
	fixed := make([]byte, recFixedSize)
	var namebuf []byte
	for {
		if _, err := io.ReadFull(br, fixed); err != nil {
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, cleanLen, false, nil // clean end
			}
			return recs, cleanLen, true, nil // mid-record truncation
		}
		if fixed[0] != recMagic {
			return recs, cleanLen, true, nil
		}
		nameLen := int(binary.BigEndian.Uint16(fixed[1:3]))
		if nameLen == 0 || nameLen > maxJournalName {
			return recs, cleanLen, true, nil
		}
		if cap(namebuf) < nameLen+4 {
			namebuf = make([]byte, nameLen+4)
		}
		tail := namebuf[:nameLen+4]
		if _, err := io.ReadFull(br, tail); err != nil {
			return recs, cleanLen, true, nil
		}
		sum := crc32c.Checksum(fixed)
		sum = crc32c.Update(sum, tail[:nameLen])
		if sum != binary.BigEndian.Uint32(tail[nameLen:]) {
			return recs, cleanLen, true, nil
		}
		recs = append(recs, Receipt{
			Name: string(tail[:nameLen]),
			Off:  int64(binary.BigEndian.Uint64(fixed[3:11])),
			N:    int64(binary.BigEndian.Uint32(fixed[11:15])),
			CRC:  binary.BigEndian.Uint32(fixed[15:19]),
		})
		cleanLen += int64(recFixedSize + nameLen + 4)
	}
}
