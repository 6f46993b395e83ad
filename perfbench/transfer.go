package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// transferBench drives one transfer workload through the path the
// energytransfer CLI runs: core.ProMC → proto.Executor → Client/Server
// over loopback TCP → DirStore on one side, a sink on the other.
type transferBench struct {
	durable  bool // small_durable: DirSink + journal + flight recorder
	fx       *fixture
	ds       dataset.Dataset
	srv      *proto.Server
	reg      *obs.Registry
	rec      *recorder
	ref      *bareCopy
	work     string
	env      transfer.Environment
	channels int
}

// transferChannels is the concurrency ProMC is given: at most one
// channel per CPU, and no more than two.
func transferChannels() int { return min(2, runtime.NumCPU()) }

// benchEnvironment declares a path whose bandwidth-delay product
// (10 Gbps × 1 ms = 1.25 MB) fits in the TCP buffer, so core's
// parallelism formula picks one stream per channel.
func benchEnvironment(channels int) transfer.Environment {
	buf := 32 * units.MB
	return transfer.Environment{
		Path: netem.Path{
			Bandwidth:       energyPathRate,
			RTT:             time.Millisecond,
			MaxTCPBuffer:    buf,
			EffStreamBuffer: buf / 8,
		},
		MaxChannels:    channels,
		ServersPerSite: 1,
	}
}

// journalWindow is small_durable's journal group-commit interval,
// longer than any pass.
const journalWindow = time.Hour

// refCopies is how many times one reference round copies the fixture.
// The same count on every seed keeps rounds alike: the first copy after
// a pass runs slower than the rest.
const refCopies = 2

// openTransfer starts the server and lists the dataset. metrics puts an
// obs.Registry on the server and executor: the durable workload always
// has one (it is part of the flight recorder the workload measures),
// bulk only in traced runs.
func openTransfer(durable bool, fx *fixture, work string, rec *recorder, metrics bool) (*transferBench, error) {
	b := &transferBench{durable: durable, fx: fx, rec: rec, work: work, channels: transferChannels()}
	b.env = benchEnvironment(b.channels)
	if metrics {
		b.reg = obs.NewRegistry()
	}
	store := proto.Store(proto.DirStore{Root: fx.root})
	if rec != nil {
		store = wrapStore(store, rec)
	}
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: store, Metrics: b.reg})
	if err != nil {
		return nil, err
	}
	b.srv = srv
	files, err := (&proto.Client{Addr: srv.Addr()}).List()
	if err != nil {
		b.close()
		return nil, fmt.Errorf("listing: %w", err)
	}
	if err := fx.matches(files); err != nil {
		b.close()
		return nil, err
	}
	b.ds = dataset.Dataset{Files: files}
	refDest := ""
	if durable {
		refDest = filepath.Join(work, "ref")
	}
	if b.ref, err = newBareCopy(fx, refDest, b.channels); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// matches checks that a listing names exactly the fixture's files.
func (f *fixture) matches(files []dataset.File) error {
	if len(files) != len(f.files) {
		return fmt.Errorf("listing has %d files, fixture %d", len(files), len(f.files))
	}
	want := make(map[string]int64, len(f.files))
	for _, ff := range f.files {
		want[ff.name] = ff.size
	}
	for _, g := range files {
		if size, ok := want[g.Name]; !ok || size != int64(g.Size) {
			return fmt.Errorf("listing has %s (%d bytes), not in fixture", g.Name, g.Size)
		}
	}
	return nil
}

func (b *transferBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.ref != nil {
		b.ref.close()
	}
}

// energySource is what energytransfer uses on hosts without RAPL: the
// fine-grained model over procfs. It is used on every host so the path
// does not depend on whether RAPL is readable.
func energySource() *monitor.ModelSource {
	return monitor.NewModelSource(monitor.Monitor{},
		monitor.LocalServerModel(runtime.NumCPU(), energyPathRate, 0), energytransferModel)
}

// pass moves the whole dataset once and verifies what arrived. traced
// switches the benchmark's own spans on for this pass.
func (b *transferBench) pass(ctx context.Context, traced bool) (passResult, error) {
	var res passResult
	dest := filepath.Join(b.work, "dst")
	traceFile := filepath.Join(b.work, "trace.jsonl")
	if b.durable {
		if err := resetDest(dest, b.fx); err != nil {
			return res, err
		}
	}
	rec := b.rec
	if !traced {
		rec = nil
	}
	before := b.reg.Snapshot()
	pre := readMem(traced)
	passSpan := b.beginPass(traced)

	var (
		report  transfer.Report
		runErr  error
		check   *checkSink
		journal *proto.Journal
		events  *obs.Log
	)
	iv, _ := measure(func() error {
		client := &proto.Client{Addr: b.srv.Addr(), VerifyChecksums: true}
		exec := &proto.Executor{Client: client, Environment: b.env, MaxRetries: 3, Metrics: b.reg, Label: "PROMC"}
		ms := energySource()
		if b.durable {
			f, err := os.Create(traceFile)
			if err != nil {
				runErr = err
				return err
			}
			// The buffered log owns f; Close below flushes and closes it.
			events = obs.NewBufferedLog(f, 0)
			tracer := span.NewTracer(b.reg, events)
			ms.Events, ms.Trace = events, tracer
			exec.Events, exec.Trace = events, tracer
			// No SyncOnClose, and a journal group-commit window longer
			// than a pass, so the journal fsyncs once, at Close: without
			// tmpfs, each fsync measures the VM disk's flush latency and
			// the filesystem journal's commits, not the program
			// (NOTES.md).
			exec.Sink = proto.NewDirSink(dest)
			if journal, err = proto.OpenJournal(filepath.Join(dest, proto.JournalFileName),
				proto.JournalOptions{Metrics: b.reg, Events: events, FsyncInterval: journalWindow}); err != nil {
				events.Close()
				runErr = err
				return err
			}
			client.Journal = journal
		} else {
			check = newCheckSink(b.fx)
			exec.Sink = check
		}
		exec.Energy = ms
		var te transfer.Executor = exec
		if rec != nil {
			exec.Sink = wrapSink(exec.Sink, rec)
			exec.Energy = tracedEnergy{inner: ms, rec: rec}
			te = &tracedExecutor{inner: exec, rec: rec}
		}
		sp := rec.begin(spProMC, passSpan.id)
		if t, ok := te.(*tracedExecutor); ok {
			t.parent = sp.id
		}
		report, runErr = core.ProMC(ctx, te, b.ds, b.channels)
		sp.end()
		if journal != nil {
			jsp := rec.begin(spJournal, passSpan.id)
			if err := journal.Close(); err != nil && runErr == nil {
				runErr = fmt.Errorf("closing journal: %w", err)
			}
			jsp.end()
		}
		if events != nil {
			if err := events.Close(); err != nil && runErr == nil {
				runErr = fmt.Errorf("closing event log: %w", err)
			}
		}
		return runErr
	})
	res.iv = iv
	res.bytes = b.fx.total
	res.files = len(b.fx.files)
	res.reportedJ = float64(report.EndSystemEnergy)
	if runErr != nil {
		passSpan.end()
		return res, runErr
	}

	v0 := time.Now()
	err := b.verify(report, check, dest, rec, passSpan.id)
	res.verify = time.Since(v0)
	passSpan.end()

	res.mem = readMem(traced).sub(pre)
	res.counters = b.reg.Snapshot().Counters
	for k, v := range before.Counters {
		res.counters[k] -= v
	}
	if events != nil {
		res.events = int64(events.Seq())
		if info, err := os.Stat(traceFile); err == nil {
			res.traceBytes = info.Size()
		}
	}
	return res, err
}

// resetDest empties the destination tree the last pass left, untimed:
// every file is truncated to zero and the journal removed, so the pass
// must write every byte again but creates no data files. On the VM's
// ext4, creating files was the largest and most variable cost and grew
// pass over pass (NOTES.md); a pass into a fresh tree measured that
// instead of the program.
func resetDest(dest string, fx *fixture) error {
	if err := os.Remove(filepath.Join(dest, proto.JournalFileName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, ff := range fx.files {
		err := os.Truncate(filepath.Join(dest, filepath.FromSlash(ff.name)), 0)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.MkdirAll(dest, 0o755); err != nil {
		return err
	}
	// Let the filesystem retire the truncation before the pass is timed.
	syscall.Sync()
	return nil
}

// beginPass opens the pass's root span in a traced pass.
func (b *transferBench) beginPass(traced bool) openSpan {
	if !traced {
		return openSpan{}
	}
	b.rec.pass.Add(1)
	return b.rec.root(spPass)
}

// verify checks a finished pass: every byte delivered, no retries, and
// the content checked against the fixture — per write for bulk, and for
// the durable workload by re-reading the destination tree and asking
// PlanResume whether anything is left to fetch.
func (b *transferBench) verify(r transfer.Report, check *checkSink, dest string, rec *recorder, parent uint64) error {
	if int64(r.Bytes) != b.fx.total || r.Files != int64(len(b.fx.files)) {
		return fmt.Errorf("report moved %d bytes in %d files, want %d in %d", r.Bytes, r.Files, b.fx.total, len(b.fx.files))
	}
	if r.Retries != 0 {
		return fmt.Errorf("%d retries on loopback", r.Retries)
	}
	if !b.durable {
		return check.verify()
	}
	// Every file must have been closed, which lifts its partial marker;
	// PlanResume would otherwise lift a leftover marker itself.
	for _, ff := range b.fx.files {
		marker := filepath.Join(dest, filepath.FromSlash(ff.name)) + proto.PartialMarkerSuffix
		if _, err := os.Stat(marker); err == nil {
			return fmt.Errorf("%s still carries its partial marker", ff.name)
		}
	}
	sp := rec.begin(spPlanResume, parent)
	plan, err := proto.PlanResume(dest, b.ds.Files, proto.ResumeOptions{
		JournalPath: filepath.Join(dest, proto.JournalFileName)})
	sp.end()
	if err != nil {
		return fmt.Errorf("PlanResume: %w", err)
	}
	if len(plan.Ranges) != 0 {
		return fmt.Errorf("PlanResume on the finished destination plans %d ranges (%d bytes)", len(plan.Ranges), plan.Refetch)
	}
	return verifyTree(b.fx, dest)
}

// verifyTree compares every destination file's CRC-32C with the
// fixture's.
func verifyTree(fx *fixture, dest string) error {
	// One buffer for the whole tree: a fresh one per file would leave
	// megabytes of garbage that shows up in rss_peak_MB.
	buf := make([]byte, proto.DefaultBlockSize)
	for _, ff := range fx.files {
		f, err := os.Open(filepath.Join(dest, filepath.FromSlash(ff.name)))
		if err != nil {
			return err
		}
		h := crc32.New(castagnoli)
		n, err := io.CopyBuffer(h, struct{ io.Reader }{f}, buf)
		f.Close()
		if err != nil {
			return err
		}
		if n != ff.size || h.Sum32() != ff.crc {
			return fmt.Errorf("%s: %d bytes crc %08x, want %d bytes crc %08x", ff.name, n, h.Sum32(), ff.size, ff.crc)
		}
	}
	return nil
}

// checkSink is bulk's in-memory destination: it keeps nothing, and
// checks each write's CRC-32C against the fixture's tile checksums.
// A write off the tile grid is regenerated and compared byte by byte.
type checkSink struct {
	mu    sync.Mutex
	files map[string]*fileCheck
	bad   []string
}

type fileCheck struct {
	ff      *fixtureFile
	seen    []bool
	covered int64
}

func newCheckSink(fx *fixture) *checkSink {
	s := &checkSink{files: make(map[string]*fileCheck, len(fx.files))}
	for i := range fx.files {
		ff := &fx.files[i]
		s.files[ff.name] = &fileCheck{ff: ff, seen: make([]bool, len(ff.tile))}
	}
	return s
}

// WriteAt implements proto.Sink. Mismatches are recorded, not returned,
// so a corrupt byte fails the pass instead of entering the retry path.
func (s *checkSink) WriteAt(name string, p []byte, off int64) (int, error) {
	c := crc32.Checksum(p, castagnoli)
	s.mu.Lock()
	fc := s.files[name]
	s.mu.Unlock()
	if fc == nil || off < 0 || off+int64(len(p)) > fc.ff.size {
		s.fail(fmt.Sprintf("%s@%d+%d: outside the fixture", name, off, len(p)))
		return len(p), nil
	}
	block := int64(proto.DefaultBlockSize)
	idx := off / block
	onGrid := off%block == 0 && int64(len(p)) == min(block, fc.ff.size-off)
	ok := false
	if onGrid {
		ok = fc.ff.tile[idx] == c
	} else {
		want := make([]byte, len(p))
		fill(fc.ff.key, off, want)
		ok = string(want) == string(p)
	}
	if !ok {
		s.fail(fmt.Sprintf("%s@%d+%d: content differs from the fixture", name, off, len(p)))
		return len(p), nil
	}
	s.mu.Lock()
	switch {
	case !onGrid:
		fc.covered += int64(len(p))
	case !fc.seen[idx]:
		fc.seen[idx] = true
		fc.covered += int64(len(p))
	}
	s.mu.Unlock()
	return len(p), nil
}

// Close implements proto.Sink.
func (s *checkSink) Close(string) error { return nil }

func (s *checkSink) fail(msg string) {
	s.mu.Lock()
	s.bad = append(s.bad, msg)
	s.mu.Unlock()
}

// verify reports the first bad write, or a file left incomplete.
func (s *checkSink) verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bad) > 0 {
		return fmt.Errorf("%d bad writes, first %s", len(s.bad), s.bad[0])
	}
	for name, fc := range s.files {
		if fc.covered < fc.ff.size {
			return fmt.Errorf("%s: %d of %d bytes delivered", name, fc.covered, fc.ff.size)
		}
	}
	return nil
}

// reference measures one reference round: the bare copy of the fixture,
// refCopies times.
func (b *transferBench) reference() (refResult, error) {
	var ref refResult
	for i := 0; i < refCopies; i++ {
		if err := b.ref.clear(); err != nil {
			return refResult{}, err
		}
		iv, err := measure(b.ref.round)
		if err != nil {
			return refResult{}, err
		}
		ref.iv.wall += iv.wall
		ref.iv.cpu += iv.cpu
		ref.bytes += b.fx.total
	}
	return ref, nil
}
