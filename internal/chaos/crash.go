package chaos

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Process-crash harness: the piece of the chaos toolkit that kills a
// REAL process (SIGKILL — no deferred cleanup, no flushes) at a
// scripted point in its transfer, so crash-recovery tests exercise the
// same artifacts a production crash leaves behind: a preallocated
// destination full of holes, a receipt journal cut mid-batch, files
// still marked in flight by their length. The child process cooperates only
// by printing progress lines; everything else is physics.

// ProgressPrefix is the stdout line prefix a crash-harness child uses
// to report its cumulative progress in payload bytes ("PROGRESS 1048576").
// RunUntilOffset parses these lines to decide when to kill.
const ProgressPrefix = "PROGRESS "

// FormatProgress renders one progress line (without newline) for child
// processes reporting to RunUntilOffset.
func FormatProgress(bytes int64) string {
	return ProgressPrefix + strconv.FormatInt(bytes, 10)
}

// CrashResult is what RunUntilOffset observed of the child.
type CrashResult struct {
	// Killed reports the child was SIGKILLed at the scripted offset.
	Killed bool
	// ExitCode is the child's exit code (-1 when killed by signal).
	ExitCode int
	// Progress is the last progress value the child reported.
	Progress int64
	// Lines holds the child's non-progress stdout lines in order —
	// the channel for structured results (stats, verdicts).
	Lines []string
}

// RunUntilOffset starts cmd, reads its stdout line by line, and SIGKILLs
// the process the moment a progress line reports at least killAt bytes
// (killAt < 0 never kills — a clean reference run). It drains stdout to
// EOF and reaps the child either way. The kill is asynchronous by
// nature: a few more blocks may land (and be journaled) between the
// trigger line and the process dying — more durable state, never less,
// so offsets script a lower bound.
func RunUntilOffset(cmd *exec.Cmd, killAt int64) (CrashResult, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return CrashResult{}, err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return CrashResult{}, err
	}
	var res CrashResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ProgressPrefix) {
			n, perr := strconv.ParseInt(strings.TrimSpace(line[len(ProgressPrefix):]), 10, 64)
			if perr != nil {
				continue
			}
			res.Progress = n
			if killAt >= 0 && !res.Killed && n >= killAt {
				res.Killed = true
				_ = cmd.Process.Kill()
			}
			continue
		}
		res.Lines = append(res.Lines, line)
	}
	werr := cmd.Wait()
	if cmd.ProcessState != nil {
		res.ExitCode = cmd.ProcessState.ExitCode()
	}
	if werr != nil && !res.Killed {
		if _, ok := werr.(*exec.ExitError); !ok {
			return res, werr
		}
	}
	return res, nil
}

// TornTail simulates a crash severing a file mid-write: it cuts `cut`
// bytes off the end and then XOR-garbles the last `garble` bytes that
// remain — a deterministic corruption (no RNG; fixed mask), producing
// exactly the truncated-and-trashed tail shape a torn-tolerant decoder
// must survive.
func TornTail(path string, cut, garble int64) error {
	if cut < 0 || garble < 0 {
		return fmt.Errorf("chaos: negative torn-tail cut/garble")
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size() - cut
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if garble == 0 || size == 0 {
		return nil
	}
	if garble > size {
		garble = size
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, garble)
	if _, err := f.ReadAt(buf, size-garble); err != nil {
		return err
	}
	for i := range buf {
		buf[i] ^= 0x5A
	}
	if _, err := f.WriteAt(buf, size-garble); err != nil {
		return err
	}
	return f.Sync()
}
