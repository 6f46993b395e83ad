package unitchecker_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFactsRoundTripAcrossUnits drives the real `go vet -vettool`
// protocol end to end and proves that facts cross package boundaries:
// vetting cmd/xferd forces a VetxOnly pass over internal/proto, whose
// errclass run exports a SentinelFact for proto.ErrStalled into the
// unit's .vetx file; the cmd/xferd unit must then import that same
// fact through cfg.PackageVetx. ETA_FACTS_LOG records both sides.
//
// cmd/go caches vet results by tool digest, and a cache hit would skip
// the tool entirely, leaving the log empty. The tool's -V=full digest
// hashes its executable, so the test links it with a build ID unique to
// this run: every vet unit misses the cache, while the compiled
// standard library stays shared with the ordinary build cache. (A
// fixed build ID, or t.TempDir's "001" basename, repeats across runs
// and hits the cache the second time.)
func TestFactsRoundTripAcrossUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "vettool")

	nonce := fmt.Sprintf("factsroundtrip-%d-%d", os.Getpid(), time.Now().UnixNano())
	build := exec.Command(goTool, "build", "-ldflags=-buildid="+nonce, "-o", bin, "./cmd/vettool")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	factsLog := filepath.Join(tmp, "facts.log")
	vet := exec.Command(goTool, "vet", "-vettool="+bin, "./cmd/xferd")
	vet.Dir = repoRoot
	vet.Env = append(os.Environ(),
		"GOFLAGS=-mod=mod",
		"ETA_FACTS_LOG="+factsLog,
	)
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	if err := vet.Run(); err != nil {
		t.Fatalf("go vet -vettool ./cmd/xferd: %v\n%s", err, stderr.String())
	}

	data, err := os.ReadFile(factsLog)
	if err != nil {
		t.Fatalf("facts log was not written: %v", err)
	}
	log := string(data)

	const (
		exported = "export unit=github.com/didclab/eta/internal/proto " +
			"pkg=github.com/didclab/eta/internal/proto obj=ErrStalled analyzer=errclass fact=SentinelFact"
		imported = "import unit=github.com/didclab/eta/cmd/xferd " +
			"pkg=github.com/didclab/eta/internal/proto obj=ErrStalled analyzer=errclass fact=SentinelFact"
	)
	if !strings.Contains(log, exported) {
		t.Errorf("facts log is missing the producer side:\nwant line %q", exported)
	}
	if !strings.Contains(log, imported) {
		t.Errorf("facts log is missing the consumer side:\nwant line %q", imported)
	}
	if t.Failed() {
		// Show the proto/xferd slice of the log, not the whole build.
		var related []string
		for _, line := range strings.Split(log, "\n") {
			if strings.Contains(line, "eta/internal/proto") || strings.Contains(line, "eta/cmd/xferd") {
				related = append(related, line)
			}
		}
		t.Logf("related facts-log lines:\n%s", strings.Join(related, "\n"))
	}
}
