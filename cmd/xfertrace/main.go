// Command xfertrace is the flight recorder for traced transfers: it
// replays a recorded JSONL event stream (obs.Log format, as written by
// xferd or energytransfer with -trace), reconstructs the span
// forest, and reports where the time and the energy went.
//
//	xfertrace run.jsonl                  timeline, critical path, top energy
//	xfertrace -top 20 run.jsonl          more top-energy spans
//	xfertrace -chrome trace.json run.jsonl   Chrome trace-event export
//	xfertrace -check run.jsonl           CI mode: balanced forest + energy accounting
//
// With no file argument the stream is read from stdin. Energy figures
// come from the offline attribution pass: the recorded
// energy_model_sample curve is replayed over the forest and each
// interval's exact energy split among the spans that were live leaves,
// so self-joules sum to the source total.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/didclab/eta/internal/obs/span"
)

func main() {
	check := flag.Bool("check", false, "verify the forest (balanced begin/end, energy accounting) and exit nonzero on failure")
	tol := flag.Float64("tol", 0.01, "relative tolerance for the -check energy accounting")
	top := flag.Int("top", 10, "how many top-energy spans to list")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON export (chrome://tracing, Perfetto) to this file")
	flag.Parse()

	if err := run(flag.Args(), *check, *tol, *top, *chrome, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xfertrace:", err)
		os.Exit(1)
	}
}

func run(args []string, check bool, tol float64, top int, chrome string, w io.Writer) error {
	var in io.Reader = os.Stdin
	if len(args) > 1 {
		return fmt.Errorf("at most one events file (got %d)", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	forest, err := span.ReadForest(in)
	if err != nil {
		return err
	}
	span.Attribute(forest)

	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			return fmt.Errorf("-chrome: %w", err)
		}
		if err := span.WriteChromeTrace(f, forest); err != nil {
			f.Close()
			return fmt.Errorf("-chrome: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-chrome: %w", err)
		}
		fmt.Fprintf(w, "wrote Chrome trace (%d spans) to %s\n", forest.SpanCount(), chrome)
	}

	if check {
		return runCheck(forest, tol, w)
	}

	printSummary(w, forest)
	printTimeline(w, forest)
	printCriticalPaths(w, forest)
	printTopEnergy(w, forest, top)
	return nil
}

// runCheck is the CI gate: a recorded run must reconstruct into a
// balanced forest whose attributed energy accounts for the source's
// final total (span.Forest.Check).
func runCheck(f *span.Forest, tol float64, w io.Writer) error {
	if err := f.Check(tol); err != nil {
		for _, msg := range strings.Split(err.Error(), "\n") {
			fmt.Fprintln(w, "FAIL:", msg)
		}
		return errors.New("check failed")
	}
	fmt.Fprintf(w, "ok: %d spans, %d traces, balanced; ", f.SpanCount(), len(f.Roots))
	if total := f.FinalJoules(); total > 0 {
		fmt.Fprintf(w, "%.3fJ attributed of %.3fJ sampled (%.2f%% unattributed)\n",
			f.SumSelfJoules(), total, f.Unattributed/total*100)
	} else {
		fmt.Fprintln(w, "no energy samples")
	}
	return nil
}

func printSummary(w io.Writer, f *span.Forest) {
	fmt.Fprintf(w, "spans %d  roots %d  leaked %d  dangling %d  energy samples %d\n",
		f.SpanCount(), len(f.Roots), len(f.Leaked), f.Dangling, len(f.Samples))
	if total := f.FinalJoules(); total > 0 {
		fmt.Fprintf(w, "energy: %.3f J sampled total, %.3f J attributed to spans, %.3f J unattributed\n",
			total, f.SumSelfJoules(), f.Unattributed)
	}
	fmt.Fprintln(w)
}

// epoch returns the earliest span start — the timeline's zero.
func epoch(f *span.Forest) time.Time {
	var e time.Time
	for _, rec := range f.ByID {
		if e.IsZero() || rec.Start.Before(e) {
			e = rec.Start
		}
	}
	return e
}

// sortedRoots returns the forest roots by start time (ID as tiebreak so
// output is stable).
func sortedRoots(f *span.Forest) []*span.Record {
	roots := append([]*span.Record(nil), f.Roots...)
	sort.Slice(roots, func(i, j int) bool {
		if !roots[i].Start.Equal(roots[j].Start) {
			return roots[i].Start.Before(roots[j].Start)
		}
		return roots[i].ID < roots[j].ID
	})
	return roots
}

func printTimeline(w io.Writer, f *span.Forest) {
	fmt.Fprintln(w, "timeline:")
	e := epoch(f)
	for _, root := range sortedRoots(f) {
		printSpanTree(w, root, e, 1)
	}
	fmt.Fprintln(w)
}

// printSpanTree renders one span and its children, indented, children
// in start order.
func printSpanTree(w io.Writer, rec *span.Record, e time.Time, depth int) {
	at := float64(rec.Start.Sub(e)) / float64(time.Millisecond)
	fmt.Fprintf(w, "%*s%s [%s] +%.1fms", 2*depth, "", rec.Name, rec.Trace, at)
	if rec.Open {
		fmt.Fprintf(w, " OPEN")
	} else {
		fmt.Fprintf(w, " %.1fms", rec.DurMS)
	}
	if rec.PlannedBytes > 0 {
		fmt.Fprintf(w, " %dB of %dB planned", rec.Bytes, rec.PlannedBytes)
	} else if rec.Bytes > 0 {
		fmt.Fprintf(w, " %dB", rec.Bytes)
	}
	if rec.SelfJoules > 0 {
		fmt.Fprintf(w, " %.3fJ", rec.SelfJoules)
	}
	for _, key := range []string{"label", "file", "cause", "kind", "error"} {
		if v, ok := rec.Attrs[key]; ok {
			fmt.Fprintf(w, " %s=%v", key, v)
		}
	}
	fmt.Fprintln(w)
	kids := append([]*span.Record(nil), rec.Children...)
	sort.Slice(kids, func(i, j int) bool {
		if !kids[i].Start.Equal(kids[j].Start) {
			return kids[i].Start.Before(kids[j].Start)
		}
		return kids[i].ID < kids[j].ID
	})
	for _, c := range kids {
		printSpanTree(w, c, e, depth+1)
	}
}

func printCriticalPaths(w io.Writer, f *span.Forest) {
	printed := false
	for _, root := range sortedRoots(f) {
		if root.Name != span.NameTransfer {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "critical path (last-finishing chain per transfer):")
			printed = true
		}
		for i, rec := range span.CriticalPath(root) {
			marker := "└─"
			if i == 0 {
				marker = "• "
			}
			fmt.Fprintf(w, "  %*s%s %s %.1fms", 2*i, "", marker, rec.Name, rec.DurMS)
			if v, ok := rec.Attrs["file"]; ok {
				fmt.Fprintf(w, " file=%v", v)
			}
			fmt.Fprintln(w)
		}
	}
	if printed {
		fmt.Fprintln(w)
	}
}

func printTopEnergy(w io.Writer, f *span.Forest, n int) {
	if n <= 0 || f.FinalJoules() <= 0 {
		return
	}
	recs := make([]*span.Record, 0, f.SpanCount())
	for _, rec := range f.ByID {
		if rec.SelfJoules > 0 {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].SelfJoules != recs[j].SelfJoules {
			return recs[i].SelfJoules > recs[j].SelfJoules
		}
		return recs[i].ID < recs[j].ID
	})
	if len(recs) > n {
		recs = recs[:n]
	}
	total := f.FinalJoules()
	fmt.Fprintf(w, "top %d spans by attributed energy:\n", len(recs))
	for _, rec := range recs {
		fmt.Fprintf(w, "  %8.3fJ %5.1f%%  %s [%s]", rec.SelfJoules, rec.SelfJoules/total*100, rec.Name, rec.Trace)
		if v, ok := rec.Attrs["file"]; ok {
			fmt.Fprintf(w, " file=%v", v)
		}
		fmt.Fprintln(w)
	}
}
