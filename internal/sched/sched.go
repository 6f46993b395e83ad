// Package sched provides the bounded worker pool the experiment harness
// fans independent cells out on. Every (algorithm × concurrency ×
// testbed) cell of the paper's evaluation is an isolated simulation
// with a fixed seed, so the only thing parallel execution must preserve
// is *assembly order*: results are written into caller-owned slots
// keyed by cell index, never appended in completion order, which keeps
// a parallel run bit-identical to a serial one.
//
// The pool is deliberately small: Go schedules a task (blocking while
// all workers are busy), Wait blocks until every scheduled task
// finished and returns the first error. The first failure cancels the
// pool's context so in-flight and queued tasks can abort early; tasks
// scheduled after cancellation are never started.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/didclab/eta/internal/obs"
)

// metrics is the process-wide registry pool counters are written to.
// Telemetry is strictly write-only — no pool decision ever reads it —
// so instrumented runs stay bit-identical to uninstrumented ones.
var metrics atomic.Pointer[obs.Registry]

// SetMetrics installs (or, with nil, removes) the registry that pool
// activity counters are recorded in.
func SetMetrics(r *obs.Registry) { metrics.Store(r) }

// Pool runs tasks on a bounded set of workers.
//
// The zero value is not usable; construct with New. A Pool must not be
// reused after Wait returns.
type Pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

// New returns a pool whose tasks receive a context derived from ctx.
// workers bounds how many tasks run at once; values < 1 mean
// GOMAXPROCS. workers == 1 degenerates to strictly serial execution in
// submission order, which the determinism tests exploit.
func New(ctx context.Context, workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(ctx)
	return &Pool{ctx: ctx, cancel: cancel, sem: make(chan struct{}, workers)}
}

// Go schedules fn on the pool, blocking until a worker slot is free.
// fn receives the pool's context; it should abort promptly once that
// context is cancelled. If the pool has already failed (or the parent
// context was cancelled), fn is dropped without running and Wait will
// report the cause.
func (p *Pool) Go(fn func(ctx context.Context) error) {
	select {
	case p.sem <- struct{}{}:
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		metrics.Load().Counter("sched_tasks_started").Inc()
		if err := fn(p.ctx); err != nil {
			metrics.Load().Counter("sched_tasks_failed").Inc()
			p.fail(err)
			return
		}
		metrics.Load().Counter("sched_tasks_completed").Inc()
	}()
}

// Wait blocks until every scheduled task has finished and returns the
// first error any task produced (or the parent context's error if it
// was cancelled before all tasks could be scheduled).
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.cancel()
	return p.err
}

// fail records the first error and cancels the pool's context so the
// remaining tasks can abort.
func (p *Pool) fail(err error) {
	p.once.Do(func() {
		p.err = err
		p.cancel()
	})
}

// ForEach fans fn out over the indices [0, n) on a pool of the given
// width and waits for all of them. The index is the cell key: fn must
// write its result into the caller's i-th slot so assembly order is
// independent of completion order.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	p := New(ctx, workers)
	for i := 0; i < n; i++ {
		i := i
		p.Go(func(ctx context.Context) error { return fn(ctx, i) })
	}
	return p.Wait()
}

// Map fans fn out over the indices [0, n) and assembles the results in
// index order. On error the partial results are discarded.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
