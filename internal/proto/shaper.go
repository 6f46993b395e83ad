package proto

import (
	"sync"
	"time"

	"github.com/didclab/eta/internal/units"
)

// Limiter is a token-bucket rate limiter used to shape data streams so
// loopback tests exhibit WAN-like physics: a per-stream limiter stands
// in for the TCP window cap (making parallelism matter) and a shared
// link limiter stands in for the bottleneck capacity.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64
	tokens float64
	last   time.Time
	sleep  func(time.Duration)
}

// NewLimiter returns a limiter at the given rate with a default burst
// of 64 KiB (or one second of rate, whichever is smaller). A zero or
// negative rate means unlimited.
func NewLimiter(rate units.Rate) *Limiter {
	bps := float64(rate) / 8
	burst := 64 * 1024.0
	if bps > 0 && bps < burst {
		burst = bps
	}
	return &Limiter{rate: bps, burst: burst, sleep: time.Sleep}
}

// Wait blocks until n bytes may pass.
func (l *Limiter) Wait(n int) {
	if l == nil || l.rate <= 0 || n <= 0 {
		return
	}
	for n > 0 {
		take := float64(n)
		if take > l.burst {
			take = l.burst
		}
		l.waitFor(take)
		n -= int(take)
	}
}

func (l *Limiter) waitFor(n float64) {
	l.mu.Lock()
	now := time.Now()
	if l.last.IsZero() {
		l.last = now
		l.tokens = l.burst
	}
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	var wait time.Duration
	if l.tokens >= n {
		l.tokens -= n
	} else {
		deficit := n - l.tokens
		l.tokens = 0
		wait = time.Duration(deficit / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		l.sleep(wait)
	}
}

// delayQueue delivers items a fixed delay after they are pushed,
// preserving order — the propagation-delay model for control-channel
// messages. A zero delay passes items through synchronously.
//
// Close and Push may race freely: a Push that observes the queue
// closed drops its item instead of sending on a closed channel, and
// Close waits out any Push already committed to sending before it
// closes the channel — so shaped-channel teardown can never panic the
// server.
type delayQueue[T any] struct {
	delay time.Duration
	ch    chan delayed[T]
	out   func(T)
	done  chan struct{} // closed when the delivery goroutine exits

	mu      sync.Mutex
	closed  bool
	pushers sync.WaitGroup // Pushes past the closed check, not yet sent
}

type delayed[T any] struct {
	due  time.Time
	item T
}

// newDelayQueue starts a queue invoking out for each item after delay.
// Close the returned queue to stop its goroutine.
func newDelayQueue[T any](delay time.Duration, capacity int, out func(T)) *delayQueue[T] {
	q := &delayQueue[T]{delay: delay, out: out}
	if delay > 0 {
		q.ch = make(chan delayed[T], capacity)
		q.done = make(chan struct{})
		go func() {
			defer close(q.done)
			for d := range q.ch {
				if wait := time.Until(d.due); wait > 0 {
					time.Sleep(wait)
				}
				q.out(d.item)
			}
		}()
	}
	return q
}

// Push enqueues an item for delivery after the queue's delay. Pushes
// after Close drop the item.
func (q *delayQueue[T]) Push(item T) {
	if q.delay <= 0 {
		q.mu.Lock()
		closed := q.closed
		q.mu.Unlock()
		if !closed {
			q.out(item)
		}
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.pushers.Add(1)
	q.mu.Unlock()
	q.ch <- delayed[T]{due: time.Now().Add(q.delay), item: item}
	q.pushers.Done()
}

// Close stops the queue. Items already queued are still delivered;
// Close returns once the delivery goroutine has drained them, so after
// Close the out callback will never run again. Idempotent.
func (q *delayQueue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		if q.done != nil {
			<-q.done
		}
		return
	}
	q.closed = true
	q.mu.Unlock()
	if q.ch == nil {
		return
	}
	q.pushers.Wait()
	close(q.ch)
	<-q.done
}
