package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// errShed marks a request rejected by overload protection: the wait
// queue was full, or the request's deadline expired before it ever got
// to execute. Handlers translate it into 429 + Retry-After — the
// client's work was NOT attempted and an immediate retry against a
// less-loaded replica is safe.
var errShed = errors.New("serve: overloaded")

// errDraining marks a request refused because the server is shutting
// down; handlers translate it into 503 + Retry-After.
var errDraining = errors.New("serve: draining")

// Endpoint-class weights against the shared admission semaphore. Solve
// and simulate both burn a core for their full duration (BAB search,
// Monte-Carlo cascades); an estimate is a single σ̂ scan, markedly
// cheaper. Cheap reads (healthz, readyz, metrics) are not
// admitted at all.
const (
	weightSolve    = 2
	weightEstimate = 1
	weightSimulate = 2
)

// admission is a weighted semaphore with a bounded FIFO wait queue —
// the serve tier's overload valve. A request acquires its endpoint
// class's weight before doing registry or solver work; when the
// semaphore is saturated it waits in line up to maxQueue deep, and
// beyond that it is shed immediately (errShed, 429). A waiter whose
// context dies in line (deadline expired while queued) is shed without
// ever executing — exactly the work a saturated server must not do.
type admission struct {
	capacity int64
	maxQueue int

	mu    sync.Mutex
	inUse int64
	queue []*waiter
}

type waiter struct {
	weight int64
	ready  chan struct{} // closed when capacity is handed to this waiter
}

func newAdmission(capacity int64, maxQueue int) *admission {
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// acquire blocks until weight units are granted, the queue overflows,
// or ctx dies. On nil error the caller owns the units and must release
// them.
func (a *admission) acquire(ctx context.Context, weight int64) error {
	a.mu.Lock()
	if len(a.queue) == 0 && a.inUse+weight <= a.capacity {
		a.inUse += weight
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return fmt.Errorf("%w: admission queue full", errShed)
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: give the units back (and
			// possibly wake the next waiter) before reporting the shed.
			a.releaseLocked(weight)
		default:
			for i, q := range a.queue {
				if q == w {
					a.queue = append(a.queue[:i], a.queue[i+1:]...)
					break
				}
			}
		}
		a.mu.Unlock()
		return fmt.Errorf("%w: deadline expired while queued: %v", errShed, ctx.Err())
	}
}

// release returns weight units and hands freed capacity to queued
// waiters in FIFO order.
func (a *admission) release(weight int64) {
	a.mu.Lock()
	a.releaseLocked(weight)
	a.mu.Unlock()
}

func (a *admission) releaseLocked(weight int64) {
	a.inUse -= weight
	for len(a.queue) > 0 && a.inUse+a.queue[0].weight <= a.capacity {
		w := a.queue[0]
		a.queue = a.queue[1:]
		a.inUse += w.weight
		close(w.ready)
	}
}

// queued reports the current wait-queue depth (the admit_queued gauge).
func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// drainGroup tracks in-flight admitted requests so Shutdown can wait
// for them. enter/leave bracket each heavy handler; once draining is
// flipped, enter refuses and drain returns when the count reaches zero
// (or its context dies). It is a WaitGroup whose Add cannot race Wait:
// the draining check and the count increment happen under one lock.
type drainGroup struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{} // created by drain when n > 0, closed at n == 0
}

// enter registers an in-flight request; it fails once draining began.
func (d *drainGroup) enter() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return errDraining
	}
	d.n++
	return nil
}

func (d *drainGroup) leave() {
	d.mu.Lock()
	d.n--
	if d.n == 0 && d.idle != nil {
		close(d.idle)
		d.idle = nil
	}
	d.mu.Unlock()
}

// isDraining reports whether a drain has begun (the readiness probe and
// the draining metrics gauge).
func (d *drainGroup) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// drain flips the group into draining mode (all future enters fail) and
// waits for the in-flight count to reach zero. Safe to call more than
// once; ctx bounds the wait.
func (d *drainGroup) drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	if d.idle == nil {
		d.idle = make(chan struct{})
	}
	idle := d.idle
	d.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %d requests still in flight: %w", d.inflight(), ctx.Err())
	}
}

func (d *drainGroup) inflight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}
