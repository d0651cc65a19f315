package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Job states, in lifecycle order.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobStatus is the poll-side view of an async solve job.
type JobStatus struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Error     string         `json:"error,omitempty"`
	Result    *SolveResponse `json:"result,omitempty"`
}

// job is one queued solve. Mutable fields are guarded by the queue's
// mutex. ctx is the solve's context — registry waits, growth and the
// solver's Stop hook all hang off it — and cancel ends it: called when
// the job is canceled, and again (a no-op then) when it retires.
type job struct {
	id        string
	req       SolveRequest
	reqID     string // observability id of the submitting HTTP request
	traced    bool   // the submission was traced; the runner re-opens a trace under reqID
	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *SolveResponse
	ctx       context.Context
	cancel    context.CancelFunc
	canceled  bool
	terminal  bool // retired into history; complete() must not run again
}

// jobQueue runs heavy solves asynchronously: submit → poll → result.
// A bounded buffered channel provides admission control (submissions
// beyond the backlog are rejected with ErrQueueFull rather than queued
// without bound), a fixed pool of workers bounds solver concurrency,
// and finished jobs are retained for polling only up to a history cap —
// a long-running service does not accumulate result plans without
// bound; the oldest finished jobs (and their ids) age out.
type jobQueue struct {
	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // terminal job ids, oldest first (pruning order)
	history  int
	nextID   int64
	closed   bool

	ch       chan *job
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	run func(j *job) // set by the server: executes the solve
	m   *metrics
}

// ErrQueueFull is returned when the async backlog is at capacity.
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// ErrClosed is returned for submissions after the server shut down.
var ErrClosed = fmt.Errorf("serve: job queue closed")

func newJobQueue(workers, depth, history int, m *metrics) *jobQueue {
	q := &jobQueue{
		jobs:    make(map[string]*job),
		history: history,
		ch:      make(chan *job, depth),
		quit:    make(chan struct{}),
		m:       m,
	}
	q.workers(workers)
	return q
}

func (q *jobQueue) workers(n int) {
	for w := 0; w < n; w++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for {
				select {
				case <-q.quit:
					return
				case j := <-q.ch:
					q.execute(j)
				}
			}
		}()
	}
}

func (q *jobQueue) execute(j *job) {
	q.mu.Lock()
	if j.canceled {
		q.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	q.mu.Unlock()

	// A panicking solve must not kill its worker goroutine (the pool
	// would silently shrink until the queue deadlocks): contain it,
	// count it, and fail just this job.
	defer func() {
		if p := recover(); p != nil {
			q.m.panicsTotal.Add(1)
			q.complete(j, nil, panicError{val: p})
		}
	}()
	q.run(j) // fills j.result / j.errMsg via complete()
}

// complete records the outcome; the runner calls it once per job —
// a second call (the panic-recovery path firing after a completed
// run somehow panicked on its way out) is a no-op.
func (q *jobQueue) complete(j *job, res *SolveResponse, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.terminal {
		return
	}
	j.finished = time.Now()
	switch {
	case j.canceled:
		// A cancellation racing the finish keeps the canceled state; the
		// partial result (the solver returns its incumbent on Stop) is
		// still attached for callers that want it.
		j.state = JobCanceled
		j.result = res
	case err != nil:
		j.state = JobFailed
		j.errMsg = err.Error()
		q.m.jobsFailed.Add(1)
	default:
		j.state = JobDone
		j.result = res
		q.m.jobsDone.Add(1)
	}
	q.retireLocked(j)
}

// retireLocked enrolls a job that reached a terminal state into the
// bounded history, evicting the oldest finished jobs past the cap.
// Polling an evicted id returns 404 — the documented contract is that
// results stay available for the `history` most recent completions.
func (q *jobQueue) retireLocked(j *job) {
	j.terminal = true
	j.cancel() // release the context of a job that ran to completion
	q.finished = append(q.finished, j.id)
	for q.history > 0 && len(q.finished) > q.history {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// submit enqueues a solve request and returns its job id. reqID is the
// submitting request's observability id (stamped into the eventual
// result); traced propagates the submission's tracing decision so the
// async solve keeps the root trace id.
func (q *jobQueue) submit(req SolveRequest, reqID string, traced bool) (string, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", ErrClosed
	}
	q.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("job-%d", q.nextID),
		req:       req,
		reqID:     reqID,
		traced:    traced,
		state:     JobQueued,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
	}
	select {
	case q.ch <- j:
		q.jobs[j.id] = j
		q.m.jobsSubmitted.Add(1)
		q.mu.Unlock()
		return j.id, nil
	default:
		q.mu.Unlock()
		cancel()
		q.m.jobsRejected.Add(1)
		return "", ErrQueueFull
	}
}

// cancelJob cancels a queued or running job: queued jobs are skipped by
// their worker, running jobs see their context canceled and return the
// current incumbent.
func (q *jobQueue) cancelJob(id string) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return false, fmt.Errorf("serve: unknown job %q", id)
	}
	if j.canceled || j.state == JobDone || j.state == JobFailed {
		return false, nil
	}
	j.canceled = true
	j.cancel()
	if j.state == JobQueued {
		// Terminal right here: the worker will skip it without calling
		// complete. Running jobs retire when their runner completes.
		j.state = JobCanceled
		j.finished = time.Now()
		q.retireLocked(j)
	}
	q.m.jobsCanceled.Add(1)
	return true, nil
}

// status snapshots one job.
func (q *jobQueue) status(id string) (JobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %q", id)
	}
	return q.statusLocked(j), nil
}

func (q *jobQueue) statusLocked(j *job) JobStatus {
	s := JobStatus{
		ID:        j.id,
		State:     j.state,
		Submitted: j.submitted,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// list snapshots every job (submission order not guaranteed).
func (q *jobQueue) list() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, q.statusLocked(j))
	}
	return out
}

func (q *jobQueue) queued() int { return len(q.ch) }

// drain shuts the queue down gracefully: submissions are refused
// (ErrClosed), jobs still waiting in the backlog are canceled — their
// workers skip them — and drain waits, bounded by ctx, for the running
// jobs to finish naturally. If the grace expires first, the running
// jobs are hard-canceled (their solvers stop at the next node expansion
// and retire with their incumbents) and the worker exit is still
// awaited, so no job goroutine outlives drain.
func (q *jobQueue) drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	for _, j := range q.jobs {
		if !j.canceled && j.state == JobQueued {
			j.canceled = true
			j.cancel()
			j.state = JobCanceled
			j.finished = time.Now()
			q.retireLocked(j)
			q.m.jobsCanceled.Add(1)
		}
	}
	q.mu.Unlock()
	q.quitOnce.Do(func() { close(q.quit) })

	done := make(chan struct{})
	go func() { q.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	q.mu.Lock()
	running := 0
	for _, j := range q.jobs {
		if !j.canceled && j.state == JobRunning {
			j.canceled = true
			j.cancel()
			running++
		}
	}
	q.mu.Unlock()
	<-done
	return fmt.Errorf("serve: job drain grace expired; %d running jobs canceled: %w", running, ctx.Err())
}

// close stops the workers after their current job and cancels everything
// still queued or running.
func (q *jobQueue) close() {
	q.quitOnce.Do(func() { close(q.quit) })
	q.mu.Lock()
	q.closed = true
	for _, j := range q.jobs {
		if !j.canceled && (j.state == JobQueued || j.state == JobRunning) {
			j.canceled = true
			j.cancel()
			if j.state == JobQueued {
				j.state = JobCanceled
				j.finished = time.Now()
			}
		}
	}
	q.mu.Unlock()
	q.wg.Wait()
}
