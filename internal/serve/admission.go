package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphmaze/internal/obs"
)

// ErrOverloaded is returned by Acquire when both the in-flight cap and
// the admission queue are full: the request is shed, and the handler maps
// it to 429.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// AdmissionConfig sizes the admission controller.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently admitted requests.
	MaxInFlight int
	// QueueDepth bounds queued (admitted-later) requests across tenants.
	QueueDepth int
	// Registry receives serve.inflight / serve.queued gauges, the
	// serve.queue_wait_ns histogram, and the serve.shed / serve.admitted
	// counters.
	Registry *obs.Registry
}

// Admission is the service's bounded-queue admission controller with
// per-tenant fair scheduling. It implements start-time fair queuing with
// one equal share per tenant: each tenant's requests carry virtual start
// tags spaced by 1 within the tenant, frozen at arrival, and the
// dispatcher always releases the queued request with the smallest tag. A
// tenant flooding the queue only advances its own virtual time, so a
// light tenant's next request keeps a small tag and overtakes the flood —
// max-min fairness without priorities or preemption.
type Admission struct {
	mu       sync.Mutex
	max      int
	depth    int
	inflight int
	queued   int
	vnow     float64
	tenants  map[string]*tenantQueue

	shed, admitted *obs.Counter

	inflightG *obs.Gauge
	queuedG   *obs.Gauge
	waitH     *obs.Histogram
	lane      atomic.Int64
}

// tenantQueue is one tenant's FIFO of waiters plus its virtual-time state.
type tenantQueue struct {
	name string
	// finish is the virtual finish tag of the tenant's most recently
	// charged request (admitted or enqueued); the next request starts at
	// max(vnow, finish).
	finish float64
	q      []*waiter
}

// waiter is one queued request. granted is set under Admission.mu; ready
// is closed exactly once, on grant.
type waiter struct {
	ready chan struct{}
	// tag is the request's virtual start tag, frozen at enqueue time —
	// freezing is what makes the schedule fair: a tenant that floods the
	// queue pushes its own later tags out, while an idle tenant's next
	// request starts back at the current virtual time and overtakes.
	tag     float64
	granted bool
}

// NewAdmission builds the controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	a := &Admission{
		max:     cfg.MaxInFlight,
		depth:   cfg.QueueDepth,
		tenants: make(map[string]*tenantQueue),
	}
	a.inflightG = cfg.Registry.Gauge("serve.inflight")
	a.queuedG = cfg.Registry.Gauge("serve.queued")
	a.waitH = cfg.Registry.Hist("serve.queue_wait_ns")
	a.shed = cfg.Registry.Counter("serve.shed")
	a.admitted = cfg.Registry.Counter("serve.admitted")
	return a
}

// tenant returns name's queue, creating it on first sight. Names come off
// the socket, so the map is bounded: once it holds more entries than
// could have a request in flight or queued (max + depth), a new name
// first drops every tenant with nothing queued. A dropped tenant comes
// back with a fresh tenant's tag, vnow; its last request was admitted, so
// its finish was at most vnow + 1 and it is forgiven at most one
// share — which any client can already claim by sending a new name. The
// sweep runs only when a name is inserted: traffic from a fixed set of
// tenants never scans or allocates. The caller holds a.mu.
func (a *Admission) tenant(name string) *tenantQueue {
	t := a.tenants[name]
	if t == nil {
		if len(a.tenants) > a.max+a.depth {
			for n, idle := range a.tenants {
				if len(idle.q) == 0 {
					delete(a.tenants, n)
				}
			}
		}
		t = &tenantQueue{name: name}
		a.tenants[name] = t
	}
	return t
}

// chargeLocked assigns the next virtual start tag for tenant t and
// advances t's finish by one share. The caller holds a.mu.
func (a *Admission) chargeLocked(t *tenantQueue) float64 {
	tag := t.finish
	if a.vnow > tag {
		tag = a.vnow
	}
	t.finish = tag + 1
	return tag
}

// admitLocked takes an in-flight slot at virtual time tag while the
// caller holds a.mu.
func (a *Admission) admitLocked(tag float64) {
	if tag > a.vnow {
		a.vnow = tag
	}
	a.inflight++
	a.admitted.Add(1)
	a.inflightG.Set(float64(a.inflight))
}

// dispatchLocked releases queued waiters while slots are free, smallest
// frozen start tag first (ties broken by tenant name, so the order is
// deterministic). Per-tenant queues are FIFO with ascending tags, so
// only heads compete. The caller holds a.mu.
func (a *Admission) dispatchLocked() {
	for a.inflight < a.max {
		var best *tenantQueue
		var bestTag float64
		for _, t := range a.tenants {
			if len(t.q) == 0 {
				continue
			}
			tag := t.q[0].tag
			if best == nil || tag < bestTag || (tag == bestTag && t.name < best.name) {
				best, bestTag = t, tag
			}
		}
		if best == nil {
			return
		}
		w := best.q[0]
		best.q = best.q[1:]
		a.queued--
		a.queuedG.Set(float64(a.queued))
		a.admitLocked(w.tag)
		w.granted = true
		close(w.ready)
	}
}

// Acquire admits the request, queuing it under the tenant's fair share if
// the service is saturated. It returns ErrOverloaded when the queue is
// full (shed now, retry later) and the context's error if the caller gave
// up while queued. On success the caller must Release exactly once.
func (a *Admission) Acquire(ctx context.Context, tenant string) error {
	t, w, err := a.enqueue(tenant)
	if w == nil {
		return err
	}
	waitStart := time.Now()
	select {
	case <-w.ready:
		a.waitH.Record(int(a.lane.Add(1)), time.Since(waitStart).Nanoseconds())
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		if w.granted {
			// Raced with a grant: the slot is ours, so hand it back.
			a.releaseLocked()
			return ctx.Err()
		}
		// Leave the queue now, not when the waiter reaches its head: a
		// queue only ever holds live waiters, at most QueueDepth of them.
		t.q = slices.DeleteFunc(t.q, func(q *waiter) bool { return q == w })
		a.queued--
		a.queuedG.Set(float64(a.queued))
		return ctx.Err()
	}
}

// enqueue charges the request to its tenant and admits it now (no
// waiter, nil error), sheds it (no waiter, ErrOverloaded), or queues a
// waiter on the tenant's queue for Acquire to wait on outside the lock.
func (a *Admission) enqueue(tenant string) (*tenantQueue, *waiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenant(tenant)
	if a.inflight < a.max && a.queued == 0 {
		a.admitLocked(a.chargeLocked(t))
		return t, nil, nil
	}
	if a.queued >= a.depth {
		a.shed.Add(1)
		return t, nil, ErrOverloaded
	}
	w := &waiter{ready: make(chan struct{}), tag: a.chargeLocked(t)}
	t.q = append(t.q, w)
	a.queued++
	a.queuedG.Set(float64(a.queued))
	return t, w, nil
}

// releaseLocked frees one in-flight slot and dispatches. The caller holds
// a.mu.
func (a *Admission) releaseLocked() {
	a.inflight--
	a.inflightG.Set(float64(a.inflight))
	a.dispatchLocked()
}

// Release frees the slot taken by a successful Acquire.
func (a *Admission) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.releaseLocked()
}
