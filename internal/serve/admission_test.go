package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 4})
	ctx := context.Background()
	if err := a.Acquire(ctx, "a"); err != nil {
		t.Fatalf("Acquire 1: %v", err)
	}
	if err := a.Acquire(ctx, "b"); err != nil {
		t.Fatalf("Acquire 2: %v", err)
	}
	a.Release()
	a.Release()
	if got := a.admitted.Value(); got != 2 {
		t.Errorf("Admitted = %d, want 2", got)
	}
	if got := a.shed.Value(); got != 0 {
		t.Errorf("Shed = %d, want 0", got)
	}
}

// TestAdmissionFastPathDoesNotAllocate: an uncontended Acquire / Release
// cycle for a tenant the controller has already seen — every request of a
// server below its in-flight cap — allocates nothing.
func TestAdmissionFastPathDoesNotAllocate(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 8, QueueDepth: 64})
	ctx := context.Background()
	cycle := func() {
		if err := a.Acquire(ctx, "tenant"); err != nil {
			t.Fatal(err)
		}
		a.Release()
	}
	cycle() // the first sight of a tenant creates its state
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("uncontended Acquire/Release allocates %v per cycle", n)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 0})
	ctx := context.Background()
	if err := a.Acquire(ctx, "a"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Slot taken, queue depth 0: the next request is shed immediately.
	if err := a.Acquire(ctx, "b"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Acquire while full = %v, want ErrOverloaded", err)
	}
	if got := a.shed.Value(); got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
	a.Release()
	if err := a.Acquire(ctx, "b"); err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	a.Release()
}

// TestAdmissionWeightedFairOrder pins the SFQ dispatch order with equal
// shares: with the only slot held, alice queues three requests and bob
// two; on successive releases the grants interleave by frozen virtual
// start tags — one grant per tenant per virtual time unit — instead of
// draining either tenant's backlog first.
func TestAdmissionWeightedFairOrder(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 16})
	ctx := context.Background()
	if err := a.Acquire(ctx, "carol"); err != nil {
		t.Fatalf("Acquire carol: %v", err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	expected := 0
	enqueue := func(label, tenant string) {
		// Serialize enqueues so virtual start tags are assigned in a known
		// order: wait until this waiter is actually in the queue before
		// launching the next.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(ctx, tenant); err != nil {
				t.Errorf("Acquire %s: %v", label, err)
				return
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			a.Release()
		}()
		expected++
		waitQueued(t, a, label, expected)
	}
	enqueue("a1", "alice")
	enqueue("a2", "alice")
	enqueue("a3", "alice")
	enqueue("b1", "bob")
	enqueue("b2", "bob")

	// Release the held slot; each completing waiter releases the next, so
	// the whole queue drains in tag order.
	a.Release()
	wg.Wait()

	// Tags: a1=0, a2=1, a3=2, b1=0, b2=1. Ties break by tenant name, so
	// the fair order is a1, b1, a2, b2, a3 — bob's requests overtake
	// alice's backlog despite alice's head start.
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

// waitQueued blocks until the admission controller holds exactly want
// queued waiters.
func waitQueued(t *testing.T, a *Admission, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		n := a.queued
		a.mu.Unlock()
		if n == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("waiter %s never queued (want %d queued)", label, want)
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 4})
	if err := a.Acquire(context.Background(), "a"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, "b") }()
	// Wait for b to queue, then abandon it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		n := a.queued
		a.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not consume the slot: releasing the held
	// one leaves the controller empty.
	a.Release()
	a.mu.Lock()
	inflight, queued := a.inflight, a.queued
	a.mu.Unlock()
	if inflight != 0 || queued != 0 {
		t.Errorf("after cancel+release: inflight %d queued %d, want 0 0", inflight, queued)
	}
	// And a fresh Acquire still works.
	if err := a.Acquire(context.Background(), "c"); err != nil {
		t.Fatalf("Acquire after cancel: %v", err)
	}
	a.Release()
}

// TestAdmissionCancelledWaitersLeaveTheQueue: a request cancelled while
// queued leaves its tenant's queue at once, not when it reaches the head.
// One held slot, one live waiter at the head and 10 000 cancelled ones
// behind it grew the queue to 10 001 entries while serve.queued read 1:
// heap growth driven by client disconnects while slots are held.
func TestAdmissionCancelledWaitersLeaveTheQueue(t *testing.T) {
	const depth = 2
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: depth})
	if err := a.Acquire(context.Background(), "t"); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	live := make(chan error, 1)
	go func() { live <- a.Acquire(context.Background(), "t") }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		n := a.queued
		a.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10_000; i++ {
		if err := a.Acquire(gone, "t"); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Acquire %d = %v, want context.Canceled", i, err)
		}
	}
	a.mu.Lock()
	qlen, queued := len(a.tenants["t"].q), a.queued
	a.mu.Unlock()
	if qlen > depth || queued != 1 {
		t.Errorf("after 10 000 cancelled waiters: tenant queue holds %d, serve.queued %d; want at most %d and 1", qlen, queued, depth)
	}
	a.Release()
	if err := <-live; err != nil {
		t.Fatalf("live waiter: %v", err)
	}
	a.Release()
}

func TestAdmissionQueueDrainsInFlightCap(t *testing.T) {
	// 2 slots, many waiters: at no point may more than 2 run at once.
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 64})
	ctx := context.Background()
	var mu sync.Mutex
	running, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Acquire(ctx, fmt.Sprintf("t%d", i%4)); err != nil {
				// Shedding is legal under this much concurrency; it just
				// must not deadlock.
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("Acquire: %v", err)
				}
				return
			}
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			a.Release()
		}(i)
	}
	wg.Wait()
	if peak > 2 {
		t.Errorf("peak concurrency %d exceeds MaxInFlight 2", peak)
	}
	if running != 0 {
		t.Errorf("running = %d after drain, want 0", running)
	}
}

// TestAdmissionTenantMapIsBounded: tenant names come off the socket, so a
// client cycling through them must not grow the controller. Ten thousand
// distinct names, admitted or shed, leave no more entries than could hold
// a request — and the sweep that bounds the map never drops a tenant that
// has one queued.
func TestAdmissionTenantMapIsBounded(t *testing.T) {
	const max, depth = 2, 1
	a := NewAdmission(AdmissionConfig{MaxInFlight: max, QueueDepth: depth})
	ctx := context.Background()
	entries := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.tenants)
	}

	for i := 0; i < 10000; i++ {
		if err := a.Acquire(ctx, fmt.Sprintf("admitted-%d", i)); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		a.Release()
	}
	if n := entries(); n > max+depth+1 {
		t.Fatalf("%d tenant entries after 10000 one-shot tenants, want <= %d", n, max+depth+1)
	}

	// Fill the slots, park one waiter, then cycle names that are all shed.
	for i := 0; i < max; i++ {
		if err := a.Acquire(ctx, "holder"); err != nil {
			t.Fatal(err)
		}
	}
	granted := make(chan error, 1)
	go func() { granted <- a.Acquire(ctx, "waiting") }()
	for a.queuedG.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10000; i++ {
		if err := a.Acquire(ctx, fmt.Sprintf("shed-%d", i)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("Acquire while full = %v, want ErrOverloaded", err)
		}
	}
	if n := entries(); n > max+depth+1 {
		t.Fatalf("%d tenant entries after 10000 shed tenants, want <= %d", n, max+depth+1)
	}
	a.Release()
	if err := <-granted; err != nil {
		t.Fatalf("queued tenant lost its place to the sweep: %v", err)
	}
	a.Release()
	a.Release()
}
