package blink

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleGoroutines polls until the live goroutine count drops back to at
// most base (plus a small allowance for runtime-internal goroutines), so
// tests can assert the async lane workers are ephemeral — a leak fails
// the deadline, not flakily.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge any parked finalizer goroutines
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines never settled: %d > base %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncHandleLifecycle covers the public async surface end to end:
// every *Async variant resolves to its blocking twin's result.
func TestAsyncHandleLifecycle(t *testing.T) {
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 4 << 20
	syncOps := []func() (Result, error){
		func() (Result, error) { return comm.Broadcast(1, bytes) },
		func() (Result, error) { return comm.AllReduce(bytes) },
		func() (Result, error) { return comm.Reduce(2, bytes) },
		func() (Result, error) { return comm.Gather(3, bytes) },
		func() (Result, error) { return comm.Scatter(4, bytes) },
		func() (Result, error) { return comm.AllGather(bytes) },
		func() (Result, error) { return comm.ReduceScatter(bytes) },
	}
	async := []func() *Handle{
		func() *Handle { return comm.BroadcastAsync(1, bytes) },
		func() *Handle { return comm.AllReduceAsync(bytes) },
		func() *Handle { return comm.ReduceAsync(2, bytes) },
		func() *Handle { return comm.GatherAsync(3, bytes) },
		func() *Handle { return comm.ScatterAsync(4, bytes) },
		func() *Handle { return comm.AllGatherAsync(bytes) },
		func() *Handle { return comm.ReduceScatterAsync(bytes) },
	}
	for i := range syncOps {
		want, err := syncOps[i]()
		if err != nil {
			t.Fatalf("op %d sync: %v", i, err)
		}
		got, err := async[i]().Wait()
		if err != nil {
			t.Fatalf("op %d async: %v", i, err)
		}
		if got.Seconds != want.Seconds || got.Strategy != want.Strategy {
			t.Fatalf("op %d async %+v != sync %+v", i, got, want)
		}
	}
}

// TestAsyncReconfigureRace floods the lane scheduler with async
// collectives while ReconfigureExclude evicts a GPU mid-flight: every handle must resolve
// (result or clean error), in-flight submissions complete on their pinned
// pre-fault snapshot, post-fault submissions see the shrunken
// communicator, and no goroutines leak once the last handle resolves.
func TestAsyncReconfigureRace(t *testing.T) {
	base := runtime.NumGoroutine()

	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-fault submissions. Root 7 is only
	// valid on the pre-fault topology: its handles succeeding proves the
	// snapshot semantics, not luck.
	var handles []*Handle
	for i := 0; i < 12; i++ {
		switch i % 3 {
		case 0:
			handles = append(handles, comm.AllReduceAsync(8<<20))
		case 1:
			handles = append(handles, comm.BroadcastAsync(7, 4<<20))
		case 2:
			handles = append(handles, comm.ReduceAsync(7, 2<<20))
		}
	}

	// Evict GPU 7 while those are in flight, racing a second wave of
	// submissions from other goroutines.
	var wg sync.WaitGroup
	raceErr := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := comm.ReconfigureExclude(7); err != nil {
			raceErr <- fmt.Errorf("reconfigure: %w", err)
		}
	}()
	var raced []*Handle
	var racedMu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				h := comm.AllReduceAsync(1 << 20)
				racedMu.Lock()
				raced = append(raced, h)
				racedMu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Every pre-fault handle resolves successfully: submission pinned the
	// pre-fault snapshot, so root 7 stayed valid for them throughout.
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("pre-fault handle %d: %v", i, err)
		}
	}
	// Raced handles (root 0) are valid on both topologies: all resolve.
	for i, h := range raced {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("raced handle %d: %v", i, err)
		}
	}
	select {
	case err := <-raceErr:
		t.Fatal(err)
	default:
	}

	// Post-fault submissions see the shrunken communicator: 7 ranks, so
	// root 7 now fails cleanly through the handle.
	if comm.Size() != 7 {
		t.Fatalf("post-fault size %d, want 7", comm.Size())
	}
	if _, err := comm.BroadcastAsync(7, 1<<20).Wait(); err == nil {
		t.Fatal("post-fault broadcast from evicted root resolved without error")
	}
	if _, err := comm.AllReduceAsync(1 << 20).Wait(); err != nil {
		t.Fatalf("post-fault allreduce: %v", err)
	}

	settleGoroutines(t, base)
}

// TestAsyncExchangeReconfigureRace is the point-to-point counterpart of
// TestAsyncReconfigureRace: the lanes flooded with AllToAllAsync and
// SendRecvAsync submissions while ReconfigureExclude evicts GPU 7
// mid-flight. Pre-fault chains through rank 7 ride their pinned snapshot
// and resolve successfully; post-fault submissions naming rank 7 fail
// cleanly through the handle; the exchange ops valid on both topologies all
// resolve; no goroutines leak.
func TestAsyncExchangeReconfigureRace(t *testing.T) {
	base := runtime.NumGoroutine()

	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-fault submissions. The chains end at
	// rank 7, valid only pre-fault: their success proves snapshot pinning.
	var handles []*Handle
	for i := 0; i < 12; i++ {
		switch i % 3 {
		case 0:
			handles = append(handles, comm.AllToAllAsync(8<<20))
		case 1:
			handles = append(handles, comm.SendRecvAsync([]int{0, 3, 7}, 2<<20))
		case 2:
			handles = append(handles, comm.NeighborExchangeAsync(
				[][]int{{7}, {0}, {1}, {2}, {3}, {4}, {5}, {6}}, 1<<20))
		}
	}

	var wg sync.WaitGroup
	raceErr := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := comm.ReconfigureExclude(7); err != nil {
			raceErr <- fmt.Errorf("reconfigure: %w", err)
		}
	}()
	var raced []*Handle
	var racedMu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				// AllToAll and a low-rank chain are valid on both the 8- and
				// 7-rank topologies, whichever snapshot a submission lands on.
				h := comm.AllToAllAsync(1 << 20)
				h2 := comm.SendRecvAsync([]int{0, 1, 2}, 1<<20)
				racedMu.Lock()
				raced = append(raced, h, h2)
				racedMu.Unlock()
			}
		}()
	}
	wg.Wait()

	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("pre-fault handle %d: %v", i, err)
		}
	}
	for i, h := range raced {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("raced handle %d: %v", i, err)
		}
	}
	select {
	case err := <-raceErr:
		t.Fatal(err)
	default:
	}

	// Post-fault submissions see the 7-rank communicator: chains through
	// rank 7 now fail cleanly through the handle, valid shapes still run.
	if comm.Size() != 7 {
		t.Fatalf("post-fault size %d, want 7", comm.Size())
	}
	if _, err := comm.SendRecvAsync([]int{0, 7}, 1<<20).Wait(); err == nil {
		t.Fatal("post-fault chain through evicted rank resolved without error")
	}
	if _, err := comm.AllToAllAsync(1 << 20).Wait(); err != nil {
		t.Fatalf("post-fault alltoall: %v", err)
	}

	settleGoroutines(t, base)
}

// TestAsyncStreamWorkersEphemeral checks an idle communicator holds no
// async worker goroutines: lane workers spawn with work and exit when the
// lanes drain.
func TestAsyncStreamWorkersEphemeral(t *testing.T) {
	base := runtime.NumGoroutine()
	comm, err := NewComm(DGX1V(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var hs []*Handle
		for i := 0; i < 8; i++ {
			hs = append(hs, comm.AllReduceAsync(1<<20))
		}
		for _, h := range hs {
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	settleGoroutines(t, base)
}
