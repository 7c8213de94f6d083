package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// poller calls a function now, every period, and once more when
// halted. The function runs on the poller's goroutine only.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startPoller(every time.Duration, fn func()) *poller {
	p := &poller{stop: make(chan struct{})}
	fn()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				fn()
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return p
}

// halt stops the poller and waits for its last call to return.
func (p *poller) halt() {
	close(p.stop)
	p.wg.Wait()
}

// heapSampler records the Go heap high-water mark (bytes in live and
// not yet swept heap objects) and the process CPU time of a measured
// phase.
type heapSampler struct {
	p    *poller
	peak uint64
	cpu0 time.Duration
}

const heapSampleEvery = 2 * time.Millisecond

// startHeapSampler first collects garbage, so the measured phase starts
// from the live heap, not from what set-up left behind.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{cpu0: processCPU()}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.p = startPoller(heapSampleEvery, func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	})
	return h
}

// stop ends the phase and returns the heap high-water mark in MiB and
// the CPU time the process spent since the start.
func (h *heapSampler) stop() (peakMB float64, cpu time.Duration) {
	h.p.halt()
	return float64(h.peak) / (1 << 20), processCPU() - h.cpu0
}

// processCPU is the user plus system CPU time of this process: server,
// cluster and client alike. Time the hypervisor steals from the VM is
// not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goCounters snapshots the runtime counters the per-layer "go" metrics
// difference: bytes allocated, GC CPU time and total CPU time.
type goCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goCounters{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}
