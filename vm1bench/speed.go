package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// A shared host changes the clock speed of the core a job runs on: on a
// quiet host a core runs in its fast turbo state, and when neighbouring
// machines load the socket every core slows down, by about a fifth, for
// seconds at a time. Both CPU time and wall time then measure the host as
// much as the job. The speed meter samples the core's speed with a fixed
// calibration kernel while the job runs and keeps a reference clock: the
// job's CPU seconds, each scaled by the speed measured around it, in
// seconds of a core on which the kernel takes refStepNs per step.
//
// Timed jobs run with GOMAXPROCS 1, so the meter's goroutine samples the
// thread the job runs on, between two of the job's time slices.

const (
	refStepNs  = 1.5                   // reference core: ns per calibration step
	calSteps   = 60_000                // steps per calibration sample, ~0.1 ms
	calSamples = 3                     // samples per tick; the fastest one counts
	meterTick  = 25 * time.Millisecond // time between ticks
)

// calSink keeps the calibration kernel's result live.
var calSink uint64

// calibrate runs the calibration kernel, a dependent xorshift chain that
// neither the cache nor the branch predictor can shorten, and returns its
// wall time per step in ns.
func calibrate() float64 {
	x := uint64(88172645463325252) + calSink&1
	start := time.Now()
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	calSink += x
	return float64(d.Nanoseconds()) / calSteps
}

// speedMeter is the reference clock. The zero value is not usable; call
// startSpeedMeter.
type speedMeter struct {
	mu      sync.Mutex
	ref     float64 // reference seconds up to lastCPU
	lastCPU float64 // process CPU seconds at the last tick, after its kernel
	factor  float64 // refStepNs over the last tick's ns per step
	sum     float64 // sum and count of the factors, for the run's mean
	n       int
	stop    chan struct{}
	done    chan struct{}
}

// startSpeedMeter measures the speed once and starts ticking.
func startSpeedMeter() *speedMeter {
	m := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.factor = m.sample()
	m.lastCPU = cpuSeconds()
	go m.loop()
	return m
}

// sample is the speed factor of the core now: refStepNs over the fastest
// of calSamples kernel runs (a run the scheduler interrupted reads slow).
func (m *speedMeter) sample() float64 {
	best := 0.0
	for i := 0; i < calSamples; i++ {
		if ns := calibrate(); best == 0 || ns < best {
			best = ns
		}
	}
	return refStepNs / best
}

func (m *speedMeter) loop() {
	defer close(m.done)
	t := time.NewTicker(meterTick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.tick()
		}
	}
}

// tick books the CPU time since the last tick at the mean of the speeds
// measured at its two ends, then measures the speed again. The kernel's
// own CPU time is booked nowhere.
func (m *speedMeter) tick() {
	c := cpuSeconds()
	f := m.sample()
	after := cpuSeconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ref += (c - m.lastCPU) * (m.factor + f) / 2
	m.lastCPU, m.factor = after, f
	m.sum += f
	m.n++
}

// now reads the reference clock in seconds.
func (m *speedMeter) now() float64 {
	c := cpuSeconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ref + (c-m.lastCPU)*m.factor
}

// meanFactor is the mean speed factor over the meter's ticks so far.
func (m *speedMeter) meanFactor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return m.factor
	}
	return m.sum / float64(m.n)
}

// close stops the meter and waits for its goroutine to end.
func (m *speedMeter) close() {
	close(m.stop)
	<-m.done
}

// cpuSeconds is the CPU time the process has used, user and system, over
// all its threads. Time the host gives to other processes or guests is
// not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
