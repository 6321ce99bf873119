package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The end-to-end times are calibrated against a reference kernel. On a
// shared machine the speed of allocation- and pointer-heavy work drifts by
// up to 1.6x over tens of minutes while arithmetic barely moves, so raw wall
// times compare the machine, not the code. The kernel below has the
// simulator's shape — a binary heap of events over many flow records, one
// small allocation per event — and none of its code, so a change to pulsedos
// moves the calibrated metrics while a change in the machine's state largely
// cancels out. Each sample runs in a child process, so the kernel's memory
// never shows in the workload's peak RSS.

// referenceMs is the full-size kernel's median time on the machine the
// baseline was recorded on, in a quiet period. Calibrated times are
// milliseconds on a machine where the kernel takes this long.
const referenceMs = 450.0

// calibrateEvery is how often a run takes a reference sample between
// operations.
const calibrateEvery = 4 * time.Second

// kernelEnv, set to an event count in a process's environment, makes the
// benchmark binary (or its test binary) run the reference kernel once, print
// its time in ms and exit.
const kernelEnv = "PULSEDOS_REFERENCE_KERNEL_EVENTS"

// runKernelIfAsked runs the reference kernel when this process was started
// as a calibration child, and reports whether it did.
func runKernelIfAsked() bool {
	v := os.Getenv(kernelEnv)
	if v == "" {
		return false
	}
	events, err := strconv.Atoi(v)
	if err != nil || events <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s=%q: want a positive event count\n", kernelEnv, v)
		os.Exit(2)
	}
	fmt.Println(ms(referenceKernel(events)))
	return true
}

const refFlows = 50000

type refFlow struct {
	seq, cwnd uint64
	srtt      float64
	ring      []*refPacket
	_         [2]uint64
}

type refPacket struct {
	flow       int32
	size       int32
	sent, when uint64
}

type refEvent struct {
	when uint64
	flow int32
}

// refSink keeps the kernel's result live so the compiler cannot drop it.
var refSink uint64

// referenceKernel runs the fixed synthetic event loop for the given number
// of events and returns its wall time.
func referenceKernel(events int) time.Duration {
	start := time.Now()
	flows := make([]refFlow, refFlows)
	h := make([]refEvent, 0, refFlows)
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].when <= h[i].when {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r].when < h[m].when {
				m = r
			}
			if h[i].when <= h[m].when {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < refFlows; i++ {
		push(refEvent{when: rnd() % 1000000, flow: int32(i)})
	}
	for k := 0; k < events; k++ {
		e := pop()
		f := &flows[e.flow]
		if len(f.ring) >= 8 {
			f.ring = f.ring[1:]
		}
		f.ring = append(f.ring, &refPacket{flow: e.flow, size: 1000, sent: e.when})
		f.seq++
		f.cwnd = (f.cwnd + 1) % 64
		f.srtt = 0.875*f.srtt + 0.125*float64(rnd()%1000)
		push(refEvent{when: e.when + 1 + rnd()%5000, flow: int32(rnd() % refFlows)})
	}
	refSink += flows[0].seq
	return time.Since(start)
}

// calibrator collects reference samples over one run.
type calibrator struct {
	events int

	mu      sync.Mutex
	samples []float64 // ms
	last    time.Time
	err     error
}

// sample times the reference kernel once in a child process.
func (c *calibrator) sample() {
	d, err := c.child()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = time.Now()
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("reference kernel: %w", err)
		}
		return
	}
	c.samples = append(c.samples, d)
}

func (c *calibrator) child() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), kernelEnv+"="+strconv.Itoa(c.events))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// due reports whether calibrateEvery has passed since the last sample.
func (c *calibrator) due() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.last) >= calibrateEvery
}

// factor is referenceMs over the run's median sample: multiply a time by it
// to calibrate it.
func (c *calibrator) factor() (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	return referenceMs / median(c.samples), nil
}
