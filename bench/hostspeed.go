package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed drifts by up
// to 1.7x over minutes while the program's work stays the same. Over ten
// 10-second runs with different seeds on the 2-CPU host the benchmark was
// built on, the plain medians of the end-to-end times spread (quartile
// distance over median) up to 0.44; such a metric cannot hold any bound
// a benchmark may set. So the benchmark reads each time against a clock
// of its own:
//
//   - each timed step is cut into slices (a few kernel windows, a block
//     of warm passes, one serving round);
//   - a fixed calibration task, which belongs to the benchmark and not
//     to the program, is timed just before each slice and each set-up;
//   - the slice's times and CPU costs are divided by that sample's
//     slowness, its time over refCalibration, and its rates multiplied;
//   - the run reports the median over slices (the median and 90th
//     percentile over operations, for latencies).
//
// A change to the program moves the reported value as it moves the raw
// one, whichever slices it slows. Over ten such runs, the rates, CPU
// costs and median latencies spread 0.02 to 0.10 measured this way,
// against 0.11 to 0.26 raw. The per-layer metric host.calibration_ms is
// the median raw sample, from which the raw times can be recovered.
//
// The task runs on as many CPUs as the measured code keeps busy: each
// sorts 32Ki keys and then makes 100k random read-modify-writes in its
// own 16 MiB table; a pure pointer chase or a pure ALU loop tracked the
// drift far worse. Its tables live outside the Go heap, so they never
// change when the program's garbage collector runs, and the peak memory
// the benchmark reports has their size taken off.

// refCalibration is the calibration task's duration on the reference
// host (Intel Xeon at 2.1 GHz, 2 CPUs, unloaded), so normalized times
// read as that host's time.
const refCalibration = 3 * time.Millisecond

const (
	calibrationKeys    = 1 << 15
	calibrationTable   = 4 << 20 // uint32 words: 16 MiB
	calibrationTouches = 100_000
)

// hostClock samples the calibration task and keeps every sample, in
// milliseconds. Workloads call it from one goroutine.
type hostClock struct {
	task    *calibration
	samples []float64
}

// slowness runs the task once on threads CPUs, as many as the measured
// code keeps busy (a slowdown of the other CPU does not touch a
// single-threaded kernel, and must not scale it), and returns its time
// over refCalibration. A time divided by it reads as reference-host time.
func (h *hostClock) slowness(threads int) float64 {
	d := h.task.sample(threads)
	h.samples = append(h.samples, float64(d)/1e6)
	return float64(d) / float64(refCalibration)
}

// calibration is the task and its memory.
type calibration struct {
	mem    []byte // every buffer below, mapped outside the Go heap
	src    []uint64
	keys   [][]uint64
	tables [][]uint32
}

// calibrationBytes is the size of the task's buffers for procs CPUs,
// all of it resident while the task exists.
func calibrationBytes(procs int) int {
	return calibrationKeys*8 + procs*(calibrationKeys*8+calibrationTable*4)
}

// newCalibration maps and fills the task's buffers, one set per CPU.
func newCalibration() (*calibration, error) {
	procs := runtime.GOMAXPROCS(0)
	per := calibrationKeys*8 + calibrationTable*4
	mem, err := syscall.Mmap(-1, 0, calibrationBytes(procs),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: map calibration buffers: %w", err)
	}
	c := &calibration{mem: mem, src: words[uint64](mem, 0, calibrationKeys)}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range c.src {
		c.src[i] = rng.Uint64()
	}
	for i := 0; i < procs; i++ {
		off := calibrationKeys*8 + i*per
		c.keys = append(c.keys, words[uint64](mem, off, calibrationKeys))
		t := words[uint32](mem, off+calibrationKeys*8, calibrationTable)
		for j := range t {
			t[j] = uint32(j) // touches every page: the mapping is resident from here on
		}
		c.tables = append(c.tables, t)
	}
	return c, nil
}

// words views n elements of mem from byte offset off.
func words[T uint32 | uint64](mem []byte, off, n int) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[off])), n)
}

// close unmaps the buffers; Munmap fails only on an address this
// mapping cannot have.
func (c *calibration) close() { _ = syscall.Munmap(c.mem) }

// sample runs the task once on threads CPUs and returns its wall time.
func (c *calibration) sample(threads int) time.Duration {
	threads = min(max(threads, 1), len(c.keys))
	for _, k := range c.keys[:threads] {
		copy(k, c.src)
	}
	work := func(i int) {
		slices.Sort(c.keys[i])
		t, x := c.tables[i], uint32(12345)
		for n := 0; n < calibrationTouches; n++ {
			x = x*1664525 + 1013904223
			t[x>>10]++
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	work(0)
	wg.Wait()
	return time.Since(start)
}
