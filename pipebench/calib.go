package main

import (
	"compress/flate"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
)

// On a shared host the machine's speed drifts by 1.5–3× within minutes:
// the hypervisor steals up to 40% of the CPU time, and neighbours contend
// for caches and memory bandwidth. Closed-loop throughput moved with it
// by up to 3× between runs of the same code, more than any run can
// average out. So the benchmark reports the system's cost instead: the
// CPU time the whole process spends per transaction, and on set-up,
// which counts no steal, rescaled by a fixed calibration computation's
// CPU time measured just before and after, which moves with the caches'
// contention as the system's does. Over ten runs of paper-daemon on a
// 2-vCPU VM whose closed-loop throughput ranged over 49–109k tx/s, the
// interquartile range of the rescaled cost stayed within 12% of its
// median.

// calibRefNs is about the calibration kernel's CPU time on a calm host
// (a 2-vCPU Intel Xeon VM with no CPU steal showing).
const calibRefNs = 16e6

// atRefSpeed rescales a CPU time measured while the calibration kernel
// took calibNs of CPU time to the reference host speed.
func atRefSpeed(cpuNs, calibNs float64) float64 {
	return cpuNs * calibRefNs / calibNs
}

// processCPU is the CPU time the process has used so far, user and
// system, in ns. Time the hypervisor steals is not counted.
func processCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPU is the CPU time the calling OS thread has used so far, in ns.
func threadCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(rusageThread, &ru)
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibKernel is a fixed computation that shares no code with the system
// under test: string-keyed map inserts and lookups, a sort, a dependent
// walk through a working set larger than the last-level cache, and
// DEFLATE compression of log-like text.
type calibKernel struct {
	keys  []string
	ints  []int
	chase []int32
	text  []byte
	sink  int
}

const (
	calibChaseSteps = 100_000
	calibReps       = 3 // kernel runs before and after each measured stretch
)

func newCalibKernel() *calibKernel {
	k := &calibKernel{}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 10_000; i++ {
		k.keys = append(k.keys, fmt.Sprintf("10.%d.%d.%d/u%05d", next()%256, next()%256, next()%256, i))
	}
	k.ints = make([]int, 1<<14)
	for i := range k.ints {
		k.ints[i] = int(next() >> 1)
	}
	// One random cycle through 4M slots (16 MB).
	perm := make([]int32, 1<<22)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	k.chase = make([]int32, len(perm))
	for i := range perm {
		k.chase[perm[i]] = perm[(i+1)%len(perm)]
	}
	for len(k.text) < 128<<10 {
		k.text = fmt.Appendf(k.text, "%d 10.0.%d.%d GET http://svc%d.example/p%d 200 %d\n",
			1_500_000_000_000+next()%1e9, next()%8, next()%256, next()%300, next()%50, next()%1e5)
	}
	return k
}

// run performs the computation once, on one OS thread, and returns the
// CPU time it took, in ns.
func (k *calibKernel) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	m := make(map[string]int, len(k.keys))
	for i, s := range k.keys {
		m[s] = i
	}
	sum := 0
	for _, s := range k.keys {
		sum += m[s]
	}
	buf := append([]int(nil), k.ints...)
	sort.Ints(buf)
	p := int32(0)
	for i := 0; i < calibChaseSteps; i++ {
		p = k.chase[p]
	}
	zw, _ := flate.NewWriter(io.Discard, flate.BestSpeed) // a valid level never errors
	zw.Write(k.text)
	zw.Close()
	k.sink += sum + buf[0] + int(p)
	return threadCPU() - c0
}

// measure runs the computation calibReps times and appends the times to
// into.
func (k *calibKernel) measure(into []float64) []float64 {
	for i := 0; i < calibReps; i++ {
		into = append(into, k.run())
	}
	return into
}
