package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The machine the benchmark runs on is shared: how fast it executes the
// same instructions drifts by up to ~1.9× within minutes, with the load
// other tenants put on the cores, caches and memory it shares. That
// drift moves CPU times as well as wall times, so left alone it swamps the
// change a later commit makes. The benchmark therefore times a fixed
// reference kernel, written here and calling nothing of the repository,
// at several moments of every run, and reports each gated time scaled to
// a fixed reference speed:
//
//	reported = measured × refKernelNs / kernelNs
//
// where kernelNs is the mean of the two samples taken just before and
// just after the measured interval, so the scale follows a drift that
// sets in during a run. refKernelNs is a constant, so the scale is the
// same for every commit the benchmark compares; only the program's own
// work moves the result. The raw measurements are printed beside the
// scaled ones.
//
// The programs under test hold tens of MiB of heap, far beyond a core's
// 2 MiB L2, so a neighbour that fills the shared L3 or the memory bus
// slows them more than it slows work that stays in L2. The kernel has
// both kinds of work, in about equal parts: compute over L2-resident
// data, and dependent loads and a streaming read over data that does not
// fit in L2.

// refKernelNs is about the kernel's fastest CPU time per unit on the
// 2-core VM the benchmark was built on (busy, it read up to 6.9 ms). It
// only sets the scale.
const refKernelNs = 4.0e6

// kernelUnits is how many units one calibration sample times on each
// CPU (~0.12 s at the reference speed), after warmUnits untimed ones.
const (
	kernelUnits = 30
	warmUnits   = 3
)

// Sizes of the kernel's out-of-L2 data, and the loads one unit makes.
const (
	chaseEntries = 4 << 20 // 16 MiB of uint32 links in one random cycle
	streamWords  = 1 << 20 // 8 MiB read front to back
	chaseSteps   = 12 << 10
)

// kernel is the reference work: a sort, hash-map inserts, a SHA-256 and
// floating-point maths over fixed seeded data in L2, then a walk of a
// random cycle and a streaming sum over data beyond it, with no
// allocation once built, so neither the collector nor the program under
// test adds to it.
type kernel struct {
	src, buf []float64
	m        map[uint64]uint64
	blob     []byte
	big      *bigData
	pos      uint32
}

// bigData is the kernels' shared, read-only out-of-L2 data.
type bigData struct {
	next   []uint32
	stream []uint64
}

func newBigData() *bigData {
	b := &bigData{next: make([]uint32, chaseEntries), stream: make([]uint64, streamWords)}
	for i := range b.next {
		b.next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every entry, so a walk
	// never settles into a short, cached loop.
	x := uint64(2)
	for i := len(b.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x >> 32) * uint64(i) >> 32 // uniform enough in [0, i)
		b.next[i], b.next[j] = b.next[j], b.next[i]
	}
	for i := range b.stream {
		b.stream[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return b
}

func newKernel(big *bigData, start uint32) *kernel {
	rng := rand.New(rand.NewSource(1))
	k := &kernel{src: make([]float64, 1<<14), buf: make([]float64, 1<<14),
		m: make(map[uint64]uint64, 1<<12), blob: make([]byte, 1<<15), big: big, pos: start}
	for i := range k.src {
		k.src[i] = rng.ExpFloat64() * 100
	}
	rng.Read(k.blob)
	return k
}

// unit runs one unit of reference work and returns a value that depends
// on all of it, so none of it can be optimised away.
func (k *kernel) unit() uint64 {
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	clear(k.m)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<12; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.m[x] = uint64(i)
	}
	sum := sha256.Sum256(k.blob)
	acc := 0.0
	for _, v := range k.src {
		acc += math.Log1p(v) * math.Sqrt(v)
	}
	p := k.pos
	for i := 0; i < chaseSteps; i++ {
		p = k.big.next[p]
	}
	k.pos = p
	var s uint64
	for _, v := range k.big.stream {
		s += v
	}
	return x ^ binary.LittleEndian.Uint64(sum[:]) ^ math.Float64bits(acc+k.buf[len(k.buf)/2]) ^
		uint64(len(k.m)) ^ uint64(p) ^ s
}

// threadCPU is the calling OS thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1 /* RUSAGE_THREAD */, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrator collects kernel samples over a run.
type calibrator struct {
	kernels [2]*kernel
	cpuNs   []float64 // CPU ns per unit, one per sample
	sink    uint64
}

func newCalibrator() *calibrator {
	big := newBigData()
	return &calibrator{kernels: [2]*kernel{newKernel(big, 0), newKernel(big, chaseEntries/2)}}
}

// sample times kernelUnits units on each of two threads at once, so both
// CPUs are measured, each thread locked to its OS thread so its own CPU
// time can be read, and returns the sample's index. The system under
// test is idle meanwhile.
func (c *calibrator) sample() int {
	var wg sync.WaitGroup
	var cpu [2]time.Duration
	var sink [2]uint64
	for t := range c.kernels {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			k := c.kernels[t]
			// Fault the data in, warm the caches and let an idle CPU
			// come up to speed before timing.
			for i := 0; i < warmUnits; i++ {
				sink[t] ^= k.unit()
			}
			c0 := threadCPU()
			for i := 0; i < kernelUnits; i++ {
				sink[t] ^= k.unit()
			}
			cpu[t] = threadCPU() - c0
		}(t)
	}
	wg.Wait()
	c.sink ^= sink[0] ^ sink[1]
	c.cpuNs = append(c.cpuNs, float64(cpu[0]+cpu[1])/(2*kernelUnits))
	return len(c.cpuNs) - 1
}

// scale is the factor that turns a time measured between samples i and
// j into one at the reference speed.
func (c *calibrator) scale(i, j int) float64 {
	return refKernelNs / ((c.cpuNs[i] + c.cpuNs[j]) / 2)
}

// print shows the run's typical kernel time and the factor it implies,
// so the raw and scaled figures can be compared.
func (c *calibrator) print(e *env) {
	ns := Median(c.cpuNs)
	e.named("kernel_cpu_ns_per_unit", ns, "ns")
	e.named("speed_scale", refKernelNs/ns, "x")
}
