package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The guests the benchmark runs on change speed with their host's load:
// the same code runs up to half as fast again for seconds to minutes at
// a time. hostProbe measures that speed beside the load, so a run can
// report its times at a fixed reference speed: it times refKernel, a
// fixed CTPH-like byte loop that is part of the harness and so the same
// on both sides of any comparison, in the CPU time of its own thread,
// which waiting for a core does not inflate.

// refEvery is how often the probe runs the kernel. Each run costs under
// 1 ms of one core, under 1% of the machine, and short, frequent runs
// follow the host's speed more closely than long, rare ones.
const refEvery = 50 * time.Millisecond

// refNominal is the kernel's CPU time on a host at the reference speed,
// which is about the median the kernel measured under load on the
// 2-vCPU guests the benchmark was sized on. Times scale by refNominal
// over the measured kernel time and rates by its inverse, so a host at
// the reference speed reports them unchanged.
const refNominal = 800 * time.Microsecond

// refInput is the kernel's input: 64 KiB of fixed pseudo-random bytes.
var refInput = func() []byte {
	b := make([]byte, 64<<10)
	r := rand.New(rand.NewPCG(0x5eed, 0xc7f))
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}()

// refKernel does the kind of work the cold path does most: a rolling
// hash over a 7-byte window, two multiplicative hashes reset at
// content-defined boundaries, and a scan for printable runs. It returns
// a digest so the compiler keeps the loop.
func refKernel(p []byte) uint32 {
	var win [7]byte
	var h1, h2, h3 uint32
	f1, f2 := uint32(0x28021967), uint32(0x28021967)
	var sig uint32
	run, runs := 0, 0
	for i, c := range p {
		h2 += 7*uint32(c) - h1
		h1 += uint32(c) - uint32(win[i%7])
		win[i%7] = c
		h3 = h3<<5 ^ uint32(c)
		h := h1 + h2 + h3
		f1 = f1*0x01000193 ^ uint32(c)
		f2 = f2*0x01000193 ^ uint32(c)
		if h%192 == 191 {
			sig = sig*31 + f1
			f1 = 0x28021967
		}
		if h%384 == 383 {
			sig = sig*31 + f2
			f2 = 0x28021967
		}
		if c >= 0x20 && c < 0x7f {
			run++
		} else {
			if run >= 4 {
				runs++
			}
			run = 0
		}
	}
	return sig + uint32(runs)
}

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // supported by every Linux Go runs on
	}
	return time.Duration(ts.Nano())
}

// refSample is one timed kernel run: when it started, from the probe's
// start, and the CPU time it took.
type refSample struct {
	at, took time.Duration
}

// hostProbe runs refKernel every refEvery on a thread of its own until
// stopped.
type hostProbe struct {
	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	samples  []refSample // written by the probe goroutine until done
	sink     uint32
}

func startHostProbe() *hostProbe {
	p := &hostProbe{start: time.Now(), stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			at := time.Since(p.start)
			t0 := threadCPU()
			p.sink += refKernel(refInput)
			p.samples = append(p.samples, refSample{at: at, took: threadCPU() - t0})
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns its samples. It may be called more
// than once.
func (p *hostProbe) finish() []refSample {
	p.stopOnce.Do(func() { close(p.stop) })
	p.done.Wait()
	return p.samples
}

// since returns how long the probe has run.
func (p *hostProbe) since() time.Duration { return time.Since(p.start) }

// meanTook returns the mean kernel time of the samples taken in
// [from, to) after the probe's start, and how many there were.
func meanTook(samples []refSample, from, to time.Duration) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range samples {
		if s.at >= from && s.at < to {
			sum += s.took
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}
