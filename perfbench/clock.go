package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on virtual machines whose host takes CPU time away
// in bursts (steal), which would swamp a change in the code under test.
// Its clocks leave stolen time out: serial work is timed on the
// process's CPU clock, concurrent work by wall time less the steal the
// kernel reports over the interval, shared over the CPUs.

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID on Linux
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
)

// cpuClock reads a CPU-time clock at the scheduler's nanosecond
// resolution (getrusage counts in ticks).
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTimer times serial work by the CPU time of every thread of the
// process, so work the timed call hands to other goroutines (a
// decoder's pooled segments, the garbage collector's marking) counts
// too. Nothing else runs while a serial op is timed.
type cpuTimer struct{ start time.Duration }

func startCPU() cpuTimer { return cpuTimer{cpuClock(clockProcessCPUTime)} }

func (t cpuTimer) stop() time.Duration { return cpuClock(clockProcessCPUTime) - t.start }

// stolen is the steal time /proc/stat reports, summed over CPUs (0 where
// the file or the field is missing).
func stolen() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ = 100
}

// wallTimer times concurrent work by wall time less stolen time.
type wallTimer struct {
	start time.Time
	steal time.Duration
}

func startWall() wallTimer { return wallTimer{time.Now(), stolen()} }

// stop returns the interval's wall time less stolen time, and that as a
// share of the whole wall time. Steal is counted in 10 ms ticks, too
// coarse for one op inside a concurrent pass; such an op's wall time is
// scaled by its pass's share instead.
func (t wallTimer) stop() (time.Duration, float64) {
	raw := time.Since(t.start)
	d := max(raw-(stolen()-t.steal)/time.Duration(runtime.GOMAXPROCS(0)), 0)
	return d, float64(d) / float64(raw)
}

// Host contention the steal figure does not show (a busy sibling
// hyperthread, a neighbour thrashing the shared cache) slows the guest
// by up to half for seconds to minutes at a time. The benchmark tracks
// it with a fixed kernel that shares no code with the system under
// test: a bytecode dispatch loop, the same kind of work as the
// interpreters and coders it measures. The kernel runs after each timed
// unit (and once before the first), and the unit's time is scaled to
// the kernel's nominal speed: time × calNominal / the median of the
// last calWindow kernel times, which follows the host's speed over a
// fraction of a second without passing on one sample's jitter.
//
// The kernel has to slow as the system does. A 16-op loop the branch
// predictor learns, with its data in registers, slowed only part as
// much: over six minutes of the host's swings, the log of a load-and-run
// op's time moved 1.3-2 times as far as the log of the loop's. A long
// unpredictable program with data in a table the size of a cache level
// moves about as far as cold-start's and serve's ops do (1.0-1.2 times;
// hot-loop's 1.5-1.6) and takes a sixth to a quarter off what is left
// after scaling.

// calNominal is the kernel's thread CPU time on an uncontended x86-64
// guest.
const calNominal = 3 * time.Millisecond

var (
	// calProgram is 64 Ki opcodes drawn from a fixed seed, too long for
	// the branch predictor to learn.
	calProgram = func() []byte {
		rng := rand.New(rand.NewSource(1))
		p := make([]byte, 1<<16)
		for i := range p {
			p[i] = byte(rng.Intn(8))
		}
		return p
	}()
	// calTable (1 MiB) holds more than L1 and less than L2; one opcode
	// in eight reads and writes it at a data-dependent index.
	calTable = make([]uint32, calTableLen)
	calSink  uint64
)

const calTableLen = 1 << 18

// calibrate runs the kernel once and returns its thread CPU time, on a
// thread the goroutine holds for the duration.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuClock(clockThreadCPUTime)
	a, b, c := uint64(1), uint64(2), uint64(3)
	for rep := 0; rep < 3; rep++ {
		for _, op := range calProgram {
			switch op {
			case 0:
				a += b
			case 1:
				b ^= a << 3
			case 2:
				c = c*31 + a
			case 3:
				if c&1 == 0 {
					a++
				} else {
					b--
				}
			case 4:
				a, b = b, a
			case 5:
				c ^= c >> 7
			case 6:
				b += c
			default:
				a = a*7 + 1 + uint64(calTable[c%calTableLen])
				calTable[(a>>3)%calTableLen]++
			}
		}
	}
	calSink += a + b + c
	return cpuClock(clockThreadCPUTime) - start
}

// calWindow is how many recent kernel times a scale factor rests on.
const calWindow = 8

// calibration keeps every kernel time of a run.
type calibration struct{ samples []time.Duration }

// around runs f and then the kernel, and returns the factor that brings
// times measured inside f to nominal speed. The kernel run after one
// unit is the run before the next, so only the first unit has one
// before it of its own.
func (c *calibration) around(f func()) float64 {
	if len(c.samples) == 0 {
		c.samples = append(c.samples, calibrate())
	}
	f()
	c.samples = append(c.samples, calibrate())
	recent := c.samples[max(0, len(c.samples)-calWindow):]
	return float64(calNominal) / float64(quantile(recent, 0.5))
}

// bracket returns the time f measures, scaled to nominal speed.
func (c *calibration) bracket(f func() time.Duration) time.Duration {
	var d time.Duration
	s := c.around(func() { d = f() })
	return scale(d, s)
}

func scale(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }
