package sim

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/calcm/heterosim/internal/paper"
)

// reproductionInputs are the distinct inputs a paper reproduction
// verifies: Figure 2's FFT sweep, 16 to 65536 points, and the measurement
// database's MMM product and BS portfolio at their caps (its three FFT
// anchors are among the sweep's sizes).
func reproductionInputs() []Input {
	ins := []Input{
		{Kernel: KernelMMM, N: maxExecMMM, Block: int(paper.MMMBlockN)},
		{Kernel: KernelBS, N: maxExecBS},
	}
	for n := 16; n <= maxExecFFT; n *= 2 {
		ins = append(ins, Input{Kernel: KernelFFT, N: n})
	}
	return ins
}

// checkName names an input for a sub-benchmark.
func checkName(in Input) string {
	switch in.Kernel {
	case KernelFFT:
		return fmt.Sprintf("FFT-%d", in.N)
	case KernelMMM:
		return fmt.Sprintf("MMM-%d-b%d", in.N, in.Block)
	case KernelBS:
		return fmt.Sprintf("BS-%d", in.N)
	}
	return fmt.Sprintf("kernel%d-%d", in.Kernel, in.N)
}

// TestExecuteFFTAllocs pins the FFT check's memory: it allocates the
// input signal and the recursive reference's result, and the planned
// transform runs in the input's buffer, so no third n-sized buffer.
// Bytes, not allocation counts, are bounded: the random source is a few
// kilobytes whatever n is, and a third buffer would add 16n bytes.
func TestExecuteFFTAllocs(t *testing.T) {
	const n = 1 << 16
	if err := executeFFT(n); err != nil { // warm the plan and twiddle caches
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := executeFFT(n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const buffers = 2 * 16 * n // x and the reference result, complex128
	if perRun < buffers || perRun > buffers+16<<10 {
		t.Errorf("executeFFT(%d) allocates %d bytes per check, want the two %d-byte buffers plus under 16 KiB",
			n, perRun, buffers/2)
	}
}

// BenchmarkCheck times each check a reproduction runs, one sub-benchmark
// per distinct input, so the verification layer has a row of its own.
func BenchmarkCheck(b *testing.B) {
	for _, in := range reproductionInputs() {
		b.Run(checkName(in), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
