package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"unsafe"

	"github.com/calcm/heterosim/internal/workload/blackscholes"
	"github.com/calcm/heterosim/internal/workload/mmm"
)

// operands are one check's seeded inputs: the FFT signal, the MMM
// factors, or the BS portfolio, whichever the kernel takes. They are a
// pure function of the kernel and its capped size, and read-only once
// made: every check that shares them reads them, none writes them.
type operands struct {
	signal    []complex128          // FFT
	a, b      *mmm.Matrix           // MMM
	portfolio []blackscholes.Option // BS
}

// maxOperandBytes bounds the process-wide operand cache: about twice
// the ~4.3 MB one reproduction's checks read (FFT signals 16..65536
// 2.1 MB, the BS portfolio 1.6 MB, the MMM factors 0.6 MB).
const maxOperandBytes = 8 << 20

// operandCache keeps each input's operands after their first generation,
// up to a byte budget. An input whose operands do not fit is generated
// afresh for each check, so no sequence of inputs grows the cache past
// its budget.
type operandCache struct {
	budget int // bytes

	mu    sync.Mutex
	bytes int
	m     map[Input]operands
}

func newOperandCache(budget int) *operandCache {
	return &operandCache{budget: budget, m: make(map[Input]operands)}
}

// checkOperands is the cache every check reads its operands from.
var checkOperands = newOperandCache(maxOperandBytes)

// get returns the input's operands, generating them on a miss. Two
// goroutines that miss on one input both generate it, and the second
// keeps the first's: the copies are bit-identical.
func (c *operandCache) get(in Input) (operands, error) {
	key := in.operandKey()
	c.mu.Lock()
	ops, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return ops, nil
	}
	ops, err := generateOperands(key)
	if err != nil {
		return operands{}, err
	}
	size := ops.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev, nil
	}
	if c.bytes+size <= c.budget {
		c.m[key] = ops
		c.bytes += size
	}
	return ops, nil
}

// operandKey is the part of an Input its operands depend on: the MMM
// block edge changes the product's schedule, not its factors.
func (in Input) operandKey() Input { return Input{Kernel: in.Kernel, N: in.N} }

// generateOperands draws the input's operands from a source seeded by
// its size.
func generateOperands(in Input) (operands, error) {
	switch in.Kernel {
	case KernelFFT:
		rng := rand.New(rand.NewSource(int64(in.N)))
		x := make([]complex128, in.N)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return operands{signal: x}, nil
	case KernelMMM:
		rng := rand.New(rand.NewSource(int64(in.N)))
		a, err := mmm.New(in.N, in.N)
		if err != nil {
			return operands{}, err
		}
		b, err := mmm.New(in.N, in.N)
		if err != nil {
			return operands{}, err
		}
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		return operands{a: a, b: b}, nil
	case KernelBS:
		opts, err := blackscholes.RandomPortfolio(in.N, int64(in.N))
		if err != nil {
			return operands{}, err
		}
		return operands{portfolio: opts}, nil
	}
	return operands{}, fmt.Errorf("sim: unknown kernel %d", in.Kernel)
}

// bytes is the size of the operands' backing arrays.
func (o operands) bytes() int {
	n := len(o.signal)*int(unsafe.Sizeof(complex128(0))) +
		len(o.portfolio)*int(unsafe.Sizeof(blackscholes.Option{}))
	if o.a != nil {
		n += (len(o.a.Data) + len(o.b.Data)) * int(unsafe.Sizeof(float64(0)))
	}
	return n
}
