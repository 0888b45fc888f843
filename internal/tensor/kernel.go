package tensor

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Micro-kernel dispatch
//
// The blocked GEMM's inner loops, the pooling planes and the rasteriser's
// row primitives route through the function pointers below. On amd64 the
// package selects the widest instruction set the CPU supports at process
// start (runtime CPUID feature detection, no build flags): "avx512" (a
// 4×64 register-blocked GEMM tile, opmask epilogues and pooling) when the
// OS enables ZMM state, else "avx2" (a 4×16 GEMM tile, compare+blend
// epilogues, 8-wide pooling), else "sse" (4-wide axpy, scalar epilogue —
// the amd64 baseline). Everywhere else the portable "generic" kernels
// run.
//
// All of those variants perform the exact IEEE operation sequence of the
// generic loops — elementwise multiply-then-add, select-based activations —
// so outputs are bit-identical across kernels, NaN payloads included, which
// is what lets the batched inference path keep its result-identity
// guarantees no matter which machine it lands on.
//
// The VMQ_KERNEL environment variable pins a kernel at start
// (GODEBUG-style, for debugging and for CI to exercise the pure-Go path):
//
//	VMQ_KERNEL=generic go test ./...
//
// Unknown or unavailable values fall back to the default level with a
// one-line warning on stderr naming the levels this CPU offers. SetKernel
// does the same selection at runtime for tests and benchmarks.
var (
	runQuadPass = quadPassGeneric
	epilogueRow = epilogueRowGeneric
	maxPool2    = maxPool2PlaneGeneric
	fillRow     = fillRowGeneric
	addClampRow = addClampRowGeneric
	kernelName  = "generic"
)

// kernelImpl bundles one instruction-set level's micro-kernels. quad runs
// one GEMM quad pass: the axpyQuad loop over dst on generic and sse, a
// register-blocked tile on avx2 and avx512.
type kernelImpl struct {
	quad     func(p quadPass)
	epilogue func(seg []float32, b float32, act Act, slope float32)
	pool2    func(dst, src []float32, oh, ow, rowStride int)
	fill     func(dst []float32, v float32)
	addClamp func(dst, add []float32)
}

// kernelTable lists the kernels this process can select: generic
// everywhere, plus whatever archKernels detects on this CPU.
func kernelTable() map[string]kernelImpl {
	ks := map[string]kernelImpl{"generic": {
		quad:     quadPassGeneric,
		epilogue: epilogueRowGeneric,
		pool2:    maxPool2PlaneGeneric,
		fill:     fillRowGeneric,
		addClamp: addClampRowGeneric,
	}}
	for name, impl := range archKernels() {
		ks[name] = impl
	}
	return ks
}

// pickKernel resolves the startup kernel level from a VMQ_KERNEL value. A
// valid env value pins that level; an unknown or unavailable value falls
// back to the CPU default and returns a one-line warning naming every
// level this CPU offers.
func pickKernel(env string) (name string, warning string) {
	name = defaultKernelName()
	if env == "" {
		return name, ""
	}
	if _, ok := kernelTable()[env]; ok {
		return env, ""
	}
	warning = fmt.Sprintf("vmq/tensor: VMQ_KERNEL=%q is unknown or unavailable on this CPU; using %q (available: %s)",
		env, name, strings.Join(Kernels(), ", "))
	return name, warning
}

func init() {
	initKernel(os.Getenv("VMQ_KERNEL"), os.Stderr)
}

// initKernel applies the VMQ_KERNEL startup selection, writing the
// unknown-value warning (if any) to warn. Factored out of init so tests
// can drive it with a buffer.
func initKernel(env string, warn io.Writer) {
	name, warning := pickKernel(env)
	if warning != "" {
		fmt.Fprintln(warn, warning)
	}
	if err := SetKernel(name); err != nil {
		panic(err) // unreachable: name came from the table
	}
}

// Kernel reports the active micro-kernel level ("generic", "sse", "avx2"
// or "avx512").
func Kernel() string { return kernelName }

// Kernels lists the kernel levels selectable on this CPU, sorted.
func Kernels() []string {
	names := make([]string, 0, 5)
	for name := range kernelTable() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetKernel pins the micro-kernel level for this process — a debugging and
// testing hook, not a hot-path switch: it must not race a running GEMM.
// It returns an error (and changes nothing) if the level is unknown or
// unavailable on this CPU.
func SetKernel(name string) error {
	impl, ok := kernelTable()[name]
	if !ok {
		return fmt.Errorf("tensor: unknown kernel %q (available: %v)", name, Kernels())
	}
	runQuadPass = impl.quad
	epilogueRow = impl.epilogue
	maxPool2 = impl.pool2
	fillRow = impl.fill
	addClampRow = impl.addClamp
	kernelName = name
	return nil
}

// Fill sets every element of dst to v through the active kernel level's
// row-fill primitive. All levels produce identical bytes (a fill has no
// arithmetic); the rasteriser's background and rectangle fills route
// through here.
func Fill(dst []float32, v float32) { fillRow(dst, v) }

// AddClamp01 computes dst[i] = clamp(dst[i]+add[i]) into [0, 1] with the
// scalar select order (add, then low clamp, then high clamp; NaN passes
// through). All levels are bit-identical to generic; the
// rasteriser's sensor-noise epilogue routes through here.
func AddClamp01(dst, add []float32) { addClampRow(dst, add) }
