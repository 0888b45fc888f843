// Package tensor implements the dense float32 n-dimensional arrays used by
// the neural-network substrate (package nn). It provides exactly the
// operations the paper's branch architectures need: element-wise arithmetic,
// matrix multiplication, im2col-based 2-D convolution, max pooling and
// global average pooling, each with the gradients required for training.
//
// Layout is row-major. Images follow the CHW convention (channels, height,
// width); batches prepend an N axis (NCHW).
package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Len() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// setShape gives t the shape dims, allocating a new shape slice only when
// t does not have that shape already (an arena-built dst does).
func (t *Tensor) setShape(dims ...int) {
	if !slices.Equal(t.Shape, dims) {
		t.Shape = slices.Clone(dims)
	}
}

// Reshape returns a view of t with a new shape of equal length.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if v.Len() != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes length", t.Shape, shape))
	}
	return v
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

func mustSameShape(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}

// Add returns t+u element-wise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	mustSameShape("Add", t, u)
	out := New(t.Shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] + u.Data[i]
	}
	return out
}

// AddInPlace adds u into t.
func (t *Tensor) AddInPlace(u *Tensor) {
	mustSameShape("AddInPlace", t, u)
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
}

// Sub returns t-u element-wise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	mustSameShape("Sub", t, u)
	out := New(t.Shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] - u.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product.
func (t *Tensor) Mul(u *Tensor) *Tensor {
	mustSameShape("Mul", t, u)
	out := New(t.Shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] * u.Data[i]
	}
	return out
}

// Scale returns t*s element-wise.
func (t *Tensor) Scale(s float32) *Tensor {
	out := New(t.Shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] * s
	}
	return out
}

// ScaleInPlace multiplies t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += alpha*u in place.
func (t *Tensor) AXPY(alpha float32, u *Tensor) {
	mustSameShape("AXPY", t, u)
	for i := range t.Data {
		t.Data[i] += alpha * u.Data[i]
	}
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if t.Len() == 0 {
		return 0
	}
	return t.Sum() / float64(t.Len())
}

// Max returns the largest element; panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Dot returns the inner product of t and u flattened.
func (t *Tensor) Dot(u *Tensor) float64 {
	mustSameShape("Dot", t, u)
	var s float64
	for i := range t.Data {
		s += float64(t.Data[i]) * float64(u.Data[i])
	}
	return s
}

// L2 returns the Euclidean norm of t.
func (t *Tensor) L2() float64 { return math.Sqrt(t.Dot(t)) }

// RandN fills t with N(0, std) values drawn from rng.
func (t *Tensor) RandN(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// RandUniform fills t with uniform values in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// String renders a compact description (shape plus up to 8 elements).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
