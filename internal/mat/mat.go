// Package mat provides a small dense float64 matrix library used as the
// numeric substrate for the autodiff engine and the NeuSight predictors.
//
// Matrices are row-major. All operations either allocate a fresh result or
// write into an explicit destination; no operation aliases its inputs unless
// documented. MatMul parallelizes across row blocks for the sizes that occur
// when training the utilization predictors.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from row slices, copying the data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add returns m + o elementwise.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.shapeCheck(o, "Add")
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v + o.Data[i]
	}
	return r
}

// AddInPlace accumulates o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "AddInPlace")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub returns m - o elementwise.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.shapeCheck(o, "Sub")
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v - o.Data[i]
	}
	return r
}

// Mul returns the elementwise (Hadamard) product.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	m.shapeCheck(o, "Mul")
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v * o.Data[i]
	}
	return r
}

// Div returns the elementwise quotient m / o.
func (m *Matrix) Div(o *Matrix) *Matrix {
	m.shapeCheck(o, "Div")
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v / o.Data[i]
	}
	return r
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v * s
	}
	return r
}

// AddScalar returns m + s elementwise.
func (m *Matrix) AddScalar(s float64) *Matrix {
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = v + s
	}
	return r
}

// Apply returns f applied elementwise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	r := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		r.Data[i] = f(v)
	}
	return r
}

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	r := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			r.Data[j*m.Rows+i] = v
		}
	}
	return r
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// parallelMatMulThreshold is the flop count above which MatMul fans out
// across goroutines. Below it the goroutine overhead dominates.
const parallelMatMulThreshold = 1 << 17

// MatMul returns m @ o.
func (m *Matrix) MatMul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %dx%d @ %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	r := New(m.Rows, o.Cols)
	work := m.Rows * m.Cols * o.Cols
	if work < parallelMatMulThreshold {
		matMulRange(m, o, r, 0, m.Rows)
		return r
	}
	ParallelFor(m.Rows, func(lo, hi int) {
		matMulRange(m, o, r, lo, hi)
	})
	return r
}

// matMulRange computes rows [lo, hi) of r = m @ o using an ikj loop order so
// the inner loop streams both o and r rows sequentially.
func matMulRange(m, o, r *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		mRow := m.Row(i)
		rRow := r.Row(i)
		for k, mv := range mRow {
			if mv == 0 {
				continue
			}
			oRow := o.Row(k)
			for j, ov := range oRow {
				rRow[j] += mv * ov
			}
		}
	}
}

// RowSums returns a column vector (Rows x 1) of per-row sums.
func (m *Matrix) RowSums() *Matrix {
	r := New(m.Rows, 1)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, v := range m.Row(i) {
			s += v
		}
		r.Data[i] = s
	}
	return r
}

// ColSums returns a row vector (1 x Cols) of per-column sums.
func (m *Matrix) ColSums() *Matrix {
	r := New(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			r.Data[j] += v
		}
	}
	return r
}

// AddRowVector returns m with the 1 x Cols vector v added to every row.
func (m *Matrix) AddRowVector(v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector wants 1x%d, got %dx%d", m.Cols, v.Rows, v.Cols))
	}
	r := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		out := r.Row(i)
		for j, x := range row {
			out[j] = x + v.Data[j]
		}
	}
	return r
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		s += " ["
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
			if i != m.Rows-1 {
				s += "; "
			}
		}
		s += "]"
	}
	return s
}
