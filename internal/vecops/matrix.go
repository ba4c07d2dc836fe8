package vecops

// Matrix is a dense row-major matrix of feature rows: row i occupies
// Data[i*Cols : (i+1)*Cols]. It is the flat batch counterpart of the
// per-vector []float64 feature slices — one contiguous allocation instead of
// Rows pointer-chased slices, which is what makes batched model inference
// cache-friendly and cheap to hand across package boundaries.
type Matrix struct {
	Data []float64
	Rows int
	Cols int
}

// RowSpan is the number of cells of capacity a matrix keeps past each row's
// start for a model kernel to read the row in place through a fixed-size
// view: the compiled tree walk reads rows this way, and stages the rows of a
// matrix without that capacity into padded scratch first.
const RowSpan = 1024

// NewMatrix allocates a zeroed rows×cols matrix in one allocation.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// Row returns row i as a full-capacity-clipped slice view into Data.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// RowsView returns the sub-matrix of rows [lo, hi) sharing m's backing
// array, capacity included, so a view keeps the RowSpan tail capacity of its
// parent. It is how batch consumers chunk one matrix across workers without
// copying.
func (m *Matrix) RowsView(lo, hi int) Matrix {
	return Matrix{Data: m.Data[lo*m.Cols : hi*m.Cols], Rows: hi - lo, Cols: m.Cols}
}

// MatrixFromRows gathers variable slices into one flat matrix. Every row
// must have length cols; rows shorter or longer than cols would misalign the
// layout, so callers pass homogeneous feature rows (Dataset.Validate
// enforces this for training data).
func MatrixFromRows(rows [][]float64, cols int) *Matrix {
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}
