//! Contiguous row-major matrices.

/// A dense `rows × cols` matrix of `f64` in one contiguous row-major
/// allocation.
///
/// Rows are borrowed as plain `&[f64]` slices ([`Matrix::row`]), so the
/// distance kernels stream over cache-line-contiguous memory instead of
/// chasing one heap pointer per observation as `Vec<Vec<f64>>` does.
/// Shape is validated once at construction: every kernel downstream may
/// assume rectangular input.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An empty matrix (0 × 0).
    pub fn new() -> Matrix {
        Matrix::default()
    }

    /// A zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row slices, validating rectangularity **once**.
    ///
    /// # Panics
    ///
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Matrix {
        let nrows = rows.len();
        let cols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(nrows * cols);
        for (i, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Matrix {
            rows: nrows,
            cols,
            data,
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "flat buffer has the wrong size");
        Matrix { rows, cols, data }
    }

    /// Number of rows (observations).
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Cell `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Iterate over rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copy out as a row-of-rows (codec boundaries only — hot paths stay
    /// flat).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// A new matrix keeping only the columns in `ids`, in the given
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range.
    pub fn project_cols(&self, ids: &[usize]) -> Matrix {
        for &j in ids {
            assert!(j < self.cols, "column {j} out of range ({})", self.cols);
        }
        let mut data = Vec::with_capacity(self.rows * ids.len());
        for r in self.rows() {
            data.extend(ids.iter().map(|&j| r[j]));
        }
        Matrix {
            rows: self.rows,
            cols: ids.len(),
            data,
        }
    }
}

impl From<Vec<Vec<f64>>> for Matrix {
    fn from(rows: Vec<Vec<f64>>) -> Matrix {
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.to_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::from_rows::<Vec<f64>>(&[]);
        assert!(m.is_empty());
        assert_eq!(m.rows().count(), 0);
        assert_eq!(m.to_rows(), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn zero_width_rows_are_allowed() {
        let m = Matrix::from_rows(&[vec![], vec![], vec![]] as &[Vec<f64>]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 0);
        assert_eq!(m.rows().count(), 3);
        assert!(m.row(1).is_empty());
    }

    #[test]
    fn project_cols_selects_in_order() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        let p = m.project_cols(&[2, 0]);
        assert_eq!(p.to_rows(), vec![vec![2.0, 0.0], vec![5.0, 3.0]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn project_cols_checks_range() {
        let _ = Matrix::from_rows(&[vec![0.0]]).project_cols(&[1]);
    }

    #[test]
    fn row_mut_and_zeros() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1)[2] = 7.0;
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn from_flat_checks_size() {
        let _ = Matrix::from_flat(2, 2, vec![0.0; 3]);
    }
}
