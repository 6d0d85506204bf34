//! Condensed upper-triangular pairwise storage.

/// A symmetric pairwise table over `n` observations stored as the
/// strict upper triangle in one flat buffer of `n·(n−1)/2` cells —
/// SciPy's "condensed" layout.
///
/// Generic over the cell type: `Condensed<f64>` carries distances, and
/// `Condensed<i128>` carries the quantised masked-distance accumulators
/// the GA's incremental fitness updates in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensed<T> {
    n: usize,
    cells: Vec<T>,
}

/// Number of cells in the condensed triangle over `n` observations.
#[inline]
pub(crate) fn triangle_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

impl<T: Copy> Condensed<T> {
    /// A triangle over `n` observations with every cell set to `fill`.
    pub fn filled(n: usize, fill: T) -> Condensed<T> {
        Condensed {
            n,
            cells: vec![fill; triangle_len(n)],
        }
    }

    /// Wrap an existing flat triangle buffer.
    ///
    /// # Panics
    ///
    /// Panics when `cells.len() != n·(n−1)/2`.
    pub fn from_vec(n: usize, cells: Vec<T>) -> Condensed<T> {
        assert_eq!(
            cells.len(),
            triangle_len(n),
            "condensed triangle over {n} observations has {} cells",
            triangle_len(n)
        );
        Condensed { n, cells }
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when the triangle covers no observation.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Flat index of the unordered pair `{i, j}`, `i != j`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range or `i == j` (the diagonal is
    /// not stored).
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        assert!(i < self.n && j < self.n, "index out of range");
        assert_ne!(i, j, "the diagonal is not stored");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Offset of row `a` in the triangle, then the column within it.
        a * self.n - a * (a + 1) / 2 + (b - a - 1)
    }

    /// Cell of the unordered pair `{i, j}`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.cells[self.index(i, j)]
    }

    /// Set the cell of the unordered pair `{i, j}`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let at = self.index(i, j);
        self.cells[at] = v;
    }

    /// The flat cell buffer, pair-major (`{0,1}, {0,2}, …, {n−2,n−1}`).
    pub fn as_slice(&self) -> &[T] {
        &self.cells
    }

    /// Mutable flat cell buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.cells
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_matches_row_major_triangle() {
        let n = 7;
        let mut c = Condensed::filled(n, 0usize);
        let mut expect = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(c.index(i, j), expect);
                assert_eq!(c.index(j, i), expect, "symmetric");
                c.set(i, j, i * 10 + j);
                expect += 1;
            }
        }
        assert_eq!(expect, triangle_len(n));
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(c.get(j, i), i * 10 + j);
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Condensed::<f64>::filled(0, 0.0).is_empty());
        assert_eq!(Condensed::<f64>::filled(1, 0.0).as_slice().len(), 0);
        assert_eq!(Condensed::<f64>::filled(2, 0.0).as_slice().len(), 1);
    }

    #[test]
    #[should_panic(expected = "diagonal is not stored")]
    fn diagonal_panics() {
        let _ = Condensed::filled(3, 0.0).index(1, 1);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_panics() {
        let _ = Condensed::filled(3, 0.0).index(0, 3);
    }

    #[test]
    #[should_panic(expected = "has 3 cells")]
    fn from_vec_checks_size() {
        let _ = Condensed::from_vec(3, vec![0.0; 2]);
    }
}
