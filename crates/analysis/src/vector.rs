//! Feature vectors and matrices.

use fgbs_matrix::Matrix;

use crate::catalog::{N_FEATURES, N_STATIC};

/// A boolean mask over the 76 features (the genome of the paper's GA).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeatureMask {
    bits: Vec<bool>,
}

impl FeatureMask {
    /// Mask selecting every feature.
    pub fn all() -> FeatureMask {
        FeatureMask {
            bits: vec![true; N_FEATURES],
        }
    }

    /// Mask selecting no feature.
    pub fn none() -> FeatureMask {
        FeatureMask {
            bits: vec![false; N_FEATURES],
        }
    }

    /// Mask from a list of feature ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn from_ids(ids: &[usize]) -> FeatureMask {
        let mut m = FeatureMask::none();
        for &i in ids {
            assert!(i < N_FEATURES, "feature id {i} out of range");
            m.bits[i] = true;
        }
        m
    }

    /// Mask from raw booleans (must have length 76).
    ///
    /// # Panics
    ///
    /// Panics on wrong length.
    pub fn from_bits(bits: Vec<bool>) -> FeatureMask {
        assert_eq!(bits.len(), N_FEATURES);
        FeatureMask { bits }
    }

    /// Is feature `i` selected?
    pub fn contains(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// Selected feature ids, ascending.
    pub fn ids(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// True if no feature is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The 76-dimensional signature of one codelet.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// Compose from the static and dynamic halves.
    ///
    /// # Panics
    ///
    /// Panics if the halves do not have the catalog's sizes.
    pub fn compose(static_part: Vec<f64>, dynamic_part: Vec<f64>) -> FeatureVector {
        assert_eq!(static_part.len(), N_STATIC);
        assert_eq!(static_part.len() + dynamic_part.len(), N_FEATURES);
        let mut values = static_part;
        values.extend(dynamic_part);
        FeatureVector { values }
    }

    /// Raw values, indexed by feature id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of feature `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Project onto a mask, keeping selected features in id order.
    pub fn project(&self, mask: &FeatureMask) -> Vec<f64> {
        mask.ids().iter().map(|&i| self.values[i]).collect()
    }
}

/// Feature vectors for a set of codelets (rows) — the input of Step C.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    names: Vec<String>,
    rows: Vec<FeatureVector>,
}

impl FeatureMatrix {
    /// Empty matrix.
    pub fn new() -> FeatureMatrix {
        FeatureMatrix::default()
    }

    /// Append one codelet's signature.
    pub fn push(&mut self, name: impl Into<String>, row: FeatureVector) {
        self.names.push(name.into());
        self.rows.push(row);
    }

    /// Number of codelets.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no codelet has been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Codelet names, row order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Row by index.
    pub fn row(&self, i: usize) -> &FeatureVector {
        &self.rows[i]
    }

    /// Project every row onto `mask`: the raw observation matrix handed to
    /// the clustering step, in contiguous row-major storage.
    pub fn project(&self, mask: &FeatureMask) -> Matrix {
        let ids = mask.ids();
        let mut data = Vec::with_capacity(self.rows.len() * ids.len());
        for r in &self.rows {
            data.extend(ids.iter().map(|&i| r.values[i]));
        }
        Matrix::from_flat(self.rows.len(), ids.len(), data)
    }

    /// The full raw observation matrix — every feature column, row per
    /// codelet. The GA's incremental fitness path normalises this once
    /// and projects columns per mask.
    pub fn matrix(&self) -> Matrix {
        let cols = if self.rows.is_empty() { 0 } else { self.rows[0].values.len() };
        let mut data = Vec::with_capacity(self.rows.len() * cols);
        for r in &self.rows {
            data.extend_from_slice(&r.values);
        }
        Matrix::from_flat(self.rows.len(), cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(seed: f64) -> FeatureVector {
        FeatureVector::compose(
            (0..N_STATIC).map(|i| seed + i as f64).collect(),
            (N_STATIC..N_FEATURES).map(|i| seed + i as f64).collect(),
        )
    }

    #[test]
    fn compose_and_index() {
        let v = fv(0.0);
        assert_eq!(v.values().len(), N_FEATURES);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.get(N_FEATURES - 1), (N_FEATURES - 1) as f64);
    }

    #[test]
    #[should_panic]
    fn compose_rejects_bad_lengths() {
        let _ = FeatureVector::compose(vec![0.0; 3], vec![0.0; 3]);
    }

    #[test]
    fn mask_roundtrip() {
        let m = FeatureMask::from_ids(&[1, 5, 75]);
        assert_eq!(m.len(), 3);
        assert!(m.contains(5));
        assert!(!m.contains(6));
        assert_eq!(m.ids(), vec![1, 5, 75]);
        assert!(!m.is_empty());
        assert!(FeatureMask::none().is_empty());
        assert_eq!(FeatureMask::all().len(), N_FEATURES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_out_of_range() {
        let _ = FeatureMask::from_ids(&[76]);
    }

    #[test]
    fn projection_selects_in_order() {
        let v = fv(100.0);
        let m = FeatureMask::from_ids(&[2, 0, 10]);
        assert_eq!(v.project(&m), vec![100.0, 102.0, 110.0]);
    }

    #[test]
    fn matrix_projection() {
        let mut m = FeatureMatrix::new();
        m.push("a", fv(0.0));
        m.push("b", fv(1.0));
        assert_eq!(m.len(), 2);
        assert_eq!(m.names(), &["a".to_string(), "b".to_string()]);
        let p = m.project(&FeatureMask::from_ids(&[3]));
        assert_eq!(p.to_rows(), vec![vec![3.0], vec![4.0]]);
        assert_eq!(m.row(1).get(0), 1.0);
    }

    #[test]
    fn full_matrix_matches_all_mask_projection() {
        let mut m = FeatureMatrix::new();
        m.push("a", fv(0.0));
        m.push("b", fv(1.0));
        let full = m.matrix();
        assert_eq!(full.nrows(), 2);
        assert_eq!(full.ncols(), N_FEATURES);
        assert_eq!(full, m.project(&FeatureMask::all()));
    }
}
