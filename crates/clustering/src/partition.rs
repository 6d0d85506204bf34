//! Partitions: the output of cutting a dendrogram.

use fgbs_matrix::Matrix;

/// A partition of `n` observations into `k` clusters labelled `0..k`.
/// Labels are canonical: cluster 0 is the one containing observation 0,
/// and new labels appear in first-occurrence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assign: Vec<usize>,
    k: usize,
}

impl Partition {
    /// Build from arbitrary labels, canonicalising them.
    pub fn from_labels(labels: &[usize]) -> Partition {
        let mut map: Vec<(usize, usize)> = Vec::new(); // (raw label, canon)
        let mut assign = Vec::with_capacity(labels.len());
        for &l in labels {
            let canon = match map.iter().find(|(raw, _)| *raw == l) {
                Some((_, c)) => *c,
                None => {
                    let c = map.len();
                    map.push((l, c));
                    c
                }
            };
            assign.push(canon);
        }
        Partition {
            assign,
            k: map.len(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True when the partition covers no observation.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cluster of observation `i`.
    pub fn assignment(&self, i: usize) -> usize {
        self.assign[i]
    }

    /// All cluster assignments, observation order.
    pub fn assignments(&self) -> &[usize] {
        &self.assign
    }

    /// Observations in cluster `c`, ascending.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assign
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// Cluster sizes, label order.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0; self.k];
        for &a in &self.assign {
            s[a] += 1;
        }
        s
    }

    /// Total within-cluster sum of squared distances to centroids, given
    /// the observation matrix used for clustering.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different number of rows than the partition.
    pub fn wcss(&self, data: &Matrix) -> f64 {
        assert_eq!(data.nrows(), self.assign.len(), "data/partition mismatch");
        if data.is_empty() {
            return 0.0;
        }
        let m = data.ncols();
        // Per-cluster column sums, flat: one contiguous k × m block.
        let mut sums = Matrix::zeros(self.k, m);
        let mut counts = vec![0usize; self.k];
        for (r, &a) in data.rows().zip(&self.assign) {
            counts[a] += 1;
            let row = sums.row_mut(a);
            for (j, &v) in r.iter().enumerate() {
                row[j] += v;
            }
        }
        let mut w = 0.0;
        for (r, &a) in data.rows().zip(&self.assign) {
            let row = sums.row(a);
            for (j, &v) in r.iter().enumerate() {
                let c = row[j] / counts[a] as f64;
                w += (v - c) * (v - c);
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation_is_first_occurrence() {
        let p = Partition::from_labels(&[7, 7, 3, 7, 9]);
        assert_eq!(p.assignments(), &[0, 0, 1, 0, 2]);
        assert_eq!(p.k(), 3);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn members_and_sizes() {
        let p = Partition::from_labels(&[1, 2, 1, 3]);
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.members(1), vec![1]);
        assert_eq!(p.sizes(), vec![2, 1, 1]);
    }

    #[test]
    fn wcss_zero_for_singletons() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![5.0, 6.0]]);
        let p = Partition::from_labels(&[0, 1]);
        assert_eq!(p.wcss(&data), 0.0);
    }

    #[test]
    fn wcss_decreases_with_finer_partition() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let coarse = Partition::from_labels(&[0, 0, 0, 0]);
        let fine = Partition::from_labels(&[0, 0, 1, 1]);
        assert!(fine.wcss(&data) < coarse.wcss(&data));
        // Hand check: fine = 2 * (0.5^2 + 0.5^2) = 1.0
        assert!((fine.wcss(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "data/partition mismatch")]
    fn wcss_requires_matching_rows() {
        let p = Partition::from_labels(&[0, 0]);
        let _ = p.wcss(&Matrix::from_rows(&[vec![0.0]]));
    }
}
