//! Boolean genomes.

use rand::Rng;

/// A fixed-length bit string: one candidate feature subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitGenome {
    bits: Vec<bool>,
}

impl BitGenome {
    /// All-zero genome of length `n`.
    pub fn zeros(n: usize) -> BitGenome {
        BitGenome {
            bits: vec![false; n],
        }
    }

    /// All-one genome of length `n`.
    pub fn ones(n: usize) -> BitGenome {
        BitGenome {
            bits: vec![true; n],
        }
    }

    /// Genome from explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> BitGenome {
        BitGenome { bits }
    }

    /// Uniformly random genome: each bit set with probability `density`.
    pub fn random(n: usize, density: f64, rng: &mut impl Rng) -> BitGenome {
        BitGenome {
            bits: (0..n).map(|_| rng.gen_bool(density)).collect(),
        }
    }

    /// Genome length.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for a zero-length genome.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, v: bool) {
        self.bits[i] = v;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Indices of the set bits, ascending.
    pub fn ones_indices(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// Set-difference against `other`: the bit indices set here but not
    /// there (`added`) and set there but not here (`removed`), ascending.
    /// Incremental fitness evaluators patch cached per-mask state from a
    /// neighbouring genome instead of recomputing it from scratch.
    ///
    /// # Panics
    ///
    /// Panics when the genomes have different lengths.
    pub fn diff(&self, other: &BitGenome) -> (Vec<usize>, Vec<usize>) {
        assert_eq!(self.len(), other.len(), "diff length mismatch");
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (i, (&a, &b)) in self.bits.iter().zip(&other.bits).enumerate() {
            match (a, b) {
                (true, false) => added.push(i),
                (false, true) => removed.push(i),
                _ => {}
            }
        }
        (added, removed)
    }

    /// Uniform crossover: each bit drawn from either parent with equal
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics when the parents have different lengths.
    pub fn crossover(&self, other: &BitGenome, rng: &mut impl Rng) -> BitGenome {
        assert_eq!(self.len(), other.len(), "crossover length mismatch");
        BitGenome {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| if rng.gen_bool(0.5) { a } else { b })
                .collect(),
        }
    }

    /// Flip each bit independently with probability `p`.
    pub fn mutate(&mut self, p: f64, rng: &mut impl Rng) {
        for b in &mut self.bits {
            if rng.gen_bool(p) {
                *b = !*b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(BitGenome::zeros(5).count_ones(), 0);
        assert_eq!(BitGenome::ones(5).count_ones(), 5);
        let g = BitGenome::from_bits(vec![true, false, true]);
        assert_eq!(g.ones_indices(), vec![0, 2]);
        assert_eq!(g.len(), 3);
        assert!(g.get(0) && !g.get(1));
    }

    #[test]
    fn random_density_respected() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = BitGenome::random(10_000, 0.3, &mut rng);
        let frac = g.count_ones() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn crossover_only_mixes_parent_bits() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BitGenome::zeros(64);
        let b = BitGenome::ones(64);
        let c = a.crossover(&b, &mut rng);
        // Every bit is from one of the parents (trivially true here), and
        // the child mixes both.
        assert!(c.count_ones() > 0 && c.count_ones() < 64);
        // Crossover of identical parents is the parent.
        let d = a.crossover(&a, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn mutation_probability_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = BitGenome::random(128, 0.5, &mut rng);
        let before = g.clone();
        g.mutate(0.0, &mut rng);
        assert_eq!(g, before);
        g.mutate(1.0, &mut rng);
        assert_eq!(g.count_ones(), 128 - before.count_ones());
    }

    #[test]
    fn diff_splits_added_and_removed() {
        let a = BitGenome::from_bits(vec![true, false, true, false, true]);
        let b = BitGenome::from_bits(vec![true, true, false, false, false]);
        let (added, removed) = a.diff(&b);
        assert_eq!(added, vec![2, 4]);
        assert_eq!(removed, vec![1]);
        assert_eq!(a.diff(&a), (vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "diff length mismatch")]
    fn diff_length_mismatch_panics() {
        let _ = BitGenome::zeros(3).diff(&BitGenome::zeros(4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn crossover_length_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = BitGenome::zeros(3).crossover(&BitGenome::zeros(4), &mut rng);
    }
}
