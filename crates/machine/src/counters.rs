//! Hardware performance counters (the simulated PMU).

/// Event counts accumulated by a [`crate::Machine`] run. These are the raw
/// events the Likwid substitute derives dynamic features from (MFLOPS,
/// bandwidths, miss rates…).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HwCounters {
    /// Core cycles.
    pub cycles: f64,
    /// Retired instructions (weighted virtual instructions).
    pub instructions: f64,
    /// Scalar single-precision FP element operations.
    pub flops_sp_scalar: f64,
    /// Vector single-precision FP element operations.
    pub flops_sp_vector: f64,
    /// Scalar double-precision FP element operations.
    pub flops_dp_scalar: f64,
    /// Vector double-precision FP element operations.
    pub flops_dp_vector: f64,
    /// FP divide/sqrt element operations.
    pub fp_div: f64,
    /// Load instructions retired (element granularity).
    pub loads: f64,
    /// Store instructions retired (element granularity).
    pub stores: f64,
    /// Branch instructions retired.
    pub branches: f64,
    /// Hits per cache level (L1 first).
    pub cache_hits: Vec<u64>,
    /// Misses per cache level (L1 first).
    pub cache_misses: Vec<u64>,
    /// Bytes transferred from L2 into L1 (L1 refills × line).
    pub bytes_from_l2: f64,
    /// Bytes transferred from L3 into L2 (L2 refills × line).
    pub bytes_from_l3: f64,
    /// Bytes transferred from DRAM (last-level refills × line).
    pub bytes_from_mem: f64,
    /// Innermost-loop iterations executed.
    pub iterations: f64,
    /// Invocations executed.
    pub invocations: u64,
}

impl HwCounters {
    /// Empty counters sized for a hierarchy of `levels` cache levels.
    pub fn new(levels: usize) -> Self {
        HwCounters {
            cache_hits: vec![0; levels],
            cache_misses: vec![0; levels],
            ..Default::default()
        }
    }

    /// Total FP element operations.
    pub fn flops(&self) -> f64 {
        self.flops_sp_scalar + self.flops_sp_vector + self.flops_dp_scalar + self.flops_dp_vector
    }

    /// Fraction of FP operations executed as vector element ops.
    pub fn vector_flop_ratio(&self) -> f64 {
        let t = self.flops();
        if t == 0.0 {
            0.0
        } else {
            (self.flops_sp_vector + self.flops_dp_vector) / t
        }
    }

    /// Miss rate at a level: misses / (hits + misses); 0 when untouched.
    pub fn miss_rate(&self, level: usize) -> f64 {
        let h = *self.cache_hits.get(level).unwrap_or(&0) as f64;
        let m = *self.cache_misses.get(level).unwrap_or(&0) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            m / (h + m)
        }
    }

    /// Accumulate another counter set (e.g. merging invocations).
    pub fn add(&mut self, other: &HwCounters) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.flops_sp_scalar += other.flops_sp_scalar;
        self.flops_sp_vector += other.flops_sp_vector;
        self.flops_dp_scalar += other.flops_dp_scalar;
        self.flops_dp_vector += other.flops_dp_vector;
        self.fp_div += other.fp_div;
        self.loads += other.loads;
        self.stores += other.stores;
        self.branches += other.branches;
        if self.cache_hits.len() < other.cache_hits.len() {
            self.cache_hits.resize(other.cache_hits.len(), 0);
            self.cache_misses.resize(other.cache_misses.len(), 0);
        }
        for (i, (&h, &m)) in other
            .cache_hits
            .iter()
            .zip(&other.cache_misses)
            .enumerate()
        {
            self.cache_hits[i] += h;
            self.cache_misses[i] += m;
        }
        self.bytes_from_l2 += other.bytes_from_l2;
        self.bytes_from_l3 += other.bytes_from_l3;
        self.bytes_from_mem += other.bytes_from_mem;
        self.iterations += other.iterations;
        self.invocations += other.invocations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_totals_and_vector_ratio() {
        let mut c = HwCounters::new(3);
        c.flops_dp_scalar = 10.0;
        c.flops_dp_vector = 30.0;
        assert_eq!(c.flops(), 40.0);
        assert!((c.vector_flop_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn vector_ratio_zero_when_no_flops() {
        let c = HwCounters::new(2);
        assert_eq!(c.vector_flop_ratio(), 0.0);
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = HwCounters::new(2);
        c.cache_hits[1] = 90;
        c.cache_misses[1] = 10;
        assert!((c.miss_rate(1) - 0.1).abs() < 1e-12);
        assert_eq!(c.miss_rate(0), 0.0);
        assert_eq!(c.miss_rate(7), 0.0); // out of range => untouched
    }

    #[test]
    fn add_merges_with_resize() {
        let mut a = HwCounters::new(2);
        let mut b = HwCounters::new(3);
        b.cache_hits[2] = 5;
        b.cycles = 100.0;
        b.invocations = 1;
        a.add(&b);
        assert_eq!(a.cache_hits[2], 5);
        assert_eq!(a.cycles, 100.0);
        assert_eq!(a.invocations, 1);
    }
}
