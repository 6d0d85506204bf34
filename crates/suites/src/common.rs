//! Shared helpers: dataset classes and address-space allocation.

use fgbs_isa::{Binding, BindingBuilder, Codelet};

/// Dataset class, in the spirit of the NAS problem classes. The paper runs
/// NAS with CLASS B; `Test` keeps the same code shapes at sizes suitable
/// for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Tiny datasets for fast tests.
    Test,
    /// Intermediate datasets for examples.
    A,
    /// Full evaluation datasets (the paper's configuration).
    B,
}

// All sizes below are calibrated against the *scaled* machine park
// (`Arch::park_scaled()`, capacities divided by `PARK_SCALE = 8`):
// Nehalem L1 4 KB / L2 32 KB / L3 1.5 MB; Atom L2 64 KB; Core 2 L2 384 KB;
// Sandy Bridge L3 1 MB. Every fits-in/falls-out-of-cache relationship of
// the paper is preserved at this scale (see DESIGN.md).
impl Class {
    /// The class's name on the command line and in queries: the one
    /// class-name table the CLI, the daemon and the experiment binaries
    /// share.
    pub fn name(self) -> &'static str {
        match self {
            Class::Test => "test",
            Class::A => "a",
            Class::B => "b",
        }
    }

    /// The class whose [`Class::name`] is exactly `name`.
    pub fn from_name(name: &str) -> Option<Class> {
        [Class::Test, Class::A, Class::B]
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// A small vector length (16 KB: L2-resident on every machine).
    pub fn small_vec(self) -> u64 {
        match self {
            Class::Test => 2_048,
            Class::A => 2_048,
            Class::B => 2_048,
        }
    }

    /// A medium vector length (L2/L3-resident).
    pub fn med_vec(self) -> u64 {
        match self {
            Class::Test => 4_096,
            Class::A => 4_096,
            Class::B => 4_096,
        }
    }

    /// A large vector length (last-level-cache / DRAM working sets).
    pub fn big_vec(self) -> u64 {
        match self {
            Class::Test => 32_768,
            Class::A => 32_768,
            Class::B => 32_768,
        }
    }

    /// Side of a small square matrix.
    pub fn mat_side(self) -> u64 {
        match self {
            Class::Test => 48,
            Class::A => 48,
            Class::B => 48,
        }
    }

    /// Side of a large square matrix (class B: 512² × 8 B = 2 MB/plane).
    pub fn big_mat_side(self) -> u64 {
        match self {
            Class::Test => 96,
            Class::A => 96,
            Class::B => 96,
        }
    }

    /// Number of outer rounds (time steps) for NAS-like schedules.
    pub fn rounds(self) -> u64 {
        match self {
            Class::Test => 2,
            Class::A => 6,
            Class::B => 12,
        }
    }

    /// Side of a solver plane for the BT/SP stencils: the two-plane
    /// working set is ~495 KB on the scaled park — inside Nehalem's
    /// 1.5 MB L3 and Sandy Bridge's 1 MB, outside Core 2's 384 KB L2.
    /// This is the asymmetry behind the paper's cluster-B case study
    /// (memory-bound codelets slower on Core 2 despite its faster clock).
    pub fn plane_side(self) -> u64 {
        match self {
            Class::Test => 176,
            Class::A => 176,
            Class::B => 176,
        }
    }

    /// Side of the triple-nested compute cubes (LU `erhs`, FT `appft`).
    pub fn cube_side(self) -> u64 {
        match self {
            Class::Test => 24,
            Class::A => 24,
            Class::B => 24,
        }
    }

    /// Length of CG's randomly-indexed vector `p`: 48 KB on the scaled
    /// park — larger than Nehalem's (scaled) 32 KB L2, so reference runs
    /// serve `p` from L3 both in-app and standalone (well-behaved), but
    /// smaller than Atom's 64 KB L2, so the standalone microbenchmark
    /// stays warm while in-app invocations are evicted by CG's vector
    /// updates: the paper's CG-on-Atom anomaly.
    pub fn cg_span(self) -> u64 {
        match self {
            Class::Test => 6_000,
            Class::A | Class::B => 6_000,
        }
    }

    /// CG sparse-row stream length (iterations per matvec invocation).
    pub fn cg_rows(self) -> u64 {
        match self {
            Class::Test => 1_024,
            Class::A | Class::B => 1_024,
        }
    }

    /// CG long-vector length: the three shared iteration vectors stream
    /// 192 KB per round — enough to flush Atom's 64 KB L2 between matvec
    /// invocations, small enough (with `p`) to stay inside Core 2's
    /// 384 KB L2 and the reference L3.
    pub fn cg_vec(self) -> u64 {
        match self {
            Class::Test => 8_192,
            Class::A | Class::B => 8_192,
        }
    }

    /// Finest MG grid side; coarser levels halve it.
    pub fn mg_side(self) -> u64 {
        match self {
            Class::Test => 96,
            Class::A => 96,
            Class::B => 96,
        }
    }

    /// IS bucket-table length (32-bit keys).
    pub fn is_buckets(self) -> u64 {
        match self {
            Class::Test => 16_384,
            Class::A => 16_384,
            Class::B => 16_384,
        }
    }

    /// Multiplier on the consecutive-invocation bursts of NAS schedule
    /// entries. Long bursts matter twice: they amortise the cold start so
    /// in-app means match the standalone median (well-behavedness), and
    /// they are what the invocation-reduction factor of Table 5 harvests.
    pub fn repeat_scale(self) -> u64 {
        match self {
            Class::Test => 1,
            Class::A => 2,
            Class::B => 2,
        }
    }
}

/// A bump allocator over one application's virtual address space: every
/// binding built through the same `Alloc` occupies disjoint addresses, so
/// codelets contend in the shared caches exactly as the original program's
/// data would.
#[derive(Debug, Clone)]
pub struct Alloc {
    cursor: u64,
}

impl Alloc {
    /// Start a fresh address space.
    pub fn new() -> Alloc {
        // Leave page zero unused.
        Alloc { cursor: 1 << 12 }
    }

    /// Build a binding for `codelet`: `arrays` is a list of
    /// `(len_elements, lda)` pairs in declaration order, `params` the trip
    /// parameters.
    pub fn bind(&mut self, codelet: &Codelet, arrays: &[(u64, i64)], params: &[u64]) -> Binding {
        let mut bb = BindingBuilder::new(self.cursor);
        for (i, &(len, lda)) in arrays.iter().enumerate() {
            let elem = codelet.arrays[i].elem.bytes();
            bb = bb.matrix(len, elem, lda);
        }
        for &p in params {
            bb = bb.param(p);
        }
        self.cursor = bb.cursor();
        bb.build_for(codelet)
    }

    /// Build a binding for a codelet whose arrays are all 1-D vectors of
    /// the same length.
    pub fn bind_vecs(&mut self, codelet: &Codelet, len: u64, params: &[u64]) -> Binding {
        let arrays: Vec<(u64, i64)> = codelet
            .arrays
            .iter()
            .map(|_| (len, len as i64))
            .collect();
        self.bind(codelet, &arrays, params)
    }

    /// Current cursor (next free address).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Reserve a region for a *shared* array (returns its base address).
    /// Real solvers reuse the same state vectors across many loops;
    /// binding several codelets to one region reproduces both the smaller
    /// application footprint and the producer/consumer cache reuse.
    pub fn reserve(&mut self, len: u64, elem_bytes: u64) -> u64 {
        let base = self.cursor;
        let bytes = len * elem_bytes;
        self.cursor += bytes.div_ceil(fgbs_isa::ELEM_ALIGN) * fgbs_isa::ELEM_ALIGN;
        base
    }

    /// Bind a codelet to explicit (possibly shared) regions:
    /// `(base, len, lda)` per array, declaration order.
    pub fn bind_shared(
        &self,
        codelet: &Codelet,
        arrays: &[(u64, u64, i64)],
        params: &[u64],
    ) -> Binding {
        assert_eq!(arrays.len(), codelet.arrays.len(), "array count mismatch");
        assert_eq!(params.len(), codelet.n_params, "param count mismatch");
        Binding {
            arrays: arrays
                .iter()
                .map(|&(base, len, lda)| fgbs_isa::ArrayBinding { base, lda, len })
                .collect(),
            params: params.to_vec(),
            seed: 0,
        }
    }
}

impl Default for Alloc {
    fn default() -> Self {
        Alloc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_isa::{CodeletBuilder, Precision};

    #[test]
    fn classes_scale_duration_not_shapes() {
        // Cache-behaviour-critical sizes are class-independent; classes
        // scale workload duration (rounds, bursts) only.
        assert_eq!(Class::Test.plane_side(), Class::B.plane_side());
        assert_eq!(Class::Test.cg_span(), Class::B.cg_span());
        assert!(Class::Test.rounds() < Class::A.rounds());
        assert!(Class::A.rounds() < Class::B.rounds());
        assert!(Class::Test.repeat_scale() <= Class::B.repeat_scale());
    }

    #[test]
    fn class_names_round_trip_exactly() {
        for c in [Class::Test, Class::A, Class::B] {
            assert_eq!(Class::from_name(c.name()), Some(c));
        }
        assert_eq!(Class::from_name("TEST"), None, "callers lower-case first");
        assert_eq!(Class::from_name("c"), None);
    }

    #[test]
    fn capacity_relationships_hold_on_scaled_park() {
        use fgbs_machine::Arch;
        let park = Arch::park_scaled();
        let (nhm, atom, c2, sb) = (&park[0], &park[1], &park[2], &park[3]);
        let l2 = |a: &Arch| a.caches[1].size;
        let llc = |a: &Arch| a.caches.last().unwrap().size;

        // Cluster-B stencil: fits Nehalem + Sandy Bridge LLC, not Core 2.
        let stencil_ws = 2 * Class::B.plane_side().pow(2) * 8;
        assert!(stencil_ws < llc(nhm));
        assert!(stencil_ws < llc(sb));
        assert!(stencil_ws > llc(c2));
        assert!(stencil_ws > llc(atom));

        // CG's p: above Nehalem L2, below Atom L2.
        let p_ws = Class::B.cg_span() * 8;
        assert!(p_ws > l2(nhm));
        assert!(p_ws < l2(atom));
        // And the CG vector phase evicts Atom's L2 but fits Core 2's.
        let evictors = 3 * Class::B.cg_vec() * 8 + p_ws;
        assert!(evictors > l2(atom));
        assert!(evictors < l2(c2));
    }

    #[test]
    fn alloc_is_disjoint() {
        let c = CodeletBuilder::new("k", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]))
            .build();
        let mut a = Alloc::new();
        let b1 = a.bind_vecs(&c, 100, &[100]);
        let b2 = a.bind_vecs(&c, 100, &[100]);
        // Second binding is entirely above the first.
        let top1 = b1.arrays[1].base + 100 * 8;
        assert!(b2.arrays[0].base >= top1);
        assert!(a.cursor() > b2.arrays[1].base);
    }

    #[test]
    fn bind_respects_lda() {
        let c = CodeletBuilder::new("m", "t")
            .array("a", Precision::F32)
            .param_loop("n")
            .store("a", &[1], |b| b.constant(0.0))
            .build();
        let mut al = Alloc::new();
        let b = al.bind(&c, &[(64 * 64, 64)], &[64]);
        assert_eq!(b.arrays[0].lda, 64);
        assert_eq!(b.arrays[0].len, 4096);
    }
}
