//! Bindings: the runtime context of one codelet invocation.
//!
//! A codelet's arrays have no extents and its loops may have parametric trip
//! counts; a [`Binding`] supplies both, plus concrete (virtual) base
//! addresses. Different invocations of the same codelet inside an
//! application may use different bindings — the paper's first source of
//! ill-behaved codelets, since the Codelet Finder captures only the first
//! invocation's memory.

use crate::codelet::Codelet;
use crate::nest::Trip;

/// Alignment (bytes) of every array allocation — one cache line.
pub const ELEM_ALIGN: u64 = 64;

/// Placement and shape of one array operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayBinding {
    /// Base virtual byte address.
    pub base: u64,
    /// Leading dimension in elements (for `LDA` stride expressions).
    pub lda: i64,
    /// Total length in elements.
    pub len: u64,
}

/// The full runtime context of an invocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binding {
    /// Array placements, indexed by [`crate::ArrayId`].
    pub arrays: Vec<ArrayBinding>,
    /// Values of the codelet's trip-count parameters.
    pub params: Vec<u64>,
    /// Seed for data-dependent (random) access streams; two invocations with
    /// the same seed touch the same addresses.
    pub seed: u64,
}

impl Binding {
    /// Resolve the trip count of loop dimension `d` (outermost = 0).
    ///
    /// Triangular dimensions depend on the enclosing index and are resolved
    /// by the walker; this returns their *maximum* trip (the enclosing trip).
    pub fn trip(&self, codelet: &Codelet, d: usize) -> u64 {
        match codelet.nest.dims[d].trip {
            Trip::Fixed(n) => n,
            Trip::Param(p) => self.params[p],
            Trip::Triangular => self.trip(codelet, d - 1),
        }
    }

    /// Exact number of innermost-body executions for this binding.
    ///
    /// # Panics
    ///
    /// Panics on two directly nested triangular loops (not used by any
    /// shipped suite and not supported by the analytic formula).
    pub fn iterations(&self, codelet: &Codelet) -> u64 {
        let dims = &codelet.nest.dims;
        let mut total: u64 = 1;
        let mut d = 0;
        while d < dims.len() {
            match dims[d].trip {
                Trip::Fixed(_) | Trip::Param(_) => {
                    let n = self.trip(codelet, d);
                    // A triangular loop immediately below consumes this
                    // dimension analytically: sum_{i=0}^{n-1} (i+1).
                    if d + 1 < dims.len() && matches!(dims[d + 1].trip, Trip::Triangular) {
                        assert!(
                            d + 2 >= dims.len()
                                || !matches!(dims[d + 2].trip, Trip::Triangular),
                            "nested triangular loops are not supported"
                        );
                        total = total.saturating_mul(n.saturating_mul(n + 1) / 2);
                        d += 2;
                    } else {
                        total = total.saturating_mul(n);
                        d += 1;
                    }
                }
                Trip::Triangular => {
                    unreachable!("triangular loop handled with its parent");
                }
            }
        }
        total
    }

    /// Total bytes of all bound arrays (the working set upper bound).
    pub fn footprint_bytes(&self, codelet: &Codelet) -> u64 {
        self.arrays
            .iter()
            .zip(&codelet.arrays)
            .map(|(b, d)| b.len * d.elem.bytes())
            .sum()
    }
}

/// Builds a [`Binding`] by laying arrays out sequentially in a virtual
/// address space.
#[derive(Debug, Clone)]
pub struct BindingBuilder {
    cursor: u64,
    arrays: Vec<ArrayBinding>,
    params: Vec<u64>,
    seed: u64,
}

impl BindingBuilder {
    /// Start allocating at byte address `base`.
    pub fn new(base: u64) -> Self {
        BindingBuilder {
            cursor: base,
            arrays: Vec::new(),
            params: Vec::new(),
            seed: 0,
        }
    }

    /// Allocate a 1-D array of `len` elements of `elem_bytes` each.
    pub fn vector(self, len: u64, elem_bytes: u64) -> Self {
        self.matrix(len, elem_bytes, len as i64)
    }

    /// Allocate an array of `len` elements with an explicit leading
    /// dimension (row length) `lda`.
    pub fn matrix(mut self, len: u64, elem_bytes: u64, lda: i64) -> Self {
        let bytes = len * elem_bytes;
        self.arrays.push(ArrayBinding {
            base: self.cursor,
            lda,
            len,
        });
        self.cursor += bytes.div_ceil(ELEM_ALIGN) * ELEM_ALIGN;
        self
    }

    /// Bind the next trip-count parameter.
    pub fn param(mut self, n: u64) -> Self {
        self.params.push(n);
        self
    }

    /// Set the random-access seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finish, validating the binding against `codelet`.
    ///
    /// # Panics
    ///
    /// Panics if the number of arrays or parameters does not match the
    /// codelet's declarations.
    pub fn build_for(self, codelet: &Codelet) -> Binding {
        assert_eq!(
            self.arrays.len(),
            codelet.arrays.len(),
            "codelet `{}` declares {} arrays, binding provides {}",
            codelet.name,
            codelet.arrays.len(),
            self.arrays.len()
        );
        assert_eq!(
            self.params.len(),
            codelet.n_params,
            "codelet `{}` takes {} params, binding provides {}",
            codelet.name,
            codelet.n_params,
            self.params.len()
        );
        Binding {
            arrays: self.arrays,
            params: self.params,
            seed: self.seed,
        }
    }

    /// Address of the next allocation (for chaining allocators).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeletBuilder;
    use crate::expr::BinOp;
    use crate::types::Precision;

    fn tri_codelet() -> Codelet {
        CodeletBuilder::new("tri", "t")
            .array("a", Precision::F64)
            .param_loop("n")
            .tri_loop()
            .update_acc("s", BinOp::Add, |b| b.load("a", &[0, 1]))
            .build()
    }

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let c = CodeletBuilder::new("k", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F32)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]))
            .build();
        let b = BindingBuilder::new(0x1000)
            .vector(100, 8)
            .vector(100, 4)
            .param(100)
            .build_for(&c);
        assert_eq!(b.arrays[0].base % ELEM_ALIGN, 0);
        assert!(b.arrays[1].base >= b.arrays[0].base + 800);
        assert_eq!(b.arrays[1].base % ELEM_ALIGN, 0);
        assert_eq!(b.footprint_bytes(&c), 100 * 8 + 100 * 4);
    }

    #[test]
    fn iteration_count_rectangular() {
        let c = CodeletBuilder::new("k", "t")
            .array("x", Precision::F64)
            .fixed_loop(10)
            .param_loop("n")
            .store("x", &[0, 1], |b| b.constant(0.0))
            .build();
        let b = BindingBuilder::new(0)
            .vector(64, 8)
            .param(7)
            .build_for(&c);
        assert_eq!(b.iterations(&c), 70);
    }

    #[test]
    fn iteration_count_triangular() {
        let c = tri_codelet();
        let b = BindingBuilder::new(0).vector(64, 8).param(8).build_for(&c);
        // sum_{i=0}^{7} (i+1) = 36
        assert_eq!(b.iterations(&c), 36);
        assert_eq!(b.trip(&c, 1), 8); // triangular max trip = parent trip
    }

    #[test]
    #[should_panic(expected = "declares 1 arrays")]
    fn wrong_array_count_panics() {
        let c = tri_codelet();
        let _ = BindingBuilder::new(0).param(8).build_for(&c);
    }

    #[test]
    #[should_panic(expected = "takes 1 params")]
    fn wrong_param_count_panics() {
        let c = tri_codelet();
        let _ = BindingBuilder::new(0).vector(64, 8).build_for(&c);
    }
}
