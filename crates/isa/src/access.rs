//! Memory-access patterns: affine strides, leading-dimension strides and
//! pseudo-random (data-dependent) indices.

use crate::codelet::ArrayId;

/// A small affine expression `consts + lda * LDA`, where `LDA` is the leading
/// dimension of the accessed array (bound at execution time).
///
/// This is exactly the vocabulary of the *Stride* column of the paper's
/// Table 3: strides `0`, `1`, `-1`, `2`, `LDA`, `LDA + 1`, and stencil
/// neighbour offsets such as `±1` and `±LDA`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// Constant term, in elements.
    pub consts: i64,
    /// Multiplier of the array's leading dimension.
    pub lda: i64,
}

impl AffineExpr {
    /// A pure constant expression.
    #[inline]
    pub const fn lit(consts: i64) -> Self {
        AffineExpr { consts, lda: 0 }
    }

    /// `k * LDA`.
    #[inline]
    pub const fn lda(k: i64) -> Self {
        AffineExpr { consts: 0, lda: k }
    }

    /// `consts + k * LDA`.
    #[inline]
    pub const fn new(consts: i64, lda: i64) -> Self {
        AffineExpr { consts, lda }
    }

    /// Zero expression.
    #[inline]
    pub const fn zero() -> Self {
        AffineExpr::lit(0)
    }

    /// Evaluate against a concrete leading dimension.
    #[inline]
    pub fn eval(&self, lda: i64) -> i64 {
        self.consts + self.lda * lda
    }

    /// True if the expression is identically zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.consts == 0 && self.lda == 0
    }
}

impl std::fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.consts, self.lda) {
            (c, 0) => write!(f, "{c}"),
            (0, 1) => write!(f, "LDA"),
            (0, l) => write!(f, "{l}*LDA"),
            (c, 1) => write!(f, "LDA{c:+}"),
            (c, l) => write!(f, "{l}*LDA{c:+}"),
        }
    }
}

/// How the element index of an access is produced.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AccessIndex {
    /// Affine index: `offset + Σ_d idx_d * stride_d` where `d` ranges over
    /// the loop dimensions, outermost first.
    Affine {
        /// Per-loop-dimension strides (outermost first); missing trailing
        /// dimensions behave as stride 0.
        strides: Vec<AffineExpr>,
        /// Constant offset added to the index.
        offset: AffineExpr,
    },
    /// Data-dependent pseudo-random index within `span` elements, as produced
    /// by e.g. the histogram scatter of an integer sort. The executor draws
    /// indices from a deterministic per-access LCG so runs are reproducible.
    Random {
        /// Number of elements the random index ranges over.
        span: u64,
    },
}

impl AccessIndex {
    /// Affine access with literal (constant) strides and zero offset.
    pub fn unit(strides: &[i64]) -> Self {
        AccessIndex::Affine {
            strides: strides.iter().map(|&s| AffineExpr::lit(s)).collect(),
            offset: AffineExpr::zero(),
        }
    }

    /// The innermost-dimension stride if the access is affine.
    pub fn innermost_stride(&self, ndims: usize) -> Option<AffineExpr> {
        match self {
            AccessIndex::Affine { strides, .. } => Some(
                strides
                    .get(ndims.saturating_sub(1))
                    .copied()
                    .unwrap_or_else(AffineExpr::zero),
            ),
            AccessIndex::Random { .. } => None,
        }
    }
}

/// One memory access inside a codelet body: an array plus an index recipe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Array being accessed.
    pub array: ArrayId,
    /// Index recipe.
    pub index: AccessIndex,
}

impl Access {
    /// Affine access with literal strides (outermost first) and zero offset.
    pub fn affine(array: ArrayId, strides: &[i64]) -> Self {
        Access {
            array,
            index: AccessIndex::unit(strides),
        }
    }

    /// Affine access with full stride/offset expressions.
    pub fn affine_expr(array: ArrayId, strides: Vec<AffineExpr>, offset: AffineExpr) -> Self {
        Access {
            array,
            index: AccessIndex::Affine { strides, offset },
        }
    }

    /// Random access over `span` elements.
    pub fn random(array: ArrayId, span: u64) -> Self {
        Access {
            array,
            index: AccessIndex::Random { span },
        }
    }

    /// Innermost stride, if affine.
    pub fn innermost_stride(&self, ndims: usize) -> Option<AffineExpr> {
        self.index.innermost_stride(ndims)
    }

    /// True when every stride and the offset are compile-time constants
    /// (no `LDA` component, not random).
    pub fn is_constant_affine(&self) -> bool {
        match &self.index {
            AccessIndex::Affine { strides, offset } => {
                offset.lda == 0 && strides.iter().all(|s| s.lda == 0)
            }
            AccessIndex::Random { .. } => false,
        }
    }

    /// A short classification string matching the paper's stride column
    /// (`0`, `1`, `-1`, `LDA`, `LDA+1`, `rand`, ...), based on the innermost
    /// loop dimension.
    pub fn stride_class(&self, ndims: usize) -> String {
        match &self.index {
            AccessIndex::Random { .. } => "rand".to_string(),
            AccessIndex::Affine { .. } => {
                let s = self
                    .innermost_stride(ndims)
                    .expect("affine access has a stride");
                s.to_string()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_eval() {
        let e = AffineExpr::new(1, 1); // LDA + 1 (diagonal walk)
        assert_eq!(e.eval(100), 101);
        assert_eq!(AffineExpr::lit(-1).eval(7), -1);
        assert_eq!(AffineExpr::lda(2).eval(50), 100);
        assert!(AffineExpr::zero().is_zero());
        assert!(!e.is_zero());
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(AffineExpr::lit(1).to_string(), "1");
        assert_eq!(AffineExpr::lit(-1).to_string(), "-1");
        assert_eq!(AffineExpr::lda(1).to_string(), "LDA");
        assert_eq!(AffineExpr::new(1, 1).to_string(), "LDA+1");
        assert_eq!(AffineExpr::lda(2).to_string(), "2*LDA");
    }

    #[test]
    fn innermost_stride_defaults_to_zero() {
        // Access varying only along the outer dimension of a 2-deep nest.
        let a = Access::affine(ArrayId(0), &[1]);
        assert_eq!(a.innermost_stride(2), Some(AffineExpr::zero()));
        assert_eq!(a.innermost_stride(1), Some(AffineExpr::lit(1)));
    }

    #[test]
    fn random_access_has_no_stride() {
        let a = Access::random(ArrayId(0), 1024);
        assert_eq!(a.innermost_stride(1), None);
        assert_eq!(a.stride_class(1), "rand");
        assert!(!a.is_constant_affine());
    }

    #[test]
    fn stride_class_strings() {
        let a = Access::affine(ArrayId(0), &[0, 1]);
        assert_eq!(a.stride_class(2), "1");
        let d = Access::affine_expr(ArrayId(1), vec![AffineExpr::new(1, 1)], AffineExpr::zero());
        assert_eq!(d.stride_class(1), "LDA+1");
    }

    #[test]
    fn constant_affine_detection() {
        assert!(Access::affine(ArrayId(0), &[1, -1]).is_constant_affine());
        let lda = Access::affine_expr(ArrayId(0), vec![AffineExpr::lda(1)], AffineExpr::zero());
        assert!(!lda.is_constant_affine());
    }
}
