//! Elementary value types shared by the whole IR.

/// Numeric precision of an array element or an operation.
///
/// The paper's Table 3 distinguishes single precision (SP), double precision
/// (DP) and mixed precision (MP) kernels; integer kernels appear in the NAS
/// IS benchmark. Precision drives both the vector width (how many lanes fit
/// in a vector register) and the instruction classification used by the
/// static analyzer (e.g. the "number of SD instructions" feature counts
/// scalar-double instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// 32-bit IEEE-754 float (SP).
    F32,
    /// 64-bit IEEE-754 float (DP).
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
}

impl Precision {
    /// Size of one element in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Precision::F32 | Precision::I32 => 4,
            Precision::F64 | Precision::I64 => 8,
        }
    }

    /// Size of one element in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        (self.bytes() * 8) as u32
    }

    /// True for `F32`/`F64`.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Precision::F32 | Precision::F64)
    }

    /// The precision resulting from combining two operands, following the
    /// usual promotion rules (`F64 > F32 > I64 > I32`).
    #[inline]
    pub fn promote(self, other: Precision) -> Precision {
        use Precision::*;
        match (self, other) {
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) => F32,
            (I64, _) | (_, I64) => I64,
            _ => I32,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
            Precision::I32 => "i32",
            Precision::I64 => "i64",
        };
        f.write_str(s)
    }
}

/// Identifier of a scalar accumulator within a codelet body.
///
/// Accumulators model scalar variables that live across loop iterations:
/// reduction sums, recurrence carriers, and the like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccId(pub usize);

impl std::fmt::Display for AccId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "acc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::I32.bytes(), 4);
        assert_eq!(Precision::I64.bytes(), 8);
        assert_eq!(Precision::F64.bits(), 64);
    }

    #[test]
    fn precision_promotion() {
        use Precision::*;
        assert_eq!(F32.promote(F64), F64);
        assert_eq!(I32.promote(F32), F32);
        assert_eq!(I32.promote(I64), I64);
        assert_eq!(I32.promote(I32), I32);
        assert_eq!(F64.promote(I32), F64);
    }

    #[test]
    fn precision_is_float() {
        assert!(Precision::F32.is_float());
        assert!(Precision::F64.is_float());
        assert!(!Precision::I32.is_float());
        assert!(!Precision::I64.is_float());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Precision::F64.to_string(), "f64");
        assert_eq!(AccId(3).to_string(), "acc3");
    }
}
