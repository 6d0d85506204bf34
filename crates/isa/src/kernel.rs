//! The compiled form of a codelet: weighted virtual instructions plus a
//! memory-access recipe. This is the analogue of the binary innermost loop
//! that MAQAO disassembles and that the hardware executes.

use crate::access::AccessIndex;
use crate::codelet::ArrayId;
use crate::nest::Trip;
use crate::types::Precision;

/// Virtual opcodes. The set is deliberately small: it is the vocabulary the
/// port/latency model of `fgbs-machine` and the static analyzer of
/// `fgbs-analysis` both speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOp {
    /// FP add/subtract (ADD unit).
    FAdd,
    /// FP subtract — same unit as [`VOp::FAdd`], tracked separately for the
    /// ADD+SUB/MUL feature ratio.
    FSub,
    /// FP multiply.
    FMul,
    /// FP divide (unpipelined divider).
    FDiv,
    /// FP square root (shares the divider).
    FSqrt,
    /// Transcendental call (`exp`, `log`, ...) — always scalar.
    FCall,
    /// FP max/min (ADD unit).
    FMax,
    /// Cheap FP logic (abs/neg: sign-bit manipulation).
    FLogic,
    /// Horizontal reduction combine (vector epilogue).
    HReduce,
    /// Vector lane shuffle/permute (reverse loads, etc.).
    Shuffle,
    /// Integer ALU op.
    IAdd,
    /// Integer multiply.
    IMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (loop back-edge).
    Branch,
}

impl VOp {
    /// Is this a floating-point arithmetic operation (counted as a FLOP)?
    #[inline]
    pub fn is_flop(self) -> bool {
        matches!(
            self,
            VOp::FAdd | VOp::FSub | VOp::FMul | VOp::FDiv | VOp::FSqrt | VOp::FCall | VOp::FMax
        )
    }

    /// Is this a memory operation?
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, VOp::Load | VOp::Store)
    }
}

/// One virtual instruction with an execution weight.
///
/// `weight` is the number of times the instruction executes per *element*
/// iteration of the innermost loop: 1.0 for scalar instructions, `1/lanes`
/// for vector instructions (one vector instruction covers `lanes` elements),
/// and 0.0 for loop-invariant instructions hoisted out of the innermost
/// loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedInst {
    /// Opcode.
    pub op: VOp,
    /// Operand precision.
    pub prec: Precision,
    /// Vector lanes (1 = scalar).
    pub lanes: u8,
    /// Executions per element iteration.
    pub weight: f64,
}

/// One memory access of the compiled body, ready to be replayed by the
/// machine executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAccess {
    /// Array accessed.
    pub array: ArrayId,
    /// Index recipe (affine strides or random).
    pub index: AccessIndex,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Loop-invariant along the innermost dimension: touched once per
    /// innermost-loop entry instead of once per iteration.
    pub invariant: bool,
}

/// A codelet compiled for a concrete vector target.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Qualified codelet name.
    pub name: String,
    /// Weighted instruction mix per element iteration.
    pub insts: Vec<WeightedInst>,
    /// Memory accesses per element iteration.
    pub accesses: Vec<CompiledAccess>,
    /// Loop-nest depth.
    pub ndims: usize,
    /// Trip-count recipe per dimension (outermost first), copied from the
    /// codelet so the executor can walk the iteration space.
    pub dims: Vec<Trip>,
    /// Operations on the loop-carried dependence chain (empty when the loop
    /// is fully parallel). The machine turns this into a latency bound.
    pub carried_chain: Vec<(VOp, Precision)>,
    /// Number of statements that were vectorized / total statements.
    pub vectorized_stmts: (usize, usize),
}

impl CompiledKernel {
    /// Floating-point operations per element iteration (weighted, counting
    /// each vector instruction as `lanes` FLOPs — i.e. element FLOPs).
    pub fn flops_per_iter(&self) -> f64 {
        self.insts
            .iter()
            .filter(|i| i.op.is_flop())
            .map(|i| i.weight * i.lanes as f64)
            .sum()
    }

    /// Weighted instruction count per element iteration (what the front-end
    /// must issue).
    pub fn insts_per_iter(&self) -> f64 {
        self.insts.iter().map(|i| i.weight).sum()
    }

    /// Fraction of FP element-operations executed by vector instructions.
    /// This is MAQAO's "vectorization ratio" for the whole loop.
    pub fn vector_ratio_fp(&self) -> f64 {
        let (mut vec, mut tot) = (0.0, 0.0);
        for i in &self.insts {
            if i.op.is_flop() {
                let elems = i.weight * i.lanes as f64;
                tot += elems;
                if i.lanes > 1 {
                    vec += elems;
                }
            }
        }
        if tot == 0.0 {
            0.0
        } else {
            vec / tot
        }
    }

    /// Vectorization ratio restricted to a class of opcodes.
    pub fn vector_ratio_of(&self, classes: &[VOp]) -> f64 {
        let (mut vec, mut tot) = (0.0, 0.0);
        for i in &self.insts {
            if classes.contains(&i.op) {
                let elems = i.weight * i.lanes as f64;
                tot += elems;
                if i.lanes > 1 {
                    vec += elems;
                }
            }
        }
        if tot == 0.0 {
            0.0
        } else {
            vec / tot
        }
    }

    /// Weighted count of instructions with a given opcode.
    pub fn count_op(&self, op: VOp) -> f64 {
        self.insts
            .iter()
            .filter(|i| i.op == op)
            .map(|i| i.weight)
            .sum()
    }

    /// Weighted count of *scalar double* (SD) instructions — scalar FP
    /// arithmetic on F64, one of the paper's Table 2 features.
    pub fn count_sd(&self) -> f64 {
        self.insts
            .iter()
            .filter(|i| i.op.is_flop() && i.lanes == 1 && i.prec == Precision::F64)
            .map(|i| i.weight)
            .sum()
    }

    /// Bytes loaded per element iteration (weighted; invariant accesses do
    /// not count).
    pub fn bytes_loaded_per_iter(&self) -> f64 {
        self.accesses
            .iter()
            .filter(|a| !a.is_store && !a.invariant)
            .map(|a| a.elem_bytes as f64)
            .sum()
    }

    /// Bytes stored per element iteration.
    pub fn bytes_stored_per_iter(&self) -> f64 {
        self.accesses
            .iter()
            .filter(|a| a.is_store && !a.invariant)
            .map(|a| a.elem_bytes as f64)
            .sum()
    }

    /// True when the loop has a carried dependence chain.
    pub fn has_recurrence(&self) -> bool {
        !self.carried_chain.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(op: VOp, lanes: u8, weight: f64) -> WeightedInst {
        WeightedInst {
            op,
            prec: Precision::F64,
            lanes,
            weight,
        }
    }

    fn kernel(insts: Vec<WeightedInst>) -> CompiledKernel {
        CompiledKernel {
            name: "t".into(),
            insts,
            accesses: vec![],
            ndims: 1,
            dims: vec![Trip::Fixed(1)],
            carried_chain: vec![],
            vectorized_stmts: (0, 1),
        }
    }

    #[test]
    fn flop_classification() {
        assert!(VOp::FAdd.is_flop());
        assert!(VOp::FDiv.is_flop());
        assert!(!VOp::Load.is_flop());
        assert!(!VOp::IAdd.is_flop());
        assert!(VOp::Load.is_memory());
        assert!(!VOp::FMul.is_memory());
    }

    #[test]
    fn vector_ratio_mixed() {
        // One vector mul (2 lanes, weight .5 => 1 elem-op) and one scalar add
        // (1 elem-op): ratio 0.5.
        let k = kernel(vec![inst(VOp::FMul, 2, 0.5), inst(VOp::FAdd, 1, 1.0)]);
        assert!((k.vector_ratio_fp() - 0.5).abs() < 1e-12);
        assert!((k.flops_per_iter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vector_ratio_empty_class_is_zero() {
        let k = kernel(vec![inst(VOp::FAdd, 1, 1.0)]);
        assert_eq!(k.vector_ratio_of(&[VOp::FDiv]), 0.0);
    }

    #[test]
    fn sd_counts_scalar_double_only() {
        let mut k = kernel(vec![inst(VOp::FAdd, 1, 1.0), inst(VOp::FMul, 2, 0.5)]);
        k.insts.push(WeightedInst {
            op: VOp::FAdd,
            prec: Precision::F32,
            lanes: 1,
            weight: 1.0,
        });
        assert!((k.count_sd() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn byte_accounting_skips_invariant() {
        let k = CompiledKernel {
            name: "t".into(),
            insts: vec![],
            accesses: vec![
                CompiledAccess {
                    array: ArrayId(0),
                    index: AccessIndex::unit(&[1]),
                    is_store: false,
                    elem_bytes: 8,
                    invariant: false,
                },
                CompiledAccess {
                    array: ArrayId(1),
                    index: AccessIndex::unit(&[0]),
                    is_store: false,
                    elem_bytes: 8,
                    invariant: true,
                },
                CompiledAccess {
                    array: ArrayId(2),
                    index: AccessIndex::unit(&[1]),
                    is_store: true,
                    elem_bytes: 4,
                    invariant: false,
                },
            ],
            ndims: 1,
            dims: vec![Trip::Fixed(1)],
            carried_chain: vec![],
            vectorized_stmts: (1, 1),
        };
        assert_eq!(k.bytes_loaded_per_iter(), 8.0);
        assert_eq!(k.bytes_stored_per_iter(), 4.0);
    }
}
