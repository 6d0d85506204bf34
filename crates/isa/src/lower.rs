//! Compiler lowering: codelet IR → [`CompiledKernel`].
//!
//! The lowering models the decisions the Intel compiler makes on the
//! paper's kernels at `-O3`: per-statement vectorization gated by dependence
//! analysis, access strides, operation legality (no vector transcendentals)
//! and — crucially for the benchmark-reduction study — *compilation
//! context*: a [`Fragility`]-flagged codelet compiles differently inside its
//! application than as an extracted standalone microbenchmark.

use crate::access::AccessIndex;
use crate::codelet::{Codelet, Fragility};
use crate::deps::stmt_has_carried_dependence;
use crate::expr::{BinOp, Expr, OpKind, UnOp};
use crate::kernel::{CompiledAccess, CompiledKernel, VOp, WeightedInst};
use crate::nest::Stmt;
use crate::types::Precision;

/// Vector capabilities of a compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetSpec {
    /// Vector register width in bits (128 = SSE).
    pub vector_bits: u32,
    /// Master switch: false compiles everything scalar.
    pub allow_vector: bool,
}

impl TargetSpec {
    /// 128-bit SSE target (all four machines of Table 1 are SSE machines).
    pub const fn sse128() -> Self {
        TargetSpec {
            vector_bits: 128,
            allow_vector: true,
        }
    }

    /// Scalar-only target (baseline for vectorization ablations).
    pub const fn scalar() -> Self {
        TargetSpec {
            vector_bits: 64,
            allow_vector: false,
        }
    }

    /// Vector lanes available for a given element precision (1 = scalar).
    pub fn lanes(&self, prec: Precision) -> u8 {
        if !self.allow_vector {
            return 1;
        }
        let l = self.vector_bits / prec.bits();
        if l >= 2 {
            l.min(16) as u8
        } else {
            1
        }
    }
}

/// Where the compilation happens: inside the original application or in the
/// extracted standalone wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompileMode {
    /// Original application context.
    InApp,
    /// Extracted microbenchmark context.
    Standalone,
}

fn un_vop(op: UnOp) -> VOp {
    match op {
        UnOp::Neg | UnOp::Abs => VOp::FLogic,
        UnOp::Sqrt => VOp::FSqrt,
        UnOp::Exp => VOp::FCall,
        UnOp::Recip => VOp::FDiv,
    }
}

fn bin_vop(op: BinOp, prec: Precision) -> VOp {
    if prec.is_float() {
        match op {
            BinOp::Add => VOp::FAdd,
            BinOp::Sub => VOp::FSub,
            BinOp::Mul => VOp::FMul,
            BinOp::Div => VOp::FDiv,
            BinOp::Max | BinOp::Min => VOp::FMax,
        }
    } else {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Max | BinOp::Min => VOp::IAdd,
            BinOp::Mul | BinOp::Div => VOp::IMul,
        }
    }
}

fn expr_contains_call(e: &Expr) -> bool {
    let mut found = false;
    e.visit_ops(&mut |k| {
        if matches!(k, OpKind::Un(UnOp::Exp)) {
            found = true;
        }
    });
    found
}

/// Is this access vectorizable along the innermost dimension, and is it
/// loop-invariant there?
fn access_traits(index: &AccessIndex, ndims: usize) -> (bool, bool) {
    match index {
        AccessIndex::Random { .. } => (false, false),
        AccessIndex::Affine { .. } => {
            let s = index
                .innermost_stride(ndims)
                .expect("affine access has innermost stride");
            if s.is_zero() {
                (true, true) // invariant: hoistable, compatible with vector
            } else if s.lda == 0 && s.consts.abs() == 1 {
                (true, false) // contiguous (possibly reversed)
            } else {
                (false, false) // non-unit or LDA stride
            }
        }
    }
}

/// Can `stmt` be vectorized for `target` in `mode`?
fn stmt_vectorizable(
    stmt: &Stmt,
    codelet: &Codelet,
    target: &TargetSpec,
    mode: CompileMode,
    prec: Precision,
) -> bool {
    if target.lanes(prec) < 2 {
        return false;
    }
    match (codelet.fragility, mode) {
        (Fragility::ScalarWhenStandalone, CompileMode::Standalone) => return false,
        (Fragility::VectorWhenStandalone, CompileMode::InApp) => return false,
        _ => {}
    }
    if stmt_has_carried_dependence(stmt, codelet) {
        return false;
    }
    // A store (or overwrite) whose value reads an accumulator consumes a
    // scalar loop-carried chain: it cannot be vectorized even though the
    // chain lives in another statement (e.g. tridag_1's division by `bet`).
    if !matches!(stmt, Stmt::Update { .. }) && stmt.value().references_acc() {
        return false;
    }
    if expr_contains_call(stmt.value()) {
        return false;
    }
    let ndims = codelet.nest.depth();
    let mut loads = Vec::new();
    stmt.loads(&mut loads);
    if !loads
        .iter()
        .all(|a| access_traits(&a.index, ndims).0)
    {
        return false;
    }
    if let Some(st) = stmt.store_access() {
        let (ok, invariant) = access_traits(&st.index, ndims);
        // An invariant store is a register accumulation; vectorizing it
        // would need a horizontal combine — treat like a reduction, allowed.
        let _ = invariant;
        if !ok {
            return false;
        }
    }
    true
}

/// Compile a codelet for a vector target in a given compilation context.
///
/// The resulting [`CompiledKernel`] is consumed by the static analyzer
/// (MAQAO substitute) and by the machine executor (the "hardware").
pub fn compile(codelet: &Codelet, target: &TargetSpec, mode: CompileMode) -> CompiledKernel {
    let ndims = codelet.nest.depth();
    let mut insts: Vec<WeightedInst> = Vec::new();
    let mut accesses: Vec<CompiledAccess> = Vec::new();
    let mut carried_chain: Vec<(VOp, Precision)> = Vec::new();
    let mut n_vec = 0usize;
    let mut min_lanes_vectorized: u8 = u8::MAX;
    let mut any_scalar = false;

    for stmt in &codelet.nest.body {
        let prec = stmt.value().precision(codelet);
        let vectorized = stmt_vectorizable(stmt, codelet, target, mode, prec);
        let lanes = if vectorized { target.lanes(prec) } else { 1 };
        let w = 1.0 / lanes as f64;
        if vectorized {
            n_vec += 1;
            min_lanes_vectorized = min_lanes_vectorized.min(lanes);
        } else {
            any_scalar = true;
        }

        // Loads.
        let mut loads = Vec::new();
        stmt.loads(&mut loads);
        for a in loads {
            let elem_bytes = codelet.arrays[a.array.0].elem.bytes();
            let (_, invariant) = access_traits(&a.index, ndims);
            accesses.push(CompiledAccess {
                array: a.array,
                index: a.index.clone(),
                is_store: false,
                elem_bytes,
                invariant,
            });
            if !invariant {
                insts.push(WeightedInst {
                    op: VOp::Load,
                    prec,
                    lanes,
                    weight: w,
                });
                // Reversed vector loads need a lane shuffle.
                if vectorized {
                    if let Some(s) = a.index.innermost_stride(ndims) {
                        if s.lda == 0 && s.consts == -1 {
                            insts.push(WeightedInst {
                                op: VOp::Shuffle,
                                prec,
                                lanes,
                                weight: w,
                            });
                        }
                    }
                }
            }
        }

        // Arithmetic body.
        let mut stmt_ops: Vec<(VOp, Precision)> = Vec::new();
        stmt.value().visit_ops(&mut |k| {
            let vop = match k {
                OpKind::Un(u) => un_vop(u),
                OpKind::Bin(b) => bin_vop(b, prec),
            };
            stmt_ops.push((vop, prec));
        });
        // The combining operation of an accumulator update is an extra op.
        if let Stmt::Update { op, .. } = stmt {
            stmt_ops.push((bin_vop(*op, prec), prec));
        }
        for &(vop, p) in &stmt_ops {
            // Transcendental calls never vectorize even inside an otherwise
            // vectorized statement (we force the whole stmt scalar above, so
            // this only documents intent).
            insts.push(WeightedInst {
                op: vop,
                prec: p,
                lanes,
                weight: w,
            });
        }

        // Store.
        if let Some(st) = stmt.store_access() {
            let elem_bytes = codelet.arrays[st.array.0].elem.bytes();
            let (_, invariant) = access_traits(&st.index, ndims);
            accesses.push(CompiledAccess {
                array: st.array,
                index: st.index.clone(),
                is_store: true,
                elem_bytes,
                invariant,
            });
            if !invariant {
                insts.push(WeightedInst {
                    op: VOp::Store,
                    prec,
                    lanes,
                    weight: w,
                });
            }
        }

        // Record the longest carried dependence chain.
        if stmt_has_carried_dependence(stmt, codelet) && stmt_ops.len() > carried_chain.len() {
            carried_chain = stmt_ops;
        }
    }

    // Loop overhead: index update + back-edge branch, once per (vector)
    // iteration of the innermost loop.
    let ov_w = if any_scalar || n_vec == 0 {
        1.0
    } else {
        1.0 / min_lanes_vectorized as f64
    };
    insts.push(WeightedInst {
        op: VOp::IAdd,
        prec: Precision::I64,
        lanes: 1,
        weight: ov_w,
    });
    insts.push(WeightedInst {
        op: VOp::Branch,
        prec: Precision::I64,
        lanes: 1,
        weight: ov_w,
    });

    CompiledKernel {
        name: codelet.qualified_name(),
        insts,
        accesses,
        ndims,
        dims: codelet.nest.dims.iter().map(|d| d.trip).collect(),
        carried_chain,
        vectorized_stmts: (n_vec, codelet.nest.body.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeletBuilder;

    fn sse() -> TargetSpec {
        TargetSpec::sse128()
    }

    fn dot() -> Codelet {
        CodeletBuilder::new("dot", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .update_acc("s", BinOp::Add, |b| b.load("x", &[1]) * b.load("y", &[1]))
            .build()
    }

    #[test]
    fn lanes_by_precision() {
        let t = sse();
        assert_eq!(t.lanes(Precision::F64), 2);
        assert_eq!(t.lanes(Precision::F32), 4);
        assert_eq!(t.lanes(Precision::I32), 4);
        assert_eq!(TargetSpec::scalar().lanes(Precision::F32), 1);
    }

    #[test]
    fn reduction_vectorizes() {
        let k = compile(&dot(), &sse(), CompileMode::InApp);
        assert_eq!(k.vectorized_stmts, (1, 1));
        assert!(k.vector_ratio_fp() > 0.99);
        assert!(!k.has_recurrence());
        // mul + add, each 1 elem-op per iter = 2 flops/iter.
        assert!((k.flops_per_iter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recurrence_stays_scalar() {
        let c = CodeletBuilder::new("tridag", "t")
            .array("u", Precision::F64)
            .array("r", Precision::F64)
            .param_loop("n")
            .store("u", &[1], |b| {
                let prev = b.load_off("u", &[1], -1);
                b.load("r", &[1]) - prev * 0.5
            })
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        assert_eq!(k.vectorized_stmts.0, 0);
        assert!(k.has_recurrence());
        assert_eq!(k.vector_ratio_fp(), 0.0);
        assert!(!k.carried_chain.is_empty());
    }

    #[test]
    fn nonunit_stride_stays_scalar() {
        let c = CodeletBuilder::new("fft2", "t")
            .array("d", Precision::F64)
            .param_loop("n")
            .store("d", &[2], |b| b.load("d", &[2]) * 0.5)
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        assert_eq!(k.vectorized_stmts.0, 0);
    }

    #[test]
    fn transcendental_stays_scalar_call() {
        let c = CodeletBuilder::new("expk", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]).exp())
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        assert_eq!(k.vectorized_stmts.0, 0);
        assert!(k.count_op(VOp::FCall) > 0.0);
    }

    #[test]
    fn fragility_changes_standalone_code() {
        let mut c = dot();
        c.fragility = Fragility::ScalarWhenStandalone;
        let in_app = compile(&c, &sse(), CompileMode::InApp);
        let standalone = compile(&c, &sse(), CompileMode::Standalone);
        assert!(in_app.vector_ratio_fp() > 0.99);
        assert_eq!(standalone.vector_ratio_fp(), 0.0);
    }

    #[test]
    fn fragility_vector_when_standalone() {
        let mut c = dot();
        c.fragility = Fragility::VectorWhenStandalone;
        let in_app = compile(&c, &sse(), CompileMode::InApp);
        let standalone = compile(&c, &sse(), CompileMode::Standalone);
        assert_eq!(in_app.vector_ratio_fp(), 0.0);
        assert!(standalone.vector_ratio_fp() > 0.99);
    }

    #[test]
    fn invariant_load_is_hoisted() {
        // y[i] = s[0] * x[i]: s is loop-invariant.
        let c = CodeletBuilder::new("scale", "t")
            .array("s", Precision::F64)
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("s", &[0]) * b.load("x", &[1]))
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        let inv = k.accesses.iter().filter(|a| a.invariant).count();
        assert_eq!(inv, 1);
        // Only one load instruction per iteration (x), the s load is hoisted.
        assert!((k.count_op(VOp::Load) - 0.5).abs() < 1e-12); // 1 vec load / 2 lanes
    }

    #[test]
    fn reversed_vector_load_costs_a_shuffle() {
        let c = CodeletBuilder::new("rev", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[-1]))
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        assert!(k.count_op(VOp::Shuffle) > 0.0);
        assert_eq!(k.vectorized_stmts.0, 1);
    }

    #[test]
    fn loop_overhead_present() {
        let k = compile(&dot(), &sse(), CompileMode::InApp);
        assert!(k.count_op(VOp::Branch) > 0.0);
        assert!(k.count_op(VOp::IAdd) > 0.0);
    }

    #[test]
    fn integer_codelet_uses_int_ops() {
        let c = CodeletBuilder::new("iadd", "t")
            .array("k", Precision::I32)
            .array("m", Precision::I32)
            .param_loop("n")
            .store("k", &[1], |b| b.load("m", &[1]) + b.load("k", &[1]))
            .build();
        let k = compile(&c, &sse(), CompileMode::InApp);
        assert!(k.count_op(VOp::IAdd) > 0.0);
        assert_eq!(k.flops_per_iter(), 0.0);
    }
}
