//! Operation trees evaluated in the innermost loop body.

use crate::access::Access;
use crate::codelet::Codelet;
use crate::types::{AccId, Precision};

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root (pipelined hardware unit, long latency).
    Sqrt,
    /// Exponential — models any `libm` transcendental call (`exp`, `log`,
    /// `sin`…). Never vectorized by the compiler substrate.
    Exp,
    /// Reciprocal (lowered as a division).
    Recip,
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (high latency, unpipelined divider port).
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

impl BinOp {
    /// True if the operation is associative and therefore usable as a
    /// vectorizable reduction operator (partial accumulators + final
    /// horizontal combine).
    #[inline]
    pub fn is_associative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Max | BinOp::Min)
    }
}

/// An operation tree producing one value per innermost iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Read one element from memory.
    Load(Access),
    /// A compile-time constant.
    Const(f64),
    /// Read the current value of a scalar accumulator.
    Acc(AccId),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Collect every [`Access`] loaded by the expression, in evaluation
    /// order.
    pub fn loads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Expr::Load(a) => out.push(a),
            Expr::Const(_) | Expr::Acc(_) => {}
            Expr::Un(_, e) => e.loads(out),
            Expr::Bin(_, l, r) => {
                l.loads(out);
                r.loads(out);
            }
        }
    }

    /// True if the expression reads any accumulator.
    pub fn references_acc(&self) -> bool {
        match self {
            Expr::Acc(_) => true,
            Expr::Load(_) | Expr::Const(_) => false,
            Expr::Un(_, e) => e.references_acc(),
            Expr::Bin(_, l, r) => l.references_acc() || r.references_acc(),
        }
    }

    /// True if the expression reads the given accumulator.
    pub fn references_acc_id(&self, id: AccId) -> bool {
        match self {
            Expr::Acc(a) => *a == id,
            Expr::Load(_) | Expr::Const(_) => false,
            Expr::Un(_, e) => e.references_acc_id(id),
            Expr::Bin(_, l, r) => l.references_acc_id(id) || r.references_acc_id(id),
        }
    }

    /// The precision of the produced value, given the owning codelet's array
    /// declarations. Constants and accumulators are transparent: they adopt
    /// the precision of the surrounding computation, defaulting to `F64`.
    pub fn precision(&self, codelet: &Codelet) -> Precision {
        match self {
            Expr::Load(a) => codelet.arrays[a.array.0].elem,
            Expr::Const(_) | Expr::Acc(_) => Precision::F64,
            Expr::Un(_, e) => e.precision(codelet),
            Expr::Bin(_, l, r) => {
                // Mixed-precision kernels (the "MP" rows of Table 3) promote.
                let lp = l.precision_opt(codelet);
                let rp = r.precision_opt(codelet);
                match (lp, rp) {
                    (Some(a), Some(b)) => a.promote(b),
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => Precision::F64,
                }
            }
        }
    }

    /// Like [`Expr::precision`] but returns `None` for subtrees with no
    /// memory anchor (pure constants/accumulators), so promotion is driven
    /// by array element types only.
    fn precision_opt(&self, codelet: &Codelet) -> Option<Precision> {
        match self {
            Expr::Load(a) => Some(codelet.arrays[a.array.0].elem),
            Expr::Const(_) | Expr::Acc(_) => None,
            Expr::Un(_, e) => e.precision_opt(codelet),
            Expr::Bin(_, l, r) => match (l.precision_opt(codelet), r.precision_opt(codelet)) {
                (Some(a), Some(b)) => Some(a.promote(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Count of arithmetic operations (unary + binary nodes) in the tree.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Load(_) | Expr::Const(_) | Expr::Acc(_) => 0,
            Expr::Un(_, e) => 1 + e.op_count(),
            Expr::Bin(_, l, r) => 1 + l.op_count() + r.op_count(),
        }
    }

    /// Visit every operation node (unary and binary) in evaluation order.
    pub fn visit_ops(&self, f: &mut impl FnMut(OpKind)) {
        match self {
            Expr::Load(_) | Expr::Const(_) | Expr::Acc(_) => {}
            Expr::Un(op, e) => {
                e.visit_ops(f);
                f(OpKind::Un(*op));
            }
            Expr::Bin(op, l, r) => {
                l.visit_ops(f);
                r.visit_ops(f);
                f(OpKind::Bin(*op));
            }
        }
    }
}

/// Either kind of operation node, for generic visitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A unary node.
    Un(UnOp),
    /// A binary node.
    Bin(BinOp),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeletBuilder;
    use crate::codelet::ArrayId;

    fn dp_mul_add() -> Expr {
        // x[i] * y[i] + 1.0
        Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Load(Access::affine(ArrayId(0), &[1]))),
                Box::new(Expr::Load(Access::affine(ArrayId(1), &[1]))),
            )),
            Box::new(Expr::Const(1.0)),
        )
    }

    #[test]
    fn loads_collects_in_order() {
        let e = dp_mul_add();
        let mut out = Vec::new();
        e.loads(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].array, ArrayId(0));
        assert_eq!(out[1].array, ArrayId(1));
    }

    #[test]
    fn op_count_counts_all_nodes() {
        assert_eq!(dp_mul_add().op_count(), 2);
        let e = Expr::Un(UnOp::Sqrt, Box::new(dp_mul_add()));
        assert_eq!(e.op_count(), 3);
    }

    #[test]
    fn acc_references() {
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Acc(AccId(0))),
            Box::new(Expr::Const(2.0)),
        );
        assert!(e.references_acc());
        assert!(e.references_acc_id(AccId(0)));
        assert!(!e.references_acc_id(AccId(1)));
        assert!(!dp_mul_add().references_acc());
    }

    #[test]
    fn mixed_precision_promotes() {
        // f32 array * f64 array => f64 (the paper's "MP" kernels)
        let c = CodeletBuilder::new("mp", "t")
            .array("a", Precision::F32)
            .array("b", Precision::F64)
            .fixed_loop(8)
            .store("a", &[1], |bd| bd.load("a", &[1]) * bd.load("b", &[1]))
            .build();
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Load(Access::affine(ArrayId(0), &[1]))),
            Box::new(Expr::Load(Access::affine(ArrayId(1), &[1]))),
        );
        assert_eq!(e.precision(&c), Precision::F64);
    }

    #[test]
    fn constant_only_expr_defaults_to_f64() {
        let c = CodeletBuilder::new("k", "t")
            .array("a", Precision::F32)
            .fixed_loop(8)
            .store("a", &[1], |bd| bd.constant(0.0))
            .build();
        let e = Expr::Const(3.0);
        assert_eq!(e.precision(&c), Precision::F64);
        // But a constant combined with an f32 load adopts f32.
        let mix = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Const(3.0)),
            Box::new(Expr::Load(Access::affine(ArrayId(0), &[1]))),
        );
        assert_eq!(mix.precision(&c), Precision::F32);
    }

    #[test]
    fn associativity_classification() {
        assert!(BinOp::Add.is_associative());
        assert!(BinOp::Max.is_associative());
        assert!(!BinOp::Sub.is_associative());
        assert!(!BinOp::Div.is_associative());
    }

    #[test]
    fn visit_ops_in_evaluation_order() {
        let mut seen = Vec::new();
        dp_mul_add().visit_ops(&mut |k| seen.push(k));
        assert_eq!(seen, vec![OpKind::Bin(BinOp::Mul), OpKind::Bin(BinOp::Add)]);
    }
}
