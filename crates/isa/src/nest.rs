//! Loop nests and loop-body statements.

use crate::access::Access;
use crate::expr::Expr;
use crate::types::AccId;

/// Trip count of one loop dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trip {
    /// A fixed iteration count.
    Fixed(u64),
    /// A runtime parameter, bound by the invocation context. The index
    /// refers to the codelet's parameter table.
    Param(usize),
    /// Triangular loop: the trip count equals the current index of the
    /// immediately enclosing loop plus one (`for j in 0..=i`), as in the
    /// lower-half matrix sweeps of `ludcmp_4` or `hqr_12`.
    Triangular,
}

/// One loop dimension, outermost first in a [`LoopNest`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopDim {
    /// Trip count recipe.
    pub trip: Trip,
}

impl LoopDim {
    /// A loop with a fixed trip count.
    pub fn fixed(n: u64) -> Self {
        LoopDim { trip: Trip::Fixed(n) }
    }

    /// A loop whose trip count is invocation parameter `p`.
    pub fn param(p: usize) -> Self {
        LoopDim { trip: Trip::Param(p) }
    }

    /// A triangular loop (`0..=outer_index`).
    pub fn triangular() -> Self {
        LoopDim { trip: Trip::Triangular }
    }
}

/// A statement executed once per innermost iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `array[index] = value`.
    Store {
        /// Destination access.
        access: Access,
        /// Stored value.
        value: Expr,
    },
    /// `acc = acc <op> value` — a reduction (if `value` is independent of
    /// `acc` and `op` associative) or a recurrence otherwise.
    Update {
        /// Accumulator being updated.
        acc: AccId,
        /// Combining operation.
        op: crate::expr::BinOp,
        /// Update operand.
        value: Expr,
    },
    /// `acc = value` — overwrite an accumulator (first-order recurrences
    /// write the carried value this way: `acc = f(acc, loads)`).
    SetAcc {
        /// Accumulator being written.
        acc: AccId,
        /// New value.
        value: Expr,
    },
}

impl Stmt {
    /// All loads performed by the statement.
    pub fn loads<'a>(&'a self, out: &mut Vec<&'a Access>) {
        match self {
            Stmt::Store { value, .. } => value.loads(out),
            Stmt::Update { value, .. } => value.loads(out),
            Stmt::SetAcc { value, .. } => value.loads(out),
        }
    }

    /// The store access, if the statement writes memory.
    pub fn store_access(&self) -> Option<&Access> {
        match self {
            Stmt::Store { access, .. } => Some(access),
            _ => None,
        }
    }

    /// The value expression of the statement.
    pub fn value(&self) -> &Expr {
        match self {
            Stmt::Store { value, .. } => value,
            Stmt::Update { value, .. } => value,
            Stmt::SetAcc { value, .. } => value,
        }
    }
}

/// A perfect loop nest with a straight-line innermost body.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Loop dimensions, outermost first. Never empty.
    pub dims: Vec<LoopDim>,
    /// Innermost-body statements, executed in order.
    pub body: Vec<Stmt>,
}

impl LoopNest {
    /// Number of loop dimensions.
    pub fn depth(&self) -> usize {
        self.dims.len()
    }

    /// All memory accesses of the body: loads first (in statement order),
    /// then stores, each tagged with `is_store`.
    pub fn accesses(&self) -> Vec<(&Access, bool)> {
        let mut out = Vec::new();
        for stmt in &self.body {
            let mut loads = Vec::new();
            stmt.loads(&mut loads);
            out.extend(loads.into_iter().map(|a| (a, false)));
            if let Some(st) = stmt.store_access() {
                out.push((st, true));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::codelet::ArrayId;
    use crate::expr::{BinOp, Expr};

    fn saxpy_nest() -> LoopNest {
        // y[i] = a * x[i] + y[i]
        LoopNest {
            dims: vec![LoopDim::param(0)],
            body: vec![Stmt::Store {
                access: Access::affine(ArrayId(1), &[1]),
                value: Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Bin(
                        BinOp::Mul,
                        Box::new(Expr::Const(2.0)),
                        Box::new(Expr::Load(Access::affine(ArrayId(0), &[1]))),
                    )),
                    Box::new(Expr::Load(Access::affine(ArrayId(1), &[1]))),
                ),
            }],
        }
    }

    #[test]
    fn accesses_lists_loads_then_store() {
        let nest = saxpy_nest();
        let acc = nest.accesses();
        assert_eq!(acc.len(), 3);
        assert!(!acc[0].1 && !acc[1].1);
        assert!(acc[2].1);
        assert_eq!(acc[2].0.array, ArrayId(1));
    }

    #[test]
    fn depth_counts_dims() {
        assert_eq!(saxpy_nest().depth(), 1);
        let mut n = saxpy_nest();
        n.dims.insert(0, LoopDim::fixed(10));
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn stmt_value_and_store_access() {
        let nest = saxpy_nest();
        let s = &nest.body[0];
        assert!(s.store_access().is_some());
        assert_eq!(s.value().op_count(), 2);
        let upd = Stmt::Update {
            acc: crate::types::AccId(0),
            op: BinOp::Add,
            value: Expr::Const(1.0),
        };
        assert!(upd.store_access().is_none());
    }
}
