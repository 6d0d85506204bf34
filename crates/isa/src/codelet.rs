//! The codelet: the paper's unit of benchmark decomposition.

use crate::nest::LoopNest;
use crate::types::Precision;

/// Index of an array within a codelet's array table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Declaration of one array operand.
///
/// Array *extents* are not part of the declaration — they are bound by the
/// invocation context (see `fgbs-extract`), mirroring how the same source
/// loop runs over different datasets across invocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    /// Human-readable name (used in reports and by the builder DSL).
    pub name: String,
    /// Element type.
    pub elem: Precision,
}

/// Source location of the codelet in its (virtual) application, in the
/// paper's `file.f:first-last` notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SourceLoc {
    /// Source file name.
    pub file: String,
    /// First line of the outlined loop.
    pub first_line: u32,
    /// Last line of the outlined loop.
    pub last_line: u32,
}

impl std::fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}-{}", self.file, self.first_line, self.last_line)
    }
}

/// How the codelet reacts to being compiled outside its application.
///
/// Modern compilers decide optimization profitability from surrounding
/// context; extracting a loop changes that context. This enum models the
/// paper's second class of ill-behaved codelets ("codelets which are
/// compiled differently inside and outside the application").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fragility {
    /// The extracted microbenchmark compiles identically to the in-app loop.
    #[default]
    Robust,
    /// In-app the loop vectorizes (alignment and aliasing are provable), but
    /// the standalone wrapper loses that information: standalone compiles
    /// scalar.
    ScalarWhenStandalone,
    /// The opposite: standalone the loop vectorizes, but in-app a
    /// surrounding construct inhibits it.
    VectorWhenStandalone,
}

/// A codelet: a short, side-effect-free loop nest extracted from an
/// application, together with its operand declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct Codelet {
    /// Codelet name, e.g. `toeplz_1` or `rhs.f:266-311`.
    pub name: String,
    /// Owning application, e.g. `BT`.
    pub app: String,
    /// Source coordinates inside the application.
    pub source: SourceLoc,
    /// Array operand table, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Number of scalar accumulators used by the body.
    pub n_accs: usize,
    /// Number of runtime trip-count parameters.
    pub n_params: usize,
    /// The loop nest.
    pub nest: LoopNest,
    /// Compilation-context sensitivity.
    pub fragility: Fragility,
    /// Human-readable computation pattern, as in Table 3
    /// (e.g. "DP: 2 simultaneous reductions").
    pub pattern: String,
    /// Whether the Codelet-Finder substrate can outline this loop into a
    /// standalone microbenchmark. Non-extractable codelets model the ~8 % of
    /// application time the paper's tooling cannot capture.
    pub extractable: bool,
}

impl Codelet {
    /// Fully qualified name `app/name`.
    pub fn qualified_name(&self) -> String {
        format!("{}/{}", self.app, self.name)
    }

    /// Look up an array id by name.
    ///
    /// # Panics
    ///
    /// Panics if no array with that name exists; array names are fixed by
    /// the codelet author so a miss is a programming error.
    pub fn array_id(&self, name: &str) -> ArrayId {
        ArrayId(
            self.arrays
                .iter()
                .position(|a| a.name == name)
                .unwrap_or_else(|| panic!("codelet {}: unknown array `{name}`", self.name)),
        )
    }

    /// The dominant floating-point precision of the body: `F64` if any DP
    /// operand participates, otherwise `F32`, otherwise `None` for
    /// integer-only codelets.
    pub fn fp_precision(&self) -> Option<Precision> {
        let mut has64 = false;
        let mut has32 = false;
        for a in &self.arrays {
            match a.elem {
                Precision::F64 => has64 = true,
                Precision::F32 => has32 = true,
                _ => {}
            }
        }
        if has64 {
            Some(Precision::F64)
        } else if has32 {
            Some(Precision::F32)
        } else {
            None
        }
    }

    /// The codelet's stride vocabulary, Table 3 style: the distinct
    /// innermost-dimension stride classes of all its accesses, joined with
    /// `&` (e.g. `"0 & 1 & -1"`, `"LDA"`, `"rand"`).
    pub fn stride_summary(&self) -> String {
        let ndims = self.nest.depth();
        let mut classes: Vec<String> = self
            .nest
            .accesses()
            .iter()
            .map(|(a, _)| a.stride_class(ndims))
            .collect();
        classes.sort();
        classes.dedup();
        classes.join(" & ")
    }

    /// Precision label used by Table 3: `DP`, `SP`, `MP` (mixed), or `INT`.
    pub fn precision_label(&self) -> &'static str {
        let mut has64 = false;
        let mut has32 = false;
        for a in &self.arrays {
            match a.elem {
                Precision::F64 => has64 = true,
                Precision::F32 => has32 = true,
                _ => {}
            }
        }
        match (has64, has32) {
            (true, true) => "MP",
            (true, false) => "DP",
            (false, true) => "SP",
            (false, false) => "INT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeletBuilder;

    #[test]
    fn qualified_name_and_lookup() {
        let c = CodeletBuilder::new("dot", "NR")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .fixed_loop(16)
            .update_acc("s", crate::expr::BinOp::Add, |b| {
                b.load("x", &[1]) * b.load("y", &[1])
            })
            .build();
        assert_eq!(c.qualified_name(), "NR/dot");
        assert_eq!(c.array_id("y"), ArrayId(1));
    }

    #[test]
    #[should_panic(expected = "unknown array")]
    fn unknown_array_panics() {
        let c = CodeletBuilder::new("k", "t")
            .array("x", Precision::F64)
            .fixed_loop(4)
            .store("x", &[1], |b| b.constant(0.0))
            .build();
        c.array_id("nope");
    }

    #[test]
    fn precision_labels() {
        let dp = CodeletBuilder::new("a", "t")
            .array("x", Precision::F64)
            .fixed_loop(4)
            .store("x", &[1], |b| b.constant(0.0))
            .build();
        assert_eq!(dp.precision_label(), "DP");
        assert_eq!(dp.fp_precision(), Some(Precision::F64));

        let mp = CodeletBuilder::new("b", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F32)
            .fixed_loop(4)
            .store("x", &[1], |b| b.load("y", &[1]))
            .build();
        assert_eq!(mp.precision_label(), "MP");

        let int = CodeletBuilder::new("c", "t")
            .array("k", Precision::I32)
            .fixed_loop(4)
            .store("k", &[1], |b| b.constant(0.0))
            .build();
        assert_eq!(int.precision_label(), "INT");
        assert_eq!(int.fp_precision(), None);
    }

    #[test]
    fn source_loc_display() {
        let loc = SourceLoc {
            file: "rhs.f".into(),
            first_line: 266,
            last_line: 311,
        };
        assert_eq!(loc.to_string(), "rhs.f:266-311");
    }
}

#[cfg(test)]
mod stride_tests {
    use super::*;
    use crate::access::AffineExpr;
    use crate::builder::CodeletBuilder;
    use crate::expr::BinOp;

    #[test]
    fn stride_summary_uses_table3_vocabulary() {
        let c = CodeletBuilder::new("mix", "t")
            .array("a", Precision::F64)
            .array("b", Precision::F64)
            .param_loop("n")
            .update_acc("s", BinOp::Add, |e| {
                let rev = e.load_expr("b", vec![AffineExpr::lit(-1)], AffineExpr::new(-1, 1));
                e.load("a", &[1]) * rev
            })
            .build();
        assert_eq!(c.stride_summary(), "-1 & 1");

        let d = CodeletBuilder::new("diag", "t")
            .array("a", Precision::F64)
            .param_loop("n")
            .store_at("a", vec![AffineExpr::new(1, 1)], AffineExpr::zero(), |e| {
                e.constant(0.0)
            })
            .build();
        assert_eq!(d.stride_summary(), "LDA+1");

        let r = CodeletBuilder::new("rand", "t")
            .array("a", Precision::I32)
            .param_loop("n")
            .store_random("a", 64, |e| e.constant(1.0))
            .build();
        assert_eq!(r.stride_summary(), "rand");
    }

    #[test]
    fn stride_summary_dedupes() {
        let c = CodeletBuilder::new("dup", "t")
            .array("a", Precision::F64)
            .array("b", Precision::F64)
            .array("o", Precision::F64)
            .param_loop("n")
            .store("o", &[1], |e| e.load("a", &[1]) + e.load("b", &[1]))
            .build();
        assert_eq!(c.stride_summary(), "1");
    }
}
