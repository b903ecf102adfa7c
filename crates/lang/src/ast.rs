//! Abstract syntax of the directive language: HPF-1 directives plus the
//! paper's proposed `!EXT$` extensions.

use crate::expr::Expr;

/// A distribution format inside `DISTRIBUTE`/`REDISTRIBUTE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistFormat {
    /// `BLOCK` or `BLOCK(expr)`.
    Block(Option<Expr>),
    /// `CYCLIC` or `CYCLIC(expr)`.
    Cyclic(Option<Expr>),
    /// `ATOM: BLOCK` (extension, Section 5.2.1).
    AtomBlock,
    /// `ATOM: CYCLIC` (extension).
    AtomCyclic,
    /// `*` — replicated / serial dimension.
    Replicated,
}

/// The source-side subscript pattern of an `ALIGN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignPattern {
    /// `a(:) WITH t(:)` — identity element alignment (also the bare
    /// `(:) WITH t(:) :: list` form).
    Identity,
    /// `A(:, *) WITH t(:)` — first dimension follows the target (row
    /// alignment; the paper's Scenario 1).
    FirstDim,
    /// `A(*, :) WITH t(:)` — second dimension follows the target
    /// (column alignment; Scenario 2).
    SecondDim,
    /// `row(ATOM:i) WITH col(i)` — atoms of the source aligned with
    /// elements of the target (extension, Section 5.2.1).
    Atom(String),
}

/// `WITH MERGE(op)` / `WITH DISCARD` in the PRIVATE extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSpec {
    Sum,
    Max,
    Min,
    Discard,
}

/// One `PRIVATE(q(n)) WITH ...` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivateSpec {
    pub array: String,
    pub extent: Expr,
    pub merge: MergeSpec,
}

/// Sparse storage scheme named in `SPARSE_MATRIX (fmt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseFmt {
    Csr,
    Csc,
}

/// One parsed directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `PROCESSORS :: PROCS(NP)`
    Processors { name: String, extent: Expr },
    /// `[DYNAMIC,] DISTRIBUTE array(format)`
    Distribute {
        dynamic: bool,
        array: String,
        format: DistFormat,
    },
    /// `[DYNAMIC,] ALIGN <pattern> WITH target(:) [:: a, b, c]`
    Align {
        dynamic: bool,
        arrays: Vec<String>,
        pattern: AlignPattern,
        target: String,
    },
    /// `REDISTRIBUTE array(format)`
    Redistribute { array: String, format: DistFormat },
    /// `REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1` (extension)
    RedistributeUsing { array: String, partitioner: String },
    /// `INDIVISABLE row(ATOM:i) :: col(i:i+1)` (extension)
    Indivisable {
        array: String,
        index_var: String,
        bound_array: String,
        lo: Expr,
        hi: Expr,
    },
    /// `SPARSE_MATRIX (CSR) :: smA(row, col, a)` (extension)
    SparseMatrix {
        format: SparseFmt,
        name: String,
        ptr: String,
        idx: String,
        values: String,
    },
    /// `ITERATION j ON PROCESSOR(f(j)), PRIVATE(...) WITH ..., NEW(...)`
    /// (extension, Section 5.1)
    IterationMapping {
        loop_var: String,
        on_expr: Expr,
        privates: Vec<PrivateSpec>,
        news: Vec<String>,
    },
}

impl Directive {
    /// Short tag for reports/tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Directive::Processors { .. } => "PROCESSORS",
            Directive::Distribute { .. } => "DISTRIBUTE",
            Directive::Align { .. } => "ALIGN",
            Directive::Redistribute { .. } => "REDISTRIBUTE",
            Directive::RedistributeUsing { .. } => "REDISTRIBUTE USING",
            Directive::Indivisable { .. } => "INDIVISABLE",
            Directive::SparseMatrix { .. } => "SPARSE_MATRIX",
            Directive::IterationMapping { .. } => "ITERATION",
        }
    }

    /// Is this one of the paper's proposed extensions (vs HPF-1)?
    pub fn is_extension(&self) -> bool {
        matches!(
            self,
            Directive::RedistributeUsing { .. }
                | Directive::Indivisable { .. }
                | Directive::SparseMatrix { .. }
                | Directive::IterationMapping { .. }
        ) || matches!(
            self,
            Directive::Distribute {
                format: DistFormat::AtomBlock | DistFormat::AtomCyclic,
                ..
            } | Directive::Redistribute {
                format: DistFormat::AtomBlock | DistFormat::AtomCyclic,
                ..
            } | Directive::Align {
                pattern: AlignPattern::Atom(_),
                ..
            }
        )
    }
}

impl std::fmt::Display for DistFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistFormat::Block(None) => write!(f, "BLOCK"),
            DistFormat::Block(Some(e)) => write!(f, "BLOCK({e})"),
            DistFormat::Cyclic(None) => write!(f, "CYCLIC"),
            DistFormat::Cyclic(Some(e)) => write!(f, "CYCLIC({e})"),
            DistFormat::AtomBlock => write!(f, "ATOM: BLOCK"),
            DistFormat::AtomCyclic => write!(f, "ATOM: CYCLIC"),
            DistFormat::Replicated => write!(f, "*"),
        }
    }
}

impl std::fmt::Display for MergeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeSpec::Sum => write!(f, "MERGE(+)"),
            MergeSpec::Max => write!(f, "MERGE(MAX)"),
            MergeSpec::Min => write!(f, "MERGE(MIN)"),
            MergeSpec::Discard => write!(f, "DISCARD"),
        }
    }
}

impl std::fmt::Display for Directive {
    /// Render back to canonical directive text (no sentinel); parseable
    /// by [`crate::parser::parse_directive`] — the round-trip property
    /// is enforced by tests.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Directive::Processors { name, extent } => {
                write!(f, "PROCESSORS :: {name}({extent})")
            }
            Directive::Distribute {
                dynamic,
                array,
                format,
            } => {
                if *dynamic {
                    write!(f, "DYNAMIC, ")?;
                }
                write!(f, "DISTRIBUTE {array}({format})")
            }
            Directive::Align {
                dynamic,
                arrays,
                pattern,
                target,
            } => {
                if *dynamic {
                    write!(f, "DYNAMIC, ")?;
                }
                match pattern {
                    AlignPattern::Identity if arrays.len() > 1 => {
                        write!(f, "ALIGN (:) WITH {target}(:) :: {}", arrays.join(", "))
                    }
                    AlignPattern::Identity => {
                        write!(f, "ALIGN {}(:) WITH {target}(:)", arrays[0])
                    }
                    AlignPattern::FirstDim => {
                        write!(f, "ALIGN {}(:, *) WITH {target}(:)", arrays[0])
                    }
                    AlignPattern::SecondDim => {
                        write!(f, "ALIGN {}(*, :) WITH {target}(:)", arrays[0])
                    }
                    AlignPattern::Atom(i) => {
                        write!(f, "ALIGN {}(ATOM:{i}) WITH {target}({i})", arrays[0])
                    }
                }
            }
            Directive::Redistribute { array, format } => {
                write!(f, "REDISTRIBUTE {array}({format})")
            }
            Directive::RedistributeUsing { array, partitioner } => {
                write!(f, "REDISTRIBUTE {array} USING {partitioner}")
            }
            Directive::Indivisable {
                array,
                index_var,
                bound_array,
                lo,
                hi,
            } => write!(
                f,
                "INDIVISABLE {array}(ATOM:{index_var}) :: {bound_array}({lo}:{hi})"
            ),
            Directive::SparseMatrix {
                format,
                name,
                ptr,
                idx,
                values,
            } => {
                let fmt_name = match format {
                    SparseFmt::Csr => "CSR",
                    SparseFmt::Csc => "CSC",
                };
                write!(
                    f,
                    "SPARSE_MATRIX ({fmt_name}) :: {name}({ptr}, {idx}, {values})"
                )
            }
            Directive::IterationMapping {
                loop_var,
                on_expr,
                privates,
                news,
            } => {
                write!(f, "ITERATION {loop_var} ON PROCESSOR({on_expr})")?;
                for p in privates {
                    write!(f, ", PRIVATE({}({})) WITH {}", p.array, p.extent, p.merge)?;
                }
                if !news.is_empty() {
                    write!(f, ", NEW({})", news.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_classification() {
        let d = Directive::Distribute {
            dynamic: false,
            array: "p".into(),
            format: DistFormat::Block(None),
        };
        assert!(!d.is_extension());
        assert_eq!(d.kind(), "DISTRIBUTE");

        let e = Directive::Redistribute {
            array: "row".into(),
            format: DistFormat::AtomBlock,
        };
        assert!(e.is_extension());

        let s = Directive::SparseMatrix {
            format: SparseFmt::Csr,
            name: "smA".into(),
            ptr: "row".into(),
            idx: "col".into(),
            values: "a".into(),
        };
        assert!(s.is_extension());
        assert_eq!(s.kind(), "SPARSE_MATRIX");
    }
}
