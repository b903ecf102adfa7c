//! HPF distribution specifications.
//!
//! These are the typed equivalents of the paper's directives:
//!
//! ```fortran
//! !HPF$ PROCESSORS :: PROCS(NP)
//! !HPF$ DISTRIBUTE p(BLOCK)
//! !HPF$ DISTRIBUTE row(BLOCK( (n+NP-1)/NP ))
//! !HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))
//! ```
//!
//! plus the paper's proposed extensions (Section 5.2): `ATOM:BLOCK` /
//! `ATOM:CYCLIC` distributions that never split an indivisible entity,
//! and `REDISTRIBUTE ... USING <partitioner>` load-balanced layouts.

/// An HPF distribution directive for a one-dimensional array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistSpec {
    /// `DISTRIBUTE a(BLOCK)`: contiguous blocks of size `ceil(n/NP)`.
    Block,
    /// `DISTRIBUTE a(BLOCK(k))`: contiguous blocks of explicit size `k`.
    /// The paper uses `BLOCK((n+NP-1)/NP)` "to ensure that the (n+1)'th
    /// element of row is placed in the last processor".
    BlockK(usize),
    /// `DISTRIBUTE a(CYCLIC)`: round-robin single elements.
    Cyclic,
    /// `DISTRIBUTE a(CYCLIC(k))`: round-robin blocks of `k`.
    CyclicK(usize),
    /// Replicated on every processor (HPF `ALIGN` with `*`).
    Replicated,
    /// Extension (Section 5.2.1): block distribution over *atoms* —
    /// contiguous, but cut only at the given atom boundaries. The vector
    /// holds the element index at which each processor's part starts
    /// (length NP+1, first 0, last n). "A small array in the size of the
    /// number of processors keeps the cut-off points."
    IrregularCuts(Vec<usize>),
}

impl DistSpec {
    /// Short HPF-style rendering for reports.
    pub fn directive(&self) -> String {
        match self {
            DistSpec::Block => "BLOCK".to_string(),
            DistSpec::BlockK(k) => format!("BLOCK({k})"),
            DistSpec::Cyclic => "CYCLIC".to_string(),
            DistSpec::CyclicK(k) => format!("CYCLIC({k})"),
            DistSpec::Replicated => "*".to_string(),
            DistSpec::IrregularCuts(_) => "ATOM-CUTS".to_string(),
        }
    }

    /// The paper's explicit block size `(n+NP-1)/NP`.
    pub fn paper_block(n: usize, np: usize) -> DistSpec {
        DistSpec::BlockK(n.div_ceil(np))
    }
}

/// The `PROCESSORS` directive: a named 1-D processor arrangement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorGrid {
    pub name: String,
    pub np: usize,
}

impl ProcessorGrid {
    pub fn new(name: impl Into<String>, np: usize) -> Self {
        assert!(np > 0, "PROCESSORS grid needs at least one processor");
        ProcessorGrid {
            name: name.into(),
            np,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_rendering() {
        assert_eq!(DistSpec::Block.directive(), "BLOCK");
        assert_eq!(DistSpec::BlockK(25).directive(), "BLOCK(25)");
        assert_eq!(DistSpec::Cyclic.directive(), "CYCLIC");
        assert_eq!(DistSpec::CyclicK(4).directive(), "CYCLIC(4)");
        assert_eq!(DistSpec::Replicated.directive(), "*");
    }

    #[test]
    fn paper_block_size() {
        // (n + NP - 1) / NP with n=10, NP=4 -> 3.
        assert_eq!(DistSpec::paper_block(10, 4), DistSpec::BlockK(3));
        assert_eq!(DistSpec::paper_block(12, 4), DistSpec::BlockK(3));
        assert_eq!(DistSpec::paper_block(13, 4), DistSpec::BlockK(4));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_grid_rejected() {
        ProcessorGrid::new("PROCS", 0);
    }
}
