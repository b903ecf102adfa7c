//! Minimal Matrix Market coordinate reader/writer.
//!
//! Enough of the `%%MatrixMarket matrix coordinate <field> <symmetry>`
//! dialect to exchange the test matrices; 1-based indices as per the
//! format (and as in the paper's Fortran arrays). Accepted fields are
//! `real`, `double`, `integer` (values parsed as floats), and `pattern`
//! (no value column; every stored entry becomes `1.0`). Comment and
//! blank lines are allowed anywhere, including between data lines.

use crate::coo::CooMatrix;
use crate::error::SparseError;

/// Serialize a COO matrix to Matrix Market coordinate format.
pub fn write_matrix_market(m: &CooMatrix) -> String {
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    out.push_str(&format!("{} {} {}\n", m.n_rows(), m.n_cols(), m.nnz()));
    for &(r, c, v) in m.entries() {
        out.push_str(&format!("{} {} {:e}\n", r + 1, c + 1, v));
    }
    out
}

/// Parse Matrix Market coordinate format (general or symmetric;
/// real/double/integer/pattern fields).
pub fn read_matrix_market(text: &str) -> Result<CooMatrix, SparseError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty input".into()))?;
    if !header.starts_with("%%MatrixMarket") {
        return Err(SparseError::Parse("missing %%MatrixMarket header".into()));
    }
    let lower = header.to_ascii_lowercase();
    if !lower.contains("coordinate") {
        return Err(SparseError::Parse(
            "only coordinate format supported".into(),
        ));
    }
    let pattern = lower.contains("pattern");
    if !(pattern || lower.contains("real") || lower.contains("double") || lower.contains("integer"))
    {
        return Err(SparseError::Parse(format!(
            "unsupported field in header (expected real/double/integer/pattern): {header}"
        )));
    }
    let symmetric = lower.contains("symmetric");
    if lower.contains("hermitian") || lower.contains("skew") {
        return Err(SparseError::Parse(
            "only general or symmetric symmetry supported".into(),
        ));
    }

    // Skip comments.
    let mut size_line = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let mut parts = size_line.split_whitespace();
    let n_rows: usize = parse_field(parts.next(), "rows")?;
    let n_cols: usize = parse_field(parts.next(), "cols")?;
    let nnz: usize = parse_field(parts.next(), "nnz")?;
    // A compressed format keeps `n + 1` pointers a dimension.
    if n_rows.max(n_cols) == usize::MAX {
        return Err(SparseError::Parse(format!(
            "size line {size_line:?}: a dimension leaves no room for its n + 1 pointers"
        )));
    }

    // The size line is the document's claim, not its content: every
    // entry line takes at least 4 bytes ("1 1" and its newline), so the
    // text bounds what is worth reserving; `seen != nnz` below refuses a
    // claim the lines do not meet.
    let mut triplets = Vec::with_capacity(nnz.min(text.len() / 4));
    let mut seen = 0usize;
    for line in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let r: usize = parse_field(parts.next(), "row index")?;
        let c: usize = parse_field(parts.next(), "col index")?;
        let v: f64 = if pattern {
            1.0
        } else {
            parts
                .next()
                .ok_or_else(|| SparseError::Parse("missing value".into()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?
        };
        if r == 0 || c == 0 {
            return Err(SparseError::Parse(
                "Matrix Market indices are 1-based".into(),
            ));
        }
        if r > n_rows {
            return Err(SparseError::IndexOutOfBounds {
                what: "row",
                index: r,
                bound: n_rows + 1,
            });
        }
        if c > n_cols {
            return Err(SparseError::IndexOutOfBounds {
                what: "col",
                index: c,
                bound: n_cols + 1,
            });
        }
        triplets.push((r - 1, c - 1, v));
        if symmetric && r != c {
            triplets.push((c - 1, r - 1, v));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "size line promised {nnz} entries, found {seen}"
        )));
    }
    CooMatrix::from_triplets_summing(n_rows, n_cols, triplets)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, SparseError>
where
    T::Err: std::fmt::Display,
{
    field
        .ok_or_else(|| SparseError::Parse(format!("missing {what}")))?
        .parse()
        .map_err(|e| SparseError::Parse(format!("bad {what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.5), (2, 1, -2.0)]).unwrap();
        let text = write_matrix_market(&m);
        let back = read_matrix_market(&text).unwrap();
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    fn symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 2\n\
                    1 1 4.0\n\
                    3 1 -1.0\n";
        let m = read_matrix_market(text).unwrap();
        assert_eq!(m.to_dense()[(0, 2)], -1.0);
        assert_eq!(m.to_dense()[(2, 0)], -1.0);
        assert_eq!(m.to_dense()[(0, 0)], 4.0);
    }

    #[test]
    fn comments_skipped() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    \n\
                    2 2 1\n\
                    % another\n\
                    2 2 7.0\n";
        let m = read_matrix_market(text).unwrap();
        assert_eq!(m.to_dense()[(1, 1)], 7.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("nonsense\n1 1 0\n").is_err());
        assert!(read_matrix_market("").is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n").is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_matrix_market(text).unwrap_err();
        assert!(matches!(err, SparseError::Parse(_)));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(text).is_err());
    }

    #[test]
    fn integer_field_parses_as_floats() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    2 2 2\n\
                    1 1 3\n\
                    2 2 -7\n";
        let m = read_matrix_market(text).unwrap();
        assert_eq!(m.to_dense()[(0, 0)], 3.0);
        assert_eq!(m.to_dense()[(1, 1)], -7.0);
    }

    #[test]
    fn pattern_field_yields_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    1 1\n\
                    3 1\n";
        let m = read_matrix_market(text).unwrap();
        assert_eq!(m.to_dense()[(0, 0)], 1.0);
        assert_eq!(m.to_dense()[(0, 2)], 1.0);
        assert_eq!(m.to_dense()[(2, 0)], 1.0);
    }

    #[test]
    fn rejects_unsupported_field_and_symmetry() {
        let complex = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n";
        assert!(read_matrix_market(complex).is_err());
        let herm = "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n";
        assert!(read_matrix_market(herm).is_err());
    }

    #[test]
    fn out_of_range_index_is_a_typed_error_not_a_panic() {
        let row = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(
            read_matrix_market(row).unwrap_err(),
            SparseError::IndexOutOfBounds {
                what: "row",
                index: 3,
                ..
            }
        ));
        let col = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 9 1.0\n";
        assert!(matches!(
            read_matrix_market(col).unwrap_err(),
            SparseError::IndexOutOfBounds {
                what: "col",
                index: 9,
                ..
            }
        ));
    }

    #[test]
    fn interior_blank_and_comment_lines_between_entries() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 3\n\
                    1 1 1.0\n\
                    \n\
                    %% mid-stream comment\n\
                    2 2 2.0\n\
                    \t \n\
                    3 3 3.0\n";
        let m = read_matrix_market(text).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense()[(2, 2)], 3.0);
    }
}
