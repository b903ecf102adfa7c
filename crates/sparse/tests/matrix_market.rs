//! The Matrix Market reader, fuzzed: what the writer writes it reads
//! back, and no document — cut short anywhere, damaged by one replaced
//! byte or one duplicated line, or carrying a hostile size line — panics
//! it or has it reserve more than the text can hold.

use hpf_sparse::io::{read_matrix_market, write_matrix_market};
use hpf_sparse::CooMatrix;
use proptest::prelude::*;

/// The fields and symmetries of the dialect the reader takes.
const KINDS: [(&str, &str); 3] = [
    ("real", "general"),
    ("real", "symmetric"),
    ("pattern", "general"),
];

/// A document of `kind` holding `entries` (1-based; a symmetric one keeps
/// its lower triangle), with a comment and a blank line before the size
/// line and a comment between the entries.
fn document((field, symmetry): (&str, &str), n: usize, entries: &[(usize, usize, f64)]) -> String {
    let mut text = format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n% made up\n\n");
    text += &format!("{n} {n} {}\n", entries.len());
    for (i, &(r, c, v)) in entries.iter().enumerate() {
        let (r, c) = if symmetry == "symmetric" {
            (r.max(c), r.min(c))
        } else {
            (r, c)
        };
        text += &match field {
            "pattern" => format!("{r} {c}\n"),
            _ => format!("{r} {c} {v:e}\n"),
        };
        if i == 0 {
            text += "% between the entries\n";
        }
    }
    text
}

/// An order and up to eight 1-based entries of a matrix of that order.
fn entries() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (1usize..6).prop_flat_map(|n| {
        let entry = (1..=n, 1..=n, -1e3..1e3f64);
        (Just(n), proptest::collection::vec(entry, 0..8))
    })
}

/// Read `text`, or name the document it panicked on.
fn read(text: &str) -> Result<CooMatrix, String> {
    match std::panic::catch_unwind(|| read_matrix_market(text)) {
        Ok(read) => read.map_err(|e| e.to_string()),
        Err(_) => panic!("the reader panicked on {text:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_reader_reads_back_what_the_writer_writes((n, entries) in entries()) {
        let triplets = entries.iter().map(|&(r, c, v)| (r - 1, c - 1, v)).collect();
        let m = CooMatrix::from_triplets_summing(n, n, triplets).unwrap();
        let back = read(&write_matrix_market(&m)).unwrap();
        prop_assert_eq!((back.n_rows(), back.n_cols()), (n, n));
        let bits = |m: &CooMatrix| -> Vec<_> {
            m.entries().iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect()
        };
        prop_assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn every_proper_prefix_of_a_document_is_read_without_panicking(
        (n, entries) in entries(),
        kind in 0usize..KINDS.len(),
    ) {
        let text = document(KINDS[kind], n, &entries);
        prop_assert!(read(&text).is_ok(), "{}", text);
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            // `Ok` where the cut left every promised entry readable (the
            // last newline, or the end of the last value, cut off); `Err`
            // anywhere else.
            let _ = read(&text[..end]);
        }
    }

    #[test]
    fn a_document_with_a_byte_replaced_or_a_line_duplicated_is_read_without_panicking(
        (n, entries) in entries(),
        kind in 0usize..KINDS.len(),
        at in any::<usize>(),
        with in prop_oneof![
            Just("0"), Just("9"), Just("-"), Just("+"), Just("."), Just("e"), Just("%"),
            Just(" "), Just("\n"), Just("x"), Just("\u{1}"), Just("é"),
        ],
    ) {
        let text = document(KINDS[kind], n, &entries);
        // Every document is ASCII: each byte is a character.
        let at = at % text.len();
        let _ = read(&format!("{}{with}{}", &text[..at], &text[at + 1..]));
        let lines: Vec<&str> = text.lines().collect();
        let mut twice = lines.clone();
        twice.insert(at % lines.len(), lines[at % lines.len()]);
        let _ = read(&(twice.join("\n") + "\n"));
    }
}

#[test]
fn every_kind_of_document_reads_its_entries() {
    let entries = [(1, 1, 4.0), (2, 1, -1.5), (3, 3, 2.0)];
    for kind in KINDS {
        let m = read(&document(kind, 3, &entries)).unwrap();
        let expected = match kind {
            ("pattern", _) => vec![(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0)],
            (_, "symmetric") => vec![(0, 0, 4.0), (0, 1, -1.5), (1, 0, -1.5), (2, 2, 2.0)],
            _ => vec![(0, 0, 4.0), (1, 0, -1.5), (2, 2, 2.0)],
        };
        assert_eq!(m.entries(), expected, "{kind:?}");
    }
}

#[test]
fn hostile_size_lines_are_refused() {
    let max = usize::MAX;
    let header = "%%MatrixMarket matrix coordinate real general\n";
    for size in [
        format!("2 2 {max}"),
        format!("{max} 2 1"),
        format!("2 {max} 1"),
        format!("{max} {max} {max}"),
        "2 2 1000000000000000".to_string(),
        "2 2 18446744073709551616".to_string(),
    ] {
        let text = format!("{header}{size}\n1 1 1.0\n");
        let refused = read(&text);
        assert!(refused.is_err(), "{size}: read {refused:?}");
    }
    // A size line that promises fewer entries than follow is refused too.
    let text = format!("{header}2 2 1\n1 1 1.0\n2 2 1.0\n");
    let refused = read(&text).unwrap_err();
    assert!(refused.contains("promised 1 entries, found 2"), "{refused}");
}
