//! The directive front-end on hostile input: every prefix of the paper's
//! decks, the decks with one byte replaced or one line duplicated,
//! arithmetic that leaves `i64`, literals too large for it and nesting
//! deep enough to overflow an unbounded descent each end in `Ok` or a
//! typed `Err`, in debug and in release, never in a panic, a wrapped value
//! or an abort.

use hpf_lang::{elaborate, parse_directive, parse_program, ElabError, Elaboration, Env, EvalError};
use std::collections::BTreeMap;

/// The Figure 2 and Figure 5 decks (`proptests.rs` round-trips them).
const DECKS: [&str; 10] = [
    "PROCESSORS :: PROCS(NP)",
    "ALIGN (:) WITH p(:) :: q, r, x, b",
    "DISTRIBUTE p(BLOCK)",
    "DISTRIBUTE row(CYCLIC((n+NP-1)/np))",
    "ALIGN a(:) WITH col(:)",
    "DISTRIBUTE col(BLOCK)",
    "REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1",
    "INDIVISABLE row(ATOM:i) :: col(i:i+1)",
    "SPARSE_MATRIX (CSR) :: smA(row, col, a)",
    "ITERATION j ON PROCESSOR(j/np), PRIVATE(q(n)) WITH MERGE(+), NEW(pj, k)",
];

/// Parse `src` as a program and elaborate it with `n` = 10, NP = 4 and
/// every array of the decks 11 long.
fn run(src: &str) -> Result<Elaboration, String> {
    let directives = parse_program(src).map_err(|e| e.to_string())?;
    let env = Env::new().bind("n", 10).bind("np", 4);
    let arrays = ["p", "q", "r", "x", "b", "row", "col", "a", "smA"];
    let extents: BTreeMap<String, usize> = arrays.iter().map(|s| (s.to_string(), 11)).collect();
    elaborate(&directives, &env, &extents).map_err(|e| e.to_string())
}

fn program(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("!HPF$ {l}\n")).collect()
}

/// `BLOCK(e)` as the one distribution of `p`.
fn block(e: &str) -> String {
    program(&[
        "PROCESSORS :: PROCS(NP)",
        &format!("DISTRIBUTE p(BLOCK({e}))"),
    ])
}

#[test]
fn the_decks_elaborate() {
    let elab = run(&program(&DECKS)).unwrap();
    assert_eq!(elab.np, 4);
}

#[test]
fn every_proper_prefix_of_a_deck_is_ok_or_an_error() {
    for deck in DECKS {
        for (end, _) in deck.char_indices().skip(1) {
            let _ = parse_directive(&deck[..end]);
        }
    }
    let text = program(&DECKS);
    for (end, _) in text.char_indices() {
        let _ = run(&text[..end]);
    }
}

/// [`run`], or name the program it panicked on.
fn run_unwound(src: &str) -> Result<Elaboration, String> {
    match std::panic::catch_unwind(|| run(src)) {
        Ok(run) => run,
        Err(_) => panic!("the front-end panicked on {src:?}"),
    }
}

/// The decks with each byte replaced by each of a set of bytes that mean
/// something to the lexer, and with each line duplicated: `Ok` or a typed
/// error, never a panic.
#[test]
fn every_damaged_deck_is_ok_or_an_error() {
    let text = program(&DECKS);
    let with = [
        "(", ")", ",", ":", "+", "-", "*", "/", "!", "$", "0", "9", "A", "_", " ", "\n", "\u{1}",
        "é",
    ];
    for at in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        let next = (at + 1..=text.len()).find(|&i| text.is_char_boundary(i));
        for w in with {
            let _ = run_unwound(&format!("{}{w}{}", &text[..at], &text[next.unwrap()..]));
        }
    }
    let lines: Vec<&str> = text.lines().collect();
    for at in 0..lines.len() {
        let mut twice = lines.clone();
        twice.insert(at, lines[at]);
        let _ = run_unwound(&(twice.join("\n") + "\n"));
    }
}

#[test]
fn arithmetic_that_leaves_i64_is_an_error() {
    for e in [
        "9223372036854775807+1",
        "4611686018427387904*4",
        "(0-9223372036854775807-1)/(0-1)",
        "-(0-9223372036854775807-1)",
        "0-9223372036854775807-2",
    ] {
        let err = run(&block(e)).err();
        let overflow = ElabError::Eval(EvalError::Overflow).to_string();
        assert_eq!(err.as_deref(), Some(overflow.as_str()), "BLOCK({e})");
    }
    assert_eq!(run(&block("9223372036854775807-1")).unwrap().np, 4);
}

#[test]
fn a_literal_beyond_i64_is_a_parse_error() {
    for e in ["9223372036854775808", "0-18446744073709551615"] {
        let err = run(&block(e)).unwrap_err();
        assert!(err.contains("does not fit in an i64"), "BLOCK({e}): {err}");
    }
}

/// 128 levels of `(` or unary `-` parse; one more, or a hundred
/// thousand, is an error where an unbounded descent overflows its stack.
#[test]
fn nesting_is_capped_with_an_error() {
    let parens = |depth: usize| "(".repeat(depth) + "1" + &")".repeat(depth);
    let minus = |depth: usize| "-".repeat(depth) + "1";
    for nest in [&parens as &dyn Fn(usize) -> String, &minus] {
        assert!(run(&block(&nest(128))).is_ok());
        for depth in [129, 100_000] {
            let err = run(&block(&nest(depth))).unwrap_err();
            assert!(err.contains("nested deeper than 128"), "{err}");
        }
    }
}
