//! The one grammar, fuzzed: what the builders write the reader reads
//! back, the validator and the reader agree on every document, and no
//! input — truncated, malformed or hostile — panics either of them.

use hpf_json::{escape, json_f64, parse, validate, Arr, Obj, Value, MAX_DEPTH};
use proptest::prelude::*;
use std::borrow::Cow;

/// A document to write: what the builders can express.
#[derive(Debug, Clone)]
enum Doc {
    U64(u64),
    F64(f64),
    Bool(bool),
    Null,
    Str(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

/// Everything an escaper and an unescaper have to get right: JSON's own
/// punctuation, every control character, a two-byte and an astral
/// character.
fn awkward_string() -> impl Strategy<Value = String> {
    let punctuation = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('/'),
        Just(','),
        Just(':'),
        Just('['),
        Just(']'),
        Just('{'),
        Just('}'),
        Just('é'),
        Just('\u{1F600}'),
        Just('a'),
    ];
    let control = (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap());
    proptest::collection::vec(prop_oneof![punctuation, control], 0..8)
        .prop_map(|chars| chars.into_iter().collect())
}

fn leaf() -> impl Strategy<Value = Doc> {
    prop_oneof![
        prop_oneof![Just(0), Just(u64::MAX), any::<u64>()].prop_map(Doc::U64),
        prop_oneof![
            Just(-0.0),
            Just(1e-300),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.1),
            -1e9..1e9f64,
        ]
        .prop_map(Doc::F64),
        any::<bool>().prop_map(Doc::Bool),
        Just(Doc::Null),
        awkward_string().prop_map(Doc::Str),
    ]
}

/// Containers three levels deep.
fn document() -> impl Strategy<Value = Doc> {
    leaf().prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Doc::Arr),
            proptest::collection::vec((awkward_string(), inner), 0..4).prop_map(Doc::Obj),
        ]
    })
}

fn write_member(o: &mut Obj<'_>, key: &str, doc: &Doc) {
    match doc {
        Doc::U64(v) => drop(o.u64(key, *v)),
        Doc::F64(v) => drop(o.f64(key, *v)),
        Doc::Bool(v) => drop(o.bool(key, *v)),
        Doc::Null => drop(o.null(key)),
        Doc::Str(v) => drop(o.str(key, v)),
        Doc::Arr(items) => write_items(&mut o.arr(key), items),
        Doc::Obj(members) => write_members(&mut o.obj(key), members),
    }
}

fn write_members(o: &mut Obj<'_>, members: &[(String, Doc)]) {
    for (key, doc) in members {
        write_member(o, key, doc);
    }
}

/// Arrays take no bare `true`/`false`/`null` (no format here has one),
/// so those go in wrapped in a one-member object.
fn write_items(a: &mut Arr<'_>, items: &[Doc]) {
    for doc in items {
        match doc {
            Doc::U64(v) => drop(a.u64(*v)),
            Doc::F64(v) => drop(a.f64(*v)),
            Doc::Str(v) => drop(a.str(v)),
            Doc::Arr(items) => write_items(&mut a.arr(), items),
            Doc::Obj(members) => write_members(&mut a.obj(), members),
            Doc::Bool(_) | Doc::Null => write_member(&mut a.obj(), "v", doc),
        }
    }
}

/// `doc` as the one member `"doc"` of a top-level object.
fn write(doc: &Doc) -> String {
    let mut out = String::new();
    write_member(&mut Obj::new(&mut out), "doc", doc);
    out
}

/// What reading `doc` back must give: a number as the text Rust prints
/// for it, a non-finite float as `null`. `Value::Num` borrows its text,
/// so the expected text is leaked (a test, a few bytes a case).
fn expected(doc: &Doc) -> Value<'static> {
    let num = |text: String| Value::Num(Box::leak(text.into_boxed_str()));
    match doc {
        Doc::U64(v) => num(v.to_string()),
        Doc::F64(v) if v.is_finite() => num(v.to_string()),
        Doc::F64(_) | Doc::Null => Value::Null,
        Doc::Bool(v) => Value::Bool(*v),
        Doc::Str(v) => Value::Str(Cow::Owned(v.clone())),
        Doc::Arr(items) => Value::Arr(
            items
                .iter()
                .map(|d| match d {
                    Doc::Bool(_) | Doc::Null => Value::Obj(vec![(Cow::Borrowed("v"), expected(d))]),
                    d => expected(d),
                })
                .collect(),
        ),
        Doc::Obj(members) => Value::Obj(
            members
                .iter()
                .map(|(k, d)| (Cow::Owned(k.clone()), expected(d)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_reader_reads_back_what_the_builders_write(doc in document()) {
        let text = write(&doc);
        let want = Value::Obj(vec![(Cow::Borrowed("doc"), expected(&doc))]);
        prop_assert_eq!(parse(&text).expect("a written document parses"), want);
        prop_assert!(validate(&text).is_ok());
    }

    #[test]
    fn numbers_survive_as_numbers(doc in document()) {
        // The reader keeps number text; the getters turn it back into
        // the value that was written, bit for bit (NaN for `null`).
        fn check(doc: &Doc, v: &Value<'_>) {
            match (doc, v) {
                (Doc::U64(n), v) => assert_eq!(v.as_u64(), Some(*n)),
                (Doc::F64(x), v) if x.is_finite() => {
                    assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()))
                }
                (Doc::F64(_), v) => assert!(v.as_f64().unwrap().is_nan()),
                (Doc::Arr(items), Value::Arr(vs)) => {
                    for (d, v) in items.iter().zip(vs) {
                        if !matches!(d, Doc::Bool(_) | Doc::Null) {
                            check(d, v);
                        }
                    }
                }
                (Doc::Obj(members), Value::Obj(vs)) => {
                    for ((_, d), (_, v)) in members.iter().zip(vs) {
                        check(d, v);
                    }
                }
                _ => {}
            }
        }
        let text = write(&doc);
        let parsed = parse(&text).unwrap();
        check(&doc, parsed.field("doc").unwrap());
    }

    #[test]
    fn every_proper_prefix_of_a_document_is_rejected(doc in document()) {
        let text = write(&doc);
        for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let prefix = &text[..end];
            prop_assert!(parse(prefix).is_err(), "accepted the prefix {prefix:?}");
            prop_assert!(validate(prefix).is_err(), "validated the prefix {prefix:?}");
        }
    }

    #[test]
    fn validator_and_reader_agree_on_damaged_documents(
        doc in document(),
        at in any::<usize>(),
        with in prop_oneof![
            Just("\""), Just("\\"), Just(","), Just(":"), Just("["), Just("]"),
            Just("{"), Just("}"), Just("0"), Just("-"), Just("e"), Just("."),
            Just(" "), Just("\n"), Just("\u{1}"), Just("\\ud800"), Just("null"), Just(""),
        ],
        delete in 0usize..3,
    ) {
        let text = write(&doc);
        let boundaries: Vec<usize> =
            (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
        let from = boundaries[at % boundaries.len()];
        let to = *boundaries
            .iter()
            .find(|&&i| i >= from + delete)
            .unwrap_or(&text.len());
        let damaged = format!("{}{with}{}", &text[..from], &text[to..]);
        prop_assert_eq!(
            parse(&damaged).map(drop),
            validate(&damaged),
            "the two disagree on {:?}", damaged
        );
    }
}

/// The malformed cases the validator's unit tests list (they stayed
/// with `hpf_obs::json`, the path they test), plus the well-formed ones:
/// the reader gives the same verdict and the same message.
#[test]
fn validator_and_reader_agree_on_the_corpus() {
    let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
    let fits = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    let mixed = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
    let corpus = [
        // well-formed
        "{}",
        "[]",
        "null",
        "-1.5e-3",
        "0",
        "-0",
        "1E+2",
        "\"a\\\"b\\u00e9\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":true}",
        " [ 1 , 2 ] ",
        "\"\\uD83D\\uDE00\"",
        "\"\\u00e9\\u0041\\/\\b\\f\"",
        "{\"a\":1,\"a\":2}",
        &fits,
        // malformed
        "",
        " ",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{a:1}",
        "tru",
        "007",
        "-",
        "1.",
        "1e",
        ".5",
        "+1",
        "1 2",
        "\"unterminated",
        "\"tab\there\"",
        "\"bad \\x escape\"",
        "\"\\u12g4\"",
        "\"\\u12\"",
        "{\"a\":1,}",
        "NaN",
        "-NaN",
        "Infinity",
        "-Infinity",
        "inf",
        "nan",
        "[NaN]",
        "{\"x\":Infinity}",
        "\"\\uD83D\"",
        "\"\\uD83Dx\"",
        "\"\\uD83D\\n\"",
        "\"\\uD800\\uD800\"",
        "\"\\uDE00\"",
        &deep,
        &mixed,
    ];
    for doc in corpus {
        assert_eq!(
            parse(doc).map(drop),
            validate(doc),
            "the two disagree on {doc:?}"
        );
    }
    assert!(corpus[..14].iter().all(|doc| validate(doc).is_ok()));
    assert!(corpus[14..].iter().all(|doc| validate(doc).is_err()));
}

/// Hostile depth is a typed error from both, not a stack overflow.
#[test]
fn a_hundred_thousand_open_brackets_are_a_typed_error() {
    for open in ["[", "{\"a\":"] {
        let hostile = open.repeat(100_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        assert_eq!(validate(&hostile).unwrap_err(), err);
    }
}

/// A counter never goes through `f64`.
#[test]
fn u64_max_reads_back_exactly() {
    let mut out = String::new();
    Obj::new(&mut out).u64("n", u64::MAX).f64("x", 0.5);
    assert_eq!(out, "{\"n\":18446744073709551615,\"x\":0.5}");
    let doc = parse(&out).unwrap();
    assert_eq!(doc.u64_of("n"), Ok(18446744073709551615));
    assert_eq!(doc.f64_of("n"), Ok(18446744073709551615.0));
    assert_eq!(doc.u64_of("x"), Err("bad integer for \"x\"".to_string()));
    assert_eq!(
        parse("18446744073709551616").unwrap().as_u64(),
        None,
        "one past u64::MAX is not a u64, and not silently an f64 either"
    );
}

/// The required-field getters name the key in their errors.
#[test]
fn getters_name_the_key() {
    let doc = parse("{\"s\":\"x\",\"n\":-1,\"a\":[1],\"z\":null}").unwrap();
    assert_eq!(doc.str_of("s"), Ok("x"));
    assert_eq!(doc.items_of("a").map(<[_]>::len), Ok(1));
    assert!(doc.f64_of("z").unwrap().is_nan(), "null is a written NaN");
    assert_eq!(doc.f64_of("n"), Ok(-1.0));
    for (err, want) in [
        (doc.field("q").map(drop), "missing field \"q\""),
        (doc.str_of("n").map(drop), "field \"n\" is not a string"),
        (doc.u64_of("n").map(drop), "bad integer for \"n\""),
        (doc.f64_of("s").map(drop), "bad number for \"s\""),
        (doc.items_of("s").map(drop), "field \"s\" is not an array"),
    ] {
        assert_eq!(err, Err(want.to_string()));
    }
    assert!(parse("[1]").unwrap().field("a").is_err(), "not an object");
}

/// Strings borrow from the source unless they held an escape.
#[test]
fn strings_borrow_unless_escaped() {
    let doc = parse("[\"plain é\",\"esc\\n\"]").unwrap();
    let items = doc.items().unwrap();
    assert!(matches!(&items[0], Value::Str(Cow::Borrowed("plain é"))));
    assert!(matches!(&items[1], Value::Str(Cow::Owned(s)) if s == "esc\n"));
}

/// The writer's layout: commas owned by the builders, containers closed
/// on drop, `separated_by` one element per line inside the brackets.
#[test]
fn builders_own_the_punctuation() {
    let mut out = String::new();
    {
        let mut o = Obj::new(&mut out);
        o.str("k\"ey", "v\n").null("none").bool("yes", true);
        o.f64_as("fixed", 0.5, format_args!("{:.3}", 0.5)).f64_as(
            "nan",
            f64::NAN,
            format_args!("{:.3}", f64::NAN),
        );
        {
            let mut lines = o.arr("lines").separated_by(",\n");
            lines.u64(1).str("two");
            lines.obj().f64("x", f64::INFINITY);
            lines.arr().f64(1.5).f64(-0.0);
        }
        o.arr("empty");
        o.arr("empty_lines").separated_by(",\n");
        o.obj("nested");
    }
    assert_eq!(
        out,
        "{\"k\\\"ey\":\"v\\n\",\"none\":null,\"yes\":true,\"fixed\":0.500,\"nan\":null,\
         \"lines\":[\n1,\n\"two\",\n{\"x\":null},\n[1.5,-0]\n],\
         \"empty\":[],\"empty_lines\":[\n\n],\"nested\":{}}"
    );
    validate(&out).unwrap();
    assert_eq!(escape("a\"b\\c\u{1}\u{1f}é"), "a\\\"b\\\\c\\u0001\\u001fé");
    assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    assert_eq!(json_f64(3.0), "3");
}
