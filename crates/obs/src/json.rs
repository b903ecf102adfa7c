//! The JSON codec — writer, reader and strict validator over one
//! grammar — lives in the leaf crate [`hpf_json`], which `hpf-machine`,
//! `hpf-service` and `hpf-partition` write through as well. This module
//! is its re-export, so `hpf_obs::json::{validate, escape, ..}` stay
//! the paths `trace-report`, the experiments and the tests use.

pub use hpf_json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "0",
            "\"a\\\"b\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":true}",
            " [ 1 , 2 ] ",
        ] {
            assert!(validate(ok).is_ok(), "should accept {ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "007",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "NaN",
        ] {
            assert!(validate(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\u{1}"), "a\\nb\\u0001");
        let quoted = format!("\"{}\"", escape("x\n\"\\\ty\u{7}"));
        assert!(validate(&quoted).is_ok());
    }

    #[test]
    fn json_f64_maps_nonfinite_to_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn rejects_nonfinite_number_literals() {
        for bad in [
            "NaN",
            "-NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "-inf",
            "1e",
            "nan",
        ] {
            let err = validate(bad).unwrap_err();
            assert!(!err.is_empty(), "should reject {bad:?}");
            // Same rejection when embedded in a container.
            assert!(validate(&format!("[{bad}]")).is_err(), "in array: {bad}");
            assert!(
                validate(&format!("{{\"x\":{bad}}}")).is_err(),
                "in object: {bad}"
            );
        }
        // json_f64 renders non-finite as null, which must validate.
        assert!(validate(&format!("[{}]", json_f64(f64::NAN))).is_ok());
    }

    #[test]
    fn rejects_deeply_nested_arrays_with_typed_error() {
        let fits = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(validate(&fits).is_ok(), "depth {MAX_DEPTH} must pass");
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = validate(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        // Hostile depth far past the limit must not overflow the stack.
        let hostile = "[".repeat(100_000);
        assert!(validate(&hostile).is_err());
        // Mixed object/array nesting counts too.
        let mixed = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(validate(&mixed)
            .unwrap_err()
            .contains("nesting deeper than"));
    }

    #[test]
    fn rejects_lone_surrogates_in_strings() {
        // Valid pair: U+1F600 as \uD83D\uDE00.
        assert!(validate("\"\\uD83D\\uDE00\"").is_ok());
        // Lone high, high+non-escape, high+wrong-escape, lone low.
        for (bad, want) in [
            ("\"\\uD83D\"", "lone high surrogate"),
            ("\"\\uD83Dx\"", "lone high surrogate"),
            ("\"\\uD83D\\n\"", "lone high surrogate"),
            ("\"\\uD800\\uD800\"", "lone high surrogate"),
            ("\"\\uDE00\"", "lone low surrogate"),
        ] {
            let err = validate(bad).unwrap_err();
            assert!(err.contains(want), "{bad}: got {err}");
        }
        // Non-surrogate escapes are unaffected.
        assert!(validate("\"\\u00e9\\u0041\"").is_ok());
    }
}
