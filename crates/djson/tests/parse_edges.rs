//! Fixture tests for the parser's edge cases: exponent overflow, the
//! negative-zero token, and duplicate object keys.
//!
//! These pin behavior the experiment files rely on: a number that
//! overflows `f64` is a *typed decode* error (never a silent infinity),
//! `-0` keeps its sign bit through the token representation, and
//! duplicate keys are rejected wherever they appear, with positions.

use djson::{from_str, parse, Json, Number};

/// `1e999` is valid JSON grammar, so it parses into a value — the exact
/// token is preserved — but decoding it into `f64` is a typed error, not
/// `inf`.
#[test]
fn exponent_overflow_is_a_typed_decode_error() {
    let v = parse("1e999").unwrap();
    match &v {
        Json::Num(n) => {
            assert_eq!(n.as_token(), "1e999");
            assert_eq!(n.as_f64(), None, "overflowing token must not yield inf");
        }
        other => panic!("expected number, got {other:?}"),
    }
    // The exact token round-trips even though no f64 can hold it.
    assert_eq!(v.render(false), "1e999");

    for overflow in ["1e999", "-1e999", "1e308999", "123456789e999999"] {
        let err = from_str::<f64>(overflow).unwrap_err();
        assert!(
            err.to_string().contains("overflows f64"),
            "{overflow}: {err}"
        );
    }
    // Underflow is not overflow: tiny magnitudes round to (signed) zero.
    assert_eq!(from_str::<f64>("1e-999").unwrap(), 0.0);
    assert_eq!(from_str::<f64>("-1e-999").unwrap(), 0.0);
    assert!(from_str::<f64>("-1e-999").unwrap().is_sign_negative());
    // The largest finite double still decodes.
    assert_eq!(from_str::<f64>("1.7976931348623157e308").unwrap(), f64::MAX);
}

/// Overflowing tokens nested in a struct field report the field path.
#[test]
fn exponent_overflow_reports_the_field_path() {
    let err = from_str::<Vec<f64>>("[1.0, 2e999]").unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("overflows f64") && text.contains('1'),
        "path should name the offending element: {text}"
    );
}

/// `-0` is legal JSON: it decodes to a genuine negative zero for floats,
/// round-trips its token, and is rejected by the unsigned decoders.
#[test]
fn negative_zero_keeps_its_sign_and_stays_out_of_unsigned() {
    let v = from_str::<f64>("-0").unwrap();
    assert_eq!(v, 0.0);
    assert!(v.is_sign_negative(), "-0 must keep its sign bit");
    let v = from_str::<f64>("-0.0").unwrap();
    assert!(v.is_sign_negative());

    // Token-exact round trip at the value level.
    assert_eq!(parse("-0").unwrap().render(false), "-0");
    // And f64 -> token -> f64 keeps the sign too.
    let n = Number::from_f64(-0.0).unwrap();
    assert_eq!(n.as_token(), "-0");
    assert!(n.as_f64().unwrap().is_sign_negative());

    // Unsigned decoders reject the `-` outright rather than folding it
    // into zero; i64 accepts it as plain zero (no sign to preserve).
    assert!(from_str::<u64>("-0")
        .unwrap_err()
        .to_string()
        .contains("-0"));
    assert!(from_str::<usize>("-0").is_err());
    assert_eq!(from_str::<i64>("-0").unwrap(), 0);
}

/// Duplicate keys are rejected at any nesting depth, naming the key and
/// the position of the second occurrence.
#[test]
fn duplicate_keys_rejected_at_any_depth() {
    let err = parse("{\"a\":1,\"a\":2}").unwrap_err();
    assert!(err.to_string().contains("duplicate object key `a`"));

    let nested = "{\n  \"outer\": {\"x\": 1, \"x\": 2}\n}";
    let err = parse(nested).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("duplicate object key `x`"), "{text}");
    assert!(
        text.contains("line 2"),
        "position should be reported: {text}"
    );

    // Escapes are resolved before comparison: `\u0061` is `a`.
    let escaped = "{\"a\":1,\"\\u0061\":2}";
    let err = parse(escaped).unwrap_err();
    assert!(
        err.to_string().contains("duplicate object key `a`"),
        "escaped spelling of the same key must still collide: {err}"
    );

    // Arrays of objects: each object checks its own keys independently.
    assert!(parse("[{\"k\":1},{\"k\":2}]").is_ok());
    assert!(parse("[{\"k\":1,\"k\":2}]").is_err());
}

/// Grammar edges around the exponent marker stay errors (not panics and
/// not silent truncations).
#[test]
fn malformed_exponents_are_syntax_errors() {
    for bad in ["1e", "1e+", "1e-", "1E ", "1e1.5", "1.e5", "-e5", "0e"] {
        let r = parse(bad);
        assert!(r.is_err(), "{bad:?} must be rejected, got {r:?}");
    }
    // Huge exponent digits are grammar-fine; only typed decode objects.
    assert!(parse("1e18446744073709551616").is_ok());
}

/// String parsing is linear in the input: a document of more than a
/// MiB of short ASCII and multi-byte UTF-8 strings parses and
/// round-trips. (Re-validating the rest of the input per character made
/// this quadratic; multi-MiB traces never finished.)
#[test]
fn megabyte_documents_of_short_strings_round_trip() {
    let words = [
        "span",
        "données",
        "линия",
        "任务",
        "🚀",
        "a\"b\\c",
        "tab\there",
    ];
    let strings: Vec<String> = (0..80_000)
        .map(|i| format!("{}-{i}", words[i % words.len()]))
        .collect();
    let text = djson::to_string(&strings);
    assert!(
        text.len() >= 1 << 20,
        "document is only {} bytes",
        text.len()
    );
    let started = std::time::Instant::now();
    let back: Vec<String> = from_str(&text).unwrap();
    assert_eq!(back, strings);
    assert_eq!(parse(&text).unwrap().render(false), text);
    // Generous: the linear parser takes milliseconds; the quadratic one
    // took minutes on this input.
    assert!(started.elapsed().as_secs() < 10, "{:?}", started.elapsed());
}
