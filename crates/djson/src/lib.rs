//! # djson — a minimal, deterministic JSON layer
//!
//! Replaces the `serde`/`serde_json` dependency for this workspace so
//! tier-1 verification builds with no crate registry. Scope is exactly
//! what the workspace needs, nothing more:
//!
//! * [`Json`] — a value tree whose objects are *insertion-ordered*
//!   vectors (serialization is deterministic: same struct, same bytes —
//!   the cross-figure cache hashes these bytes) and whose numbers keep
//!   their exact source token ([`Number`]), so `u64` bitset words and
//!   shortest-round-trip `f64`s survive a round trip losslessly.
//! * [`parse`] — a strict recursive-descent parser with line/column
//!   errors and a depth limit.
//! * [`to_string`] / [`to_string_pretty`] / [`to_vec`] — compact and
//!   2-space-indented writers.
//! * [`ToJson`] / [`FromJson`] — the codec traits, implemented for the
//!   primitives/containers the workspace serializes, plus the
//!   [`impl_json_struct!`], [`impl_json_enum!`], and
//!   [`impl_json_newtype!`] macros that stand in for the former
//!   `#[derive(Serialize, Deserialize)]`.
//!
//! Wire shapes mirror what the serde derives produced, so files written
//! by earlier builds still load: structs are objects keyed by field
//! name, unit enum variants are bare strings, data-carrying variants
//! are single-key objects (`{"Randomized":{"seed":5}}`), newtypes are
//! transparent, and tuples are fixed-length arrays.
//!
//! Decoding is strict by design: unknown object fields, missing
//! non-optional fields, wrong types, duplicate keys, lossy numbers, and
//! trailing input are all *errors with a field path* (e.g.
//! `Scenario.system: devices[3].cpu: expected number, got string`), not
//! panics — malformed experiment files must fail readably.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod parse;
mod value;
mod write;

pub use codec::{variant_payload, FromJson, ObjReader, ToJson};
pub use parse::parse;
pub use value::{Json, JsonError, Number};

/// Parses `text` and decodes it into `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax error (with line
/// and column) or decode mismatch (with a field path).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Encodes `value` compactly (no whitespace).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render(false)
}

/// Encodes `value` with 2-space indentation, one element per line.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render(true)
}

/// Encodes `value` compactly as bytes — the deterministic hashing input
/// used by the experiment caches.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_exact_numbers() {
        // u64 beyond f64's 53-bit mantissa and a shortest-round-trip f64.
        let words: Vec<u64> = vec![u64::MAX, 0x8000_0000_0000_0001, 0];
        let text = to_string(&words);
        assert_eq!(text, "[18446744073709551615,9223372036854775809,0]");
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, words);

        let xs: Vec<f64> = vec![0.1, -0.0, 1e300, 5e-324, std::f64::consts::PI];
        let back: Vec<f64> = from_str(&to_string(&xs)).unwrap();
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null_and_fail_to_decode() {
        assert_eq!(to_string(&f64::INFINITY), "null");
        assert_eq!(to_string(&f64::NAN), "null");
        let err = from_str::<f64>("null").unwrap_err();
        assert!(err.to_string().contains("expected number"), "{err}");
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::from(1u64), Json::from(2u64)]),
            ),
            ("b".into(), Json::Obj(vec![])),
        ]);
        let pretty = v.render(true);
        assert_eq!(pretty, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}");
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn option_and_tuple_shapes_match_serde() {
        let some: Option<u64> = Some(3);
        let none: Option<u64> = None;
        assert_eq!(to_string(&some), "3");
        assert_eq!(to_string(&none), "null");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        let pair = (1.5f64, 2.5f64);
        assert_eq!(to_string(&pair), "[1.5,2.5]");
        assert_eq!(from_str::<(f64, f64)>("[1.5,2.5]").unwrap(), pair);
        let err = from_str::<(f64, f64)>("[1.5]").unwrap_err();
        assert!(err.to_string().contains("expected array of 2"), "{err}");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{0} unicode \u{1F600}";
        let text = to_string(&s.to_string());
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
