//! Constants of the database domain.

use std::fmt;
use std::sync::Arc;

/// A constant of the domain `C`: an integer or an interned string.
///
/// Strings are reference-counted so that cloning tuples and bindings during
/// evaluation is cheap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Parses a raw field literal: anything `i64` accepts becomes
    /// [`Value::Int`], everything else a [`Value::Str`].
    ///
    /// The exact semantics, pinned by unit tests:
    ///
    /// * Integer recognition is precisely `str::parse::<i64>` — an optional
    ///   leading `+` or `-` followed by ASCII digits, no whitespace, no
    ///   separators. Non-canonical spellings **normalize**: `"+5"` and
    ///   `"005"` parse to `Int(5)`, `"-0"` to `Int(0)`.
    /// * Out-of-range digit strings (beyond `i64`) fall back to `Str`, as
    ///   does anything else (`"5 "`, `"1_000"`, `"0x1f"`, `""`).
    /// * [`Display`](std::fmt::Display) renders the canonical decimal form,
    ///   so `parse(&int.to_string())` is the identity on integers, while
    ///   `parse` ∘ `Display` is *not* the identity on textual variants
    ///   (`"+5"` → `Int(5)` → `"5"`), nor on strings (`Display` adds the
    ///   quoting `parse` does not strip: `Str("x")` renders as `'x'`).
    ///
    /// `parse` is the raw-field decoder used by
    /// [`Tuple::parse`](crate::Tuple::parse) and the data generators; the
    /// query parser has its own tokenizer and does **not** route through
    /// it.
    pub fn parse(s: &str) -> Self {
        match s.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::str(s),
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_discriminates_ints() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("Dance"), Value::str("Dance"));
    }

    #[test]
    fn parse_normalizes_noncanonical_int_spellings() {
        // Pinned: integer recognition is exactly `str::parse::<i64>`, so
        // sign and leading-zero variants normalize to one canonical Int.
        assert_eq!(Value::parse("+5"), Value::Int(5));
        assert_eq!(Value::parse("-0"), Value::Int(0));
        assert_eq!(Value::parse("005"), Value::Int(5));
        assert_eq!(Value::parse("+0"), Value::Int(0));
        assert_eq!(Value::parse(&i64::MIN.to_string()), Value::Int(i64::MIN));
    }

    #[test]
    fn parse_rejects_near_ints_as_strings() {
        // Out-of-range, whitespace, separators, radix prefixes: all Str.
        assert_eq!(
            Value::parse("9223372036854775808"), // i64::MAX + 1
            Value::str("9223372036854775808")
        );
        assert_eq!(Value::parse(" 5"), Value::str(" 5"));
        assert_eq!(Value::parse("5 "), Value::str("5 "));
        assert_eq!(Value::parse("1_000"), Value::str("1_000"));
        assert_eq!(Value::parse("0x1f"), Value::str("0x1f"));
        assert_eq!(Value::parse(""), Value::str(""));
        assert_eq!(Value::parse("+"), Value::str("+"));
    }

    #[test]
    fn display_then_parse_is_identity_on_canonical_ints_only() {
        for i in [0i64, 5, -5, i64::MAX, i64::MIN] {
            let v = Value::Int(i);
            assert_eq!(Value::parse(&v.to_string()), v);
        }
        // Textual variants normalize (parse ∘ display ∘ parse is stable)...
        assert_eq!(Value::parse("+5").to_string(), "5");
        assert_eq!(Value::parse("-0").to_string(), "0");
        // ...and strings do not round-trip through Display's quoting.
        assert_eq!(
            Value::parse(&Value::str("x").to_string()),
            Value::str("'x'")
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Value::str("b"),
            Value::Int(2),
            Value::str("a"),
            Value::Int(1),
        ];
        v.sort();
        assert_eq!(v[0], Value::Int(1));
        assert_eq!(v[3], Value::str("b"));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("x").to_string(), "'x'");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::str("y").as_str(), Some("y"));
    }
}
