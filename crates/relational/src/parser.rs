//! A small datalog-style parser for CQs and UCQs.
//!
//! Syntax (one CQ):
//!
//! ```text
//! Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1)
//! ```
//!
//! * Identifiers starting with a lowercase letter are variables.
//! * Single-quoted strings and integer literals are constants.
//! * Identifiers starting with an uppercase letter outside the head/atom
//!   position are rejected (constants must be quoted to avoid ambiguity with
//!   relation names).
//!
//! A UCQ is a sequence of CQs separated by `;` or newlines.

use crate::{Atom, Cq, Schema, Term, Ucq, Value, VarId};
use std::collections::HashMap;
use std::fmt;

/// Errors produced by the query parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input did not match the expected grammar.
    Syntax(String),
    /// An atom used a relation name not in the schema.
    UnknownRelation(String),
    /// An atom's arity does not match the schema.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity declared in the schema.
        expected: usize,
        /// Arity used in the query text.
        got: usize,
    },
    /// A head variable does not appear in the body.
    UnsafeHead(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            ParseError::UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            ParseError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for {relation}: expected {expected}, got {got}"
            ),
            ParseError::UnsafeHead(v) => write!(f, "head variable {v} not in body"),
        }
    }
}

impl std::error::Error for ParseError {}

struct Tokenizer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Turnstile,
    End,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(Tok::End);
        }
        let c = bytes[self.pos];
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b':' => {
                if self.src[self.pos..].starts_with(":-") {
                    self.pos += 2;
                    Ok(Tok::Turnstile)
                } else {
                    Err(ParseError::Syntax(format!(
                        "expected ':-' at byte {}",
                        self.pos
                    )))
                }
            }
            b'\'' => {
                let start = self.pos + 1;
                match self.src[start..].find('\'') {
                    Some(end) => {
                        let s = self.src[start..start + end].to_owned();
                        self.pos = start + end + 1;
                        Ok(Tok::Str(s))
                    }
                    None => Err(ParseError::Syntax("unterminated string literal".into())),
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse::<i64>()
                    .map(Tok::Int)
                    .map_err(|e| ParseError::Syntax(format!("bad integer: {e}")))
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Ok(Tok::Ident(self.src[start..self.pos].to_owned()))
            }
            c => Err(ParseError::Syntax(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(ParseError::Syntax(format!(
                "expected {want:?}, got {got:?}"
            )))
        }
    }
}

struct CqParser<'a> {
    toks: Tokenizer<'a>,
    schema: &'a Schema,
    vars: HashMap<String, VarId>,
}

impl<'a> CqParser<'a> {
    fn term_from(&mut self, tok: Tok) -> Result<Term, ParseError> {
        match tok {
            Tok::Int(i) => Ok(Term::Const(Value::Int(i))),
            Tok::Str(s) => Ok(Term::Const(Value::str(&s))),
            Tok::Ident(name) => {
                if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                    return Err(ParseError::Syntax(format!(
                        "identifier '{name}' starts uppercase; quote constants or lowercase variables"
                    )));
                }
                let next = VarId(self.vars.len() as u32);
                Ok(Term::Var(*self.vars.entry(name).or_insert(next)))
            }
            t => Err(ParseError::Syntax(format!("expected term, got {t:?}"))),
        }
    }

    fn term_list(&mut self) -> Result<Vec<Term>, ParseError> {
        self.toks.expect(&Tok::LParen)?;
        let mut terms = Vec::new();
        loop {
            let tok = self.toks.next()?;
            if tok == Tok::RParen && terms.is_empty() {
                return Ok(terms);
            }
            terms.push(self.term_from(tok)?);
            match self.toks.next()? {
                Tok::Comma => continue,
                Tok::RParen => return Ok(terms),
                t => {
                    return Err(ParseError::Syntax(format!(
                        "expected ',' or ')', got {t:?}"
                    )))
                }
            }
        }
    }

    fn parse(mut self) -> Result<Cq, ParseError> {
        let head_name = match self.toks.next()? {
            Tok::Ident(n) => n,
            t => return Err(ParseError::Syntax(format!("expected head name, got {t:?}"))),
        };
        let head = self.term_list()?;
        self.toks.expect(&Tok::Turnstile)?;
        let mut body = Vec::new();
        loop {
            let rel_name = match self.toks.next()? {
                Tok::Ident(n) => n,
                t => return Err(ParseError::Syntax(format!("expected relation, got {t:?}"))),
            };
            let rel = self
                .schema
                .relation_id(&rel_name)
                .ok_or_else(|| ParseError::UnknownRelation(rel_name.clone()))?;
            let terms = self.term_list()?;
            if terms.len() != self.schema.arity(rel) {
                return Err(ParseError::ArityMismatch {
                    relation: rel_name,
                    expected: self.schema.arity(rel),
                    got: terms.len(),
                });
            }
            body.push(Atom { rel, terms });
            match self.toks.next()? {
                Tok::Comma => continue,
                Tok::End => break,
                t => {
                    return Err(ParseError::Syntax(format!(
                        "expected ',' or end, got {t:?}"
                    )))
                }
            }
        }
        let cq = Cq {
            head_name,
            head,
            body,
        };
        if !cq.is_safe() {
            let names: HashMap<VarId, String> =
                self.vars.into_iter().map(|(n, v)| (v, n)).collect();
            let bad = cq
                .head
                .iter()
                .filter_map(Term::as_var)
                .find(|v| !cq.body.iter().flat_map(|a| a.variables()).any(|b| b == *v))
                .map(|v| {
                    names
                        .get(&v)
                        .cloned()
                        .unwrap_or_else(|| format!("v{}", v.0))
                })
                .unwrap_or_default();
            return Err(ParseError::UnsafeHead(bad));
        }
        Ok(cq)
    }
}

/// Parses a single conjunctive query against `schema`.
pub fn parse_cq(src: &str, schema: &Schema) -> Result<Cq, ParseError> {
    CqParser {
        toks: Tokenizer::new(src),
        schema,
        vars: HashMap::new(),
    }
    .parse()
}

/// Parses a UCQ: CQs separated by `;` (a `;` inside a quoted constant
/// belongs to the constant).
pub fn parse_ucq(src: &str, schema: &Schema) -> Result<Ucq, ParseError> {
    let mut quoted = false;
    let disjuncts = src
        .split(|c| {
            quoted ^= c == '\'';
            c == ';' && !quoted
        })
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_cq(s, schema))
        .collect::<Result<Vec<_>, _>>()?;
    if disjuncts.is_empty() {
        return Err(ParseError::Syntax("empty UCQ".into()));
    }
    let arity = disjuncts[0].head.len();
    if disjuncts.iter().any(|d| d.head.len() != arity) {
        return Err(ParseError::Syntax(
            "UCQ disjuncts disagree on head arity".into(),
        ));
    }
    Ok(Ucq { disjuncts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation("Person", &["pid", "name", "age"]);
        s.add_relation("Hobbies", &["pid", "hobby", "source"]);
        s.add_relation("Interests", &["pid", "interest", "source"]);
        s
    }

    #[test]
    fn parses_running_example_query() {
        let s = schema();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', src1), Interests(id, 'Music', src2)",
            &s,
        )
        .unwrap();
        assert_eq!(q.body.len(), 3);
        assert_eq!(q.head.len(), 1);
        assert!(q.is_connected());
        assert!(q.is_safe());
        // 'Dance' is a constant, id is shared.
        assert_eq!(q.body[1].terms[1], Term::Const(Value::str("Dance")));
        assert_eq!(q.body[0].terms[0], q.head[0]);
    }

    #[test]
    fn rejects_unknown_relation() {
        let s = schema();
        let e = parse_cq("Q(x) :- Nope(x)", &s).unwrap_err();
        assert_eq!(e, ParseError::UnknownRelation("Nope".into()));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let s = schema();
        let e = parse_cq("Q(x) :- Person(x)", &s).unwrap_err();
        assert!(matches!(
            e,
            ParseError::ArityMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unsafe_head() {
        let s = schema();
        let e = parse_cq("Q(zz) :- Person(x, y, z)", &s).unwrap_err();
        assert_eq!(e, ParseError::UnsafeHead("zz".into()));
    }

    #[test]
    fn rejects_uppercase_bareword_constants() {
        let s = schema();
        assert!(parse_cq("Q(x) :- Hobbies(x, Dance, y)", &s).is_err());
    }

    #[test]
    fn parses_integer_constants() {
        let s = schema();
        let q = parse_cq("Q(x) :- Person(x, n, 27)", &s).unwrap();
        assert_eq!(q.body[0].terms[2], Term::Const(Value::Int(27)));
    }

    #[test]
    fn parses_ucq() {
        let s = schema();
        let u = parse_ucq("Q(x) :- Person(x, n, a); Q(x) :- Hobbies(x, h, src)", &s).unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        let err = parse_ucq("Q(x) :- Person(x, n, a); Q(x, y) :- Hobbies(x, y, s)", &s);
        assert!(err.is_err());
    }

    #[test]
    fn ucq_semicolons_inside_constants_do_not_split() {
        let s = schema();
        let one = parse_ucq("Q(x) :- Hobbies(x, 'a;b', y)", &s).unwrap();
        assert_eq!(
            one.disjuncts,
            vec![parse_cq("Q(x) :- Hobbies(x, 'a;b', y)", &s).unwrap()]
        );
        let two = parse_ucq(
            "Q(x) :- Hobbies(x, ';', y); Q(x) :- Interests(x, 'c;d;', 'e')",
            &s,
        )
        .unwrap();
        assert_eq!(two.disjuncts.len(), 2);
        assert_eq!(
            two.disjuncts[0].body[0].terms[1],
            Term::Const(Value::str(";"))
        );
        assert_eq!(
            two.disjuncts[1].body[0].terms[1],
            Term::Const(Value::str("c;d;"))
        );
    }

    #[test]
    fn roundtrip_display_parses_back() {
        let s = schema();
        let q = parse_cq(
            "Q(id) :- Person(id, name, age), Hobbies(id, 'Dance', w)",
            &s,
        )
        .unwrap();
        let shown = q.display(&s).to_string();
        let q2 = parse_cq(&shown, &s).unwrap();
        assert_eq!(q.body.len(), q2.body.len());
        assert!(q2.is_safe());
    }
}
