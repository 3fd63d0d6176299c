//! A textual policy DSL standing in for XACML's XML syntax.
//!
//! The paper's arguments depend on XACML's *semantics* (targets, rules,
//! combining algorithms, obligations); the XML surface syntax only
//! matters for message size, which `dacs-wire`'s verbose codec models.
//! This module provides a human-writable syntax with a lexer, a
//! recursive-descent parser and a pretty-printer (round-trip tested).
//!
//! # Example
//!
//! ```text
//! policy "doctors-read" first-applicable {
//!   target {
//!     resource "id" ~= "ehr/*";
//!   }
//!   rule "permit-doctors" permit {
//!     target {
//!       subject "role" == "doctor";
//!       action "id" == "read";
//!     }
//!     condition lt(hour-of(attr(env, "current-time")), 17)
//!     obligation "log" on permit {
//!       "subject" = attr(subject, "id");
//!     }
//!   }
//!   rule "default-deny" deny { }
//! }
//! ```

use crate::attr::{AttrName, AttrValue, AttributeId, Category};
use crate::expr::{Expr, Func, MAX_DEPTH};
use crate::policy::{CombiningAlg, Effect, ObligationExpr, Policy, PolicyId, Rule};
use crate::target::{AllOf, AnyOf, AttrMatch, MatchOp, Target};
use std::fmt::Write as _;

/// A parse error with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------- lexer --

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Semi,
    Assign,
    EqEq,
    GlobEq,
    Gt,
    Ge,
    Lt,
    Le,
    Bang,
    Hash,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Int(i) => write!(f, "integer {i}"),
            Tok::Float(x) => write!(f, "float {x}"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::GlobEq => write!(f, "`~=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Hash => write!(f, "`#`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: u32,
    col: u32,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    let (mut line, mut col) = (1u32, 1u32);

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }

    loop {
        let (tl, tc) = (line, col);
        let Some(&c) = chars.peek() else {
            out.push(Spanned {
                tok: Tok::Eof,
                line,
                col,
            });
            break;
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '/' => {
                // Comments: `//` to end of line.
                bump!();
                if chars.peek() == Some(&'/') {
                    while let Some(&n) = chars.peek() {
                        if n == '\n' {
                            break;
                        }
                        bump!();
                    }
                } else {
                    return Err(ParseError {
                        line: tl,
                        col: tc,
                        message: "unexpected `/` (use `//` for comments)".into(),
                    });
                }
            }
            '{' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::LBrace,
                    line: tl,
                    col: tc,
                });
            }
            '}' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::RBrace,
                    line: tl,
                    col: tc,
                });
            }
            '(' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::LParen,
                    line: tl,
                    col: tc,
                });
            }
            ')' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::RParen,
                    line: tl,
                    col: tc,
                });
            }
            ',' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Comma,
                    line: tl,
                    col: tc,
                });
            }
            ';' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Semi,
                    line: tl,
                    col: tc,
                });
            }
            '!' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Bang,
                    line: tl,
                    col: tc,
                });
            }
            '#' => {
                bump!();
                out.push(Spanned {
                    tok: Tok::Hash,
                    line: tl,
                    col: tc,
                });
            }
            '=' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        tok: Tok::EqEq,
                        line: tl,
                        col: tc,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Assign,
                        line: tl,
                        col: tc,
                    });
                }
            }
            '~' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        tok: Tok::GlobEq,
                        line: tl,
                        col: tc,
                    });
                } else {
                    return Err(ParseError {
                        line: tl,
                        col: tc,
                        message: "expected `~=`".into(),
                    });
                }
            }
            '>' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        tok: Tok::Ge,
                        line: tl,
                        col: tc,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Gt,
                        line: tl,
                        col: tc,
                    });
                }
            }
            '<' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        tok: Tok::Le,
                        line: tl,
                        col: tc,
                    });
                } else {
                    out.push(Spanned {
                        tok: Tok::Lt,
                        line: tl,
                        col: tc,
                    });
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        Some('"') => break,
                        Some('\\') => match bump!() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => {
                                return Err(ParseError {
                                    line,
                                    col,
                                    message: format!("bad escape {other:?}"),
                                })
                            }
                        },
                        Some(c) => s.push(c),
                        None => {
                            return Err(ParseError {
                                line,
                                col,
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    line: tl,
                    col: tc,
                });
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                if c == '-' {
                    s.push('-');
                    bump!();
                    if !chars.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                        return Err(ParseError {
                            line: tl,
                            col: tc,
                            message: "expected digit after `-`".into(),
                        });
                    }
                }
                let mut is_float = false;
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_digit() {
                        s.push(n);
                        bump!();
                    } else if n == '.' && !is_float {
                        is_float = true;
                        s.push('.');
                        bump!();
                    } else {
                        break;
                    }
                }
                let tok = if is_float {
                    Tok::Float(s.parse().map_err(|_| ParseError {
                        line: tl,
                        col: tc,
                        message: format!("bad float literal {s}"),
                    })?)
                } else {
                    Tok::Int(s.parse().map_err(|_| ParseError {
                        line: tl,
                        col: tc,
                        message: format!("bad integer literal {s}"),
                    })?)
                };
                out.push(Spanned {
                    tok,
                    line: tl,
                    col: tc,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_alphanumeric() || n == '_' || n == '-' {
                        s.push(n);
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    tok: Tok::Ident(s),
                    line: tl,
                    col: tc,
                });
            }
            other => {
                return Err(ParseError {
                    line: tl,
                    col: tc,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Spanned {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let t = self.next();
        if t.tok == tok {
            Ok(())
        } else {
            Err(ParseError {
                line: t.line,
                col: t.col,
                message: format!("expected {tok}, found {}", t.tok),
            })
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        let t = self.next();
        match &t.tok {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(ParseError {
                line: t.line,
                col: t.col,
                message: format!("expected `{kw}`, found {other}"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Str(s) => Ok(s),
            other => Err(ParseError {
                line: t.line,
                col: t.col,
                message: format!("expected string, found {other}"),
            }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line: t.line,
                col: t.col,
                message: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn peek_ident(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn combining(&mut self) -> Result<CombiningAlg, ParseError> {
        let name = self.ident()?;
        CombiningAlg::parse(&name)
            .ok_or_else(|| self.err(format!("unknown combining algorithm `{name}`")))
    }

    fn category(&mut self) -> Result<Category, ParseError> {
        let name = self.ident()?;
        Category::parse(&name).ok_or_else(|| self.err(format!("unknown category `{name}`")))
    }

    fn literal(&mut self) -> Result<AttrValue, ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Str(s) => Ok(AttrValue::from(s)),
            Tok::Int(i) => Ok(AttrValue::Integer(i)),
            Tok::Float(x) => Ok(AttrValue::Double(x)),
            Tok::Ident(s) if s == "true" => Ok(AttrValue::Boolean(true)),
            Tok::Ident(s) if s == "false" => Ok(AttrValue::Boolean(false)),
            Tok::Ident(s) if s == "time" => {
                self.expect(Tok::LParen)?;
                let inner = self.next();
                let v = match inner.tok {
                    Tok::Int(i) if i >= 0 => i as u64,
                    other => {
                        return Err(ParseError {
                            line: inner.line,
                            col: inner.col,
                            message: format!(
                                "expected non-negative integer in time(), found {other}"
                            ),
                        })
                    }
                };
                self.expect(Tok::RParen)?;
                Ok(AttrValue::Time(v))
            }
            other => Err(ParseError {
                line: t.line,
                col: t.col,
                message: format!("expected literal, found {other}"),
            }),
        }
    }

    fn match_op(&mut self) -> Result<MatchOp, ParseError> {
        let t = self.next();
        Ok(match t.tok {
            Tok::EqEq => MatchOp::Equals,
            Tok::GlobEq => MatchOp::Glob,
            Tok::Gt => MatchOp::GreaterThan,
            Tok::Ge => MatchOp::GreaterOrEqual,
            Tok::Lt => MatchOp::LessThan,
            Tok::Le => MatchOp::LessOrEqual,
            Tok::Ident(ref s) if s == "contains" => MatchOp::Contains,
            other => {
                return Err(ParseError {
                    line: t.line,
                    col: t.col,
                    message: format!("expected match operator, found {other}"),
                })
            }
        })
    }

    /// A quoted attribute name, interned: one past the name table's
    /// bound is a parse error at the name, never a panic.
    fn attr_name(&mut self) -> Result<AttrName, ParseError> {
        let (line, col) = (self.peek().line, self.peek().col);
        let name = self.string()?;
        AttrName::intern(&name).map_err(|e| ParseError {
            line,
            col,
            message: e.to_string(),
        })
    }

    fn attr_match(&mut self) -> Result<AttrMatch, ParseError> {
        let category = self.category()?;
        let name = self.attr_name()?;
        let op = self.match_op()?;
        let value = self.literal()?;
        Ok(AttrMatch {
            attr: AttributeId::new(category, name),
            op,
            value,
        })
    }

    /// `target { clause* }` where clause is a simple match terminated by
    /// `;` or an explicit `any { all { ... } ... }` block.
    fn target(&mut self) -> Result<Target, ParseError> {
        self.expect_ident("target")?;
        self.expect(Tok::LBrace)?;
        let mut any_ofs = Vec::new();
        while self.peek().tok != Tok::RBrace {
            if self.peek_ident("any") {
                self.next();
                self.expect(Tok::LBrace)?;
                let mut all_ofs = Vec::new();
                while self.peek().tok != Tok::RBrace {
                    self.expect_ident("all")?;
                    self.expect(Tok::LBrace)?;
                    let mut matches = Vec::new();
                    while self.peek().tok != Tok::RBrace {
                        matches.push(self.attr_match()?);
                        self.expect(Tok::Semi)?;
                    }
                    self.expect(Tok::RBrace)?;
                    all_ofs.push(AllOf::new(matches));
                }
                self.expect(Tok::RBrace)?;
                any_ofs.push(AnyOf::new(all_ofs));
            } else {
                let m = self.attr_match()?;
                self.expect(Tok::Semi)?;
                any_ofs.push(AnyOf::new(vec![AllOf::new(vec![m])]));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Target { any_ofs })
    }

    /// An expression whose root sits at level `depth`.
    fn expr(&mut self, depth: u32) -> Result<Expr, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("expression deeper than {MAX_DEPTH} levels")));
        }
        match self.peek().tok.clone() {
            Tok::Hash => {
                self.next();
                let name = self.ident()?;
                let f = Func::parse(&name)
                    .ok_or_else(|| self.err(format!("unknown function `{name}`")))?;
                Ok(Expr::FuncRef(f))
            }
            Tok::Ident(name) if name == "attr" => {
                self.next();
                let required = if self.peek().tok == Tok::Bang {
                    self.next();
                    true
                } else {
                    false
                };
                self.expect(Tok::LParen)?;
                let category = self.category()?;
                self.expect(Tok::Comma)?;
                let attr_name = self.attr_name()?;
                self.expect(Tok::RParen)?;
                let id = AttributeId::new(category, attr_name);
                Ok(if required {
                    Expr::attr_required(id)
                } else {
                    Expr::attr(id)
                })
            }
            Tok::Ident(name) if name == "bag" => {
                self.next();
                self.expect(Tok::LParen)?;
                let mut values = Vec::new();
                if self.peek().tok != Tok::RParen {
                    values.push(self.literal()?);
                    while self.peek().tok == Tok::Comma {
                        self.next();
                        values.push(self.literal()?);
                    }
                }
                self.expect(Tok::RParen)?;
                Ok(Expr::BagLiteral(values))
            }
            Tok::Ident(name)
                if Func::parse(&name).is_some()
                    && self.toks.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::LParen) =>
            {
                self.next();
                let f = Func::parse(&name).expect("checked");
                self.expect(Tok::LParen)?;
                let mut args = Vec::new();
                if self.peek().tok != Tok::RParen {
                    args.push(self.expr(depth + 1)?);
                    while self.peek().tok == Tok::Comma {
                        self.next();
                        args.push(self.expr(depth + 1)?);
                    }
                }
                self.expect(Tok::RParen)?;
                Ok(Expr::Apply { func: f, args })
            }
            _ => Ok(Expr::Value(self.literal()?)),
        }
    }

    fn effect(&mut self) -> Result<Effect, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "permit" => Ok(Effect::Permit),
            "deny" => Ok(Effect::Deny),
            other => Err(self.err(format!("expected `permit` or `deny`, found `{other}`"))),
        }
    }

    fn obligation(&mut self) -> Result<ObligationExpr, ParseError> {
        self.expect_ident("obligation")?;
        let id = self.string()?;
        self.expect_ident("on")?;
        let fulfill_on = self.effect()?;
        self.expect(Tok::LBrace)?;
        let mut params = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let name = self.string()?;
            self.expect(Tok::Assign)?;
            let e = self.expr(0)?;
            self.expect(Tok::Semi)?;
            params.push((name, e));
        }
        self.expect(Tok::RBrace)?;
        Ok(ObligationExpr {
            id,
            fulfill_on,
            params,
        })
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        self.expect_ident("rule")?;
        let id = self.string()?;
        let effect = self.effect()?;
        self.expect(Tok::LBrace)?;
        let mut rule = Rule::new(id, effect);
        while self.peek().tok != Tok::RBrace {
            if self.peek_ident("target") {
                rule.target = self.target()?;
            } else if self.peek_ident("condition") {
                self.next();
                rule.condition = Some(self.expr(0)?);
            } else if self.peek_ident("obligation") {
                rule.obligations.push(self.obligation()?);
            } else {
                return Err(self.err(format!(
                    "expected `target`, `condition` or `obligation`, found {}",
                    self.peek().tok
                )));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(rule)
    }

    fn policy(&mut self) -> Result<Policy, ParseError> {
        self.expect_ident("policy")?;
        let id = self.string()?;
        let alg = self.combining()?;
        self.expect(Tok::LBrace)?;
        let mut policy = Policy::new(PolicyId::new(id), alg);
        while self.peek().tok != Tok::RBrace {
            if self.peek_ident("target") {
                policy.target = self.target()?;
            } else if self.peek_ident("rule") {
                policy.rules.push(self.rule()?);
            } else if self.peek_ident("obligation") {
                policy.obligations.push(self.obligation()?);
            } else if self.peek_ident("issuer") {
                self.next();
                policy.issuer = Some(self.string()?);
                self.expect(Tok::Semi)?;
            } else {
                return Err(self.err(format!(
                    "expected `target`, `rule`, `obligation` or `issuer`, found {}",
                    self.peek().tok
                )));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(policy)
    }
}

/// Parses a single policy from DSL text.
///
/// # Errors
///
/// Returns a [`ParseError`] with source position on malformed input.
pub fn parse_policy(input: &str) -> Result<Policy, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let policy = p.policy()?;
    p.expect(Tok::Eof)?;
    Ok(policy)
}

// -------------------------------------------------------------- printer --

fn print_value(v: &AttrValue, out: &mut String) {
    match v {
        AttrValue::String(s) => {
            let _ = write!(out, "{s:?}");
        }
        AttrValue::Integer(i) => {
            let _ = write!(out, "{i}");
        }
        AttrValue::Boolean(b) => {
            let _ = write!(out, "{b}");
        }
        AttrValue::Double(d) => {
            if d.fract() == 0.0 && d.is_finite() {
                let _ = write!(out, "{d:.1}");
            } else {
                let _ = write!(out, "{d}");
            }
        }
        AttrValue::Time(t) => {
            let _ = write!(out, "time({t})");
        }
    }
}

fn print_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Value(v) => print_value(v, out),
        Expr::BagLiteral(vs) => {
            out.push_str("bag(");
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_value(v, out);
            }
            out.push(')');
        }
        Expr::Attribute {
            id,
            must_be_present,
        } => {
            out.push_str("attr");
            if *must_be_present {
                out.push('!');
            }
            let _ = write!(out, "({}, {:?})", id.category, id.name);
        }
        Expr::Apply { func, args } => {
            out.push_str(func.name());
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_expr(a, out);
            }
            out.push(')');
        }
        Expr::FuncRef(f) => {
            out.push('#');
            out.push_str(f.name());
        }
    }
}

fn print_match(m: &AttrMatch, out: &mut String) {
    let _ = write!(
        out,
        "{} {:?} {} ",
        m.attr.category,
        m.attr.name,
        m.op.symbol()
    );
    print_value(&m.value, out);
}

fn print_target(t: &Target, indent: &str, out: &mut String) {
    if t.is_match_all() {
        return;
    }
    let _ = writeln!(out, "{indent}target {{");
    let inner = format!("{indent}  ");
    for any in &t.any_ofs {
        let simple = any.all_ofs.len() == 1 && any.all_ofs[0].matches.len() == 1;
        if simple {
            out.push_str(&inner);
            print_match(&any.all_ofs[0].matches[0], out);
            out.push_str(";\n");
        } else {
            let _ = writeln!(out, "{inner}any {{");
            for all in &any.all_ofs {
                let _ = writeln!(out, "{inner}  all {{");
                for m in &all.matches {
                    let _ = write!(out, "{inner}    ");
                    print_match(m, out);
                    out.push_str(";\n");
                }
                let _ = writeln!(out, "{inner}  }}");
            }
            let _ = writeln!(out, "{inner}}}");
        }
    }
    let _ = writeln!(out, "{indent}}}");
}

fn print_obligation(o: &ObligationExpr, indent: &str, out: &mut String) {
    let _ = writeln!(out, "{indent}obligation {:?} on {} {{", o.id, o.fulfill_on);
    for (name, e) in &o.params {
        let _ = write!(out, "{indent}  {name:?} = ");
        print_expr(e, out);
        out.push_str(";\n");
    }
    let _ = writeln!(out, "{indent}}}");
}

fn print_rule(r: &Rule, indent: &str, out: &mut String) {
    let _ = writeln!(out, "{indent}rule {:?} {} {{", r.id, r.effect);
    let inner = format!("{indent}  ");
    print_target(&r.target, &inner, out);
    if let Some(c) = &r.condition {
        let _ = write!(out, "{inner}condition ");
        print_expr(c, out);
        out.push('\n');
    }
    for o in &r.obligations {
        print_obligation(o, &inner, out);
    }
    let _ = writeln!(out, "{indent}}}");
}

/// Pretty-prints a policy in DSL syntax (round-trips through
/// [`parse_policy`]).
pub fn print_policy(p: &Policy) -> String {
    let mut out = String::new();
    print_policy_indent(p, "", &mut out);
    out
}

fn print_policy_indent(p: &Policy, indent: &str, out: &mut String) {
    let _ = writeln!(out, "{indent}policy {:?} {} {{", p.id.0, p.rule_combining);
    let inner = format!("{indent}  ");
    if let Some(issuer) = &p.issuer {
        let _ = writeln!(out, "{inner}issuer {issuer:?};");
    }
    print_target(&p.target, &inner, out);
    for r in &p.rules {
        print_rule(r, &inner, out);
    }
    for o in &p.obligations {
        print_obligation(o, &inner, out);
    }
    let _ = writeln!(out, "{indent}}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MAX_POLICY_DEPTH;
    use crate::policy::{PolicyElement, PolicySet};

    impl Parser {
        /// A policy set sitting at level `depth`.
        fn policy_set(&mut self, depth: u32) -> Result<PolicySet, ParseError> {
            self.expect_ident("policyset")?;
            let id = self.string()?;
            let alg = self.combining()?;
            self.expect(Tok::LBrace)?;
            let mut set = PolicySet::new(PolicyId::new(id), alg);
            while self.peek().tok != Tok::RBrace {
                if self.peek_ident("target") {
                    set.target = self.target()?;
                } else if self.peek_ident("obligation") {
                    set.obligations.push(self.obligation()?);
                } else if self.peek_ident("issuer") {
                    self.next();
                    set.issuer = Some(self.string()?);
                    self.expect(Tok::Semi)?;
                } else if (self.peek_ident("policyset") || self.peek_ident("policy"))
                    && depth >= MAX_POLICY_DEPTH
                {
                    return Err(
                        self.err(format!("policy set deeper than {MAX_POLICY_DEPTH} levels"))
                    );
                } else if self.peek_ident("policyset") {
                    // `policyset ref "x";` or inline nested set.
                    if matches!(self.toks.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "ref")
                    {
                        self.next();
                        self.next();
                        let rid = self.string()?;
                        self.expect(Tok::Semi)?;
                        set.elements
                            .push(PolicyElement::PolicySetRef(PolicyId::new(rid)));
                    } else {
                        let nested = self.policy_set(depth + 1)?;
                        set.elements
                            .push(PolicyElement::PolicySet(Box::new(nested)));
                    }
                } else if self.peek_ident("policy") {
                    if matches!(self.toks.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "ref")
                    {
                        self.next();
                        self.next();
                        let rid = self.string()?;
                        self.expect(Tok::Semi)?;
                        set.elements
                            .push(PolicyElement::PolicyRef(PolicyId::new(rid)));
                    } else {
                        let p = self.policy()?;
                        set.elements.push(PolicyElement::Policy(p));
                    }
                } else {
                    return Err(
                        self.err(format!("unexpected {} in policyset body", self.peek().tok))
                    );
                }
            }
            self.expect(Tok::RBrace)?;
            Ok(set)
        }
    }

    /// Parses a single policy set from DSL text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with source position on malformed input.
    fn parse_policy_set(input: &str) -> Result<PolicySet, ParseError> {
        let toks = lex(input)?;
        let mut p = Parser { toks, pos: 0 };
        let set = p.policy_set(0)?;
        p.expect(Tok::Eof)?;
        Ok(set)
    }

    /// Parses a standalone expression (useful in tests and tooling).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with source position on malformed input.
    fn parse_expr(input: &str) -> Result<Expr, ParseError> {
        let toks = lex(input)?;
        let mut p = Parser { toks, pos: 0 };
        let e = p.expr(0)?;
        p.expect(Tok::Eof)?;
        Ok(e)
    }

    /// Pretty-prints a policy set in DSL syntax (round-trips through
    /// [`parse_policy_set`]).
    fn print_policy_set(ps: &PolicySet) -> String {
        let mut out = String::new();
        print_policy_set_indent(ps, "", &mut out);
        out
    }

    fn print_policy_set_indent(ps: &PolicySet, indent: &str, out: &mut String) {
        let _ = writeln!(
            out,
            "{indent}policyset {:?} {} {{",
            ps.id.0, ps.policy_combining
        );
        let inner = format!("{indent}  ");
        if let Some(issuer) = &ps.issuer {
            let _ = writeln!(out, "{inner}issuer {issuer:?};");
        }
        print_target(&ps.target, &inner, out);
        for el in &ps.elements {
            match el {
                PolicyElement::Policy(p) => print_policy_indent(p, &inner, out),
                PolicyElement::PolicySet(nested) => print_policy_set_indent(nested, &inner, out),
                PolicyElement::PolicyRef(id) => {
                    let _ = writeln!(out, "{inner}policy ref {:?};", id.0);
                }
                PolicyElement::PolicySetRef(id) => {
                    let _ = writeln!(out, "{inner}policyset ref {:?};", id.0);
                }
            }
        }
        for o in &ps.obligations {
            print_obligation(o, &inner, out);
        }
        let _ = writeln!(out, "{indent}}}");
    }

    use crate::eval::Evaluator;
    use crate::policy::Decision;
    use crate::request::RequestContext;

    const DOCTORS: &str = r#"
// Doctors may read electronic health records during business hours.
policy "doctors-read" first-applicable {
  target {
    resource "id" ~= "ehr/*";
  }
  rule "permit-doctors" permit {
    target {
      subject "role" == "doctor";
      action "id" == "read";
    }
    condition lt(hour-of(attr!(env, "current-time")), 17)
    obligation "log" on permit {
      "subject" = attr(subject, "id");
    }
  }
  rule "default-deny" deny { }
}
"#;

    #[test]
    fn parses_and_evaluates() {
        let policy = parse_policy(DOCTORS).expect("parses");
        assert_eq!(policy.id.as_str(), "doctors-read");
        assert_eq!(policy.rules.len(), 2);

        let req = RequestContext::basic("alice", "ehr/1", "read")
            .with_subject_attr("role", "doctor")
            .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000));
        let mut ev = Evaluator::new(&req);
        let resp = ev.evaluate_policy(&policy);
        assert_eq!(resp.decision, Decision::Permit);
        assert_eq!(resp.obligations.len(), 1);
    }

    #[test]
    fn policy_roundtrip() {
        let policy = parse_policy(DOCTORS).expect("parses");
        let printed = print_policy(&policy);
        let reparsed = parse_policy(&printed).expect("printed output parses");
        assert_eq!(policy, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn policy_set_with_refs_and_nesting() {
        let src = r#"
policyset "vo-root" only-one-applicable {
  target {
    env "vo" == "cancer-research";
  }
  policy "local" first-applicable {
    target { resource "id" ~= "local/*"; }
    rule "ok" permit { }
  }
  policyset "nested" deny-overrides {
    target { resource "id" ~= "shared/*"; }
    policy ref "shared-baseline";
  }
  policyset ref "partner-set";
  obligation "audit" on permit {
    "scope" = "vo";
  }
}
"#;
        let set = parse_policy_set(src).expect("parses");
        assert_eq!(set.elements.len(), 3);
        let printed = print_policy_set(&set);
        let reparsed = parse_policy_set(&printed).expect("roundtrip");
        assert_eq!(set, reparsed);
    }

    #[test]
    fn expression_forms() {
        let e = parse_expr(
            r#"and(is-in("doctor", attr(subject, "role")), ge(attr(subject, "age"), 18))"#,
        )
        .expect("parses");
        assert!(matches!(
            e,
            Expr::Apply {
                func: Func::And,
                ..
            }
        ));

        let e = parse_expr(r#"any-of(#eq, "doctor", attr(subject, "role"))"#).expect("parses");
        match e {
            Expr::Apply {
                func: Func::AnyOf,
                args,
            } => {
                assert_eq!(args[0], Expr::FuncRef(Func::Eq));
            }
            other => panic!("unexpected {other:?}"),
        }

        let e = parse_expr(r#"bag("a", "b", 3)"#).expect("parses");
        assert_eq!(
            e,
            Expr::BagLiteral(vec!["a".into(), "b".into(), AttrValue::Integer(3)])
        );

        let e = parse_expr("time(9000)").expect("parses");
        assert_eq!(e, Expr::Value(AttrValue::Time(9000)));

        let e = parse_expr("-42").expect("parses");
        assert_eq!(e, Expr::Value(AttrValue::Integer(-42)));

        let e = parse_expr("3.5").expect("parses");
        assert_eq!(e, Expr::Value(AttrValue::Double(3.5)));
    }

    #[test]
    fn target_any_all_form() {
        let src = r#"
policy "p" deny-overrides {
  target {
    any {
      all { subject "role" == "admin"; }
      all { subject "role" == "doctor"; action "id" == "read"; }
    }
    resource "type" == "ehr";
  }
  rule "ok" permit { }
}
"#;
        let p = parse_policy(src).expect("parses");
        assert_eq!(p.target.any_ofs.len(), 2);
        assert_eq!(p.target.any_ofs[0].all_ofs.len(), 2);
        let printed = print_policy(&p);
        assert_eq!(parse_policy(&printed).expect("roundtrip"), p);
    }

    /// A name the name table refuses is a parse error at the name, in
    /// a target and in a condition alike, never a panic.
    #[test]
    fn a_name_past_the_length_bound_is_a_parse_error() {
        let long = "n".repeat(crate::attr::MAX_NAME_LEN + 1);
        for body in [
            format!("target {{ subject \"{long}\" == \"x\"; }}"),
            format!("condition attr(subject, \"{long}\") == \"x\";"),
        ] {
            let src =
                format!("policy \"p\" deny-unless-permit {{\n  rule \"r\" permit {{ {body} }}\n}}");
            let err = parse_policy(&src).unwrap_err();
            assert!(err.message.contains("exceeds"), "{err}");
            assert_eq!(err.line, 2);
        }
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_policy("policy \"p\" bogus-alg { }").unwrap_err();
        assert!(err.message.contains("unknown combining algorithm"));
        assert_eq!(err.line, 1);

        let err =
            parse_policy("policy \"p\" deny-overrides {\n  rule 42 permit { }\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected string"));
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let p = parse_policy(
            "// header\npolicy \"p\" deny-overrides { // trailing\n rule \"r\" permit { } }",
        )
        .expect("parses");
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn unterminated_string_rejected() {
        let err = parse_policy("policy \"p").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn operators_in_targets() {
        let src = r#"
policy "ops" deny-overrides {
  rule "r" permit {
    target {
      subject "age" >= 18;
      subject "age" < 65;
      resource "path" contains "records";
    }
  }
}
"#;
        let p = parse_policy(src).expect("parses");
        let ops: Vec<_> = p.rules[0].target.all_matches().map(|m| m.op).collect();
        assert_eq!(
            ops,
            vec![
                MatchOp::GreaterOrEqual,
                MatchOp::LessThan,
                MatchOp::Contains
            ]
        );
        let printed = print_policy(&p);
        assert_eq!(parse_policy(&printed).expect("roundtrip"), p);
    }

    /// `levels` nested `policyset` blocks, one per line, the innermost
    /// holding a policy reference: its deepest element sits at level
    /// `levels`, on line `levels + 1`.
    fn nested_sets(levels: usize) -> String {
        let mut src = String::new();
        for level in 0..levels {
            src += &format!("policyset \"s{level}\" deny-overrides {{\n");
        }
        src += "policy ref \"p\";\n";
        src + &"}\n".repeat(levels)
    }

    /// `not(` nested `levels` deep around `true`, one per line: the
    /// literal sits at level `levels`, on line `levels + 1`.
    fn nested_nots(levels: usize) -> String {
        "not(\n".repeat(levels) + "true\n" + &")".repeat(levels)
    }

    #[test]
    fn policy_sets_nest_to_the_depth_limit_and_no_deeper() {
        let limit = MAX_POLICY_DEPTH as usize;
        let at_limit = parse_policy_set(&nested_sets(limit)).expect("parses at the limit");
        let root = PolicyElement::PolicySet(Box::new(at_limit));
        assert!(crate::eval::resolve_references(&root, &crate::eval::EmptyStore).is_ok());
        // The reference at level 65, on line 66.
        let err = parse_policy_set(&nested_sets(limit + 1)).unwrap_err();
        assert_eq!(err.line, limit as u32 + 2, "{err}");
        assert!(err.message.contains("deeper than"), "{err}");
    }

    #[test]
    fn expressions_nest_to_the_depth_limit_and_no_deeper() {
        let limit = MAX_DEPTH as usize;
        let at_limit = parse_expr(&nested_nots(limit)).expect("parses at the limit");
        let request = RequestContext::basic("alice", "ehr/1", "read");
        let mut stats = crate::expr::ExprStats::default();
        assert!(crate::expr::eval_condition(&at_limit, &request, &mut stats).is_ok());
        // The literal at level 65, on line 66.
        let err = parse_expr(&nested_nots(limit + 1)).unwrap_err();
        assert_eq!(err.line, limit as u32 + 2, "{err}");
        assert!(err.message.contains("deeper than"), "{err}");
    }

    /// The parser recurses once per level: input far past either limit
    /// is refused at the limit, within a test thread's stack.
    #[test]
    fn a_hundred_thousand_levels_are_refused_not_a_stack_overflow() {
        assert!(parse_policy_set(&nested_sets(100_000)).is_err());
        assert!(parse_expr(&nested_nots(100_000)).is_err());
    }
}
