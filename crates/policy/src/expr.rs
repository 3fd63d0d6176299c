//! The condition expression language: a typed expression tree evaluated
//! against an attribute source, mirroring XACML's `<Condition>` and its
//! function library.
//!
//! Evaluation is strict about types (a type error yields an
//! `EvalError`, which the engine maps to `Indeterminate`), but
//! ergonomic about bags: where a scalar is expected and a singleton bag
//! is supplied, the single element is used (XACML's `one-and-only`
//! applied implicitly).

use crate::attr::{AttrValue, AttributeId};
use crate::glob::glob_match;
use crate::request::RequestContext;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Anything that can answer attribute lookups during evaluation.
///
/// [`RequestContext`] implements this directly; the PDP wraps it with
/// PIP-backed resolution.
///
/// A bag is lent, not copied: it stays where the source keeps it — the
/// request's own entry, a resolver's memo — for as long as the source
/// is borrowed, and the functions that only inspect a bag (`is-in`,
/// `bag-size`, `subset`, ...) read it there.
pub trait AttributeSource {
    /// Returns the bag of values for `id`, or `None` if the attribute is
    /// unknown to this source.
    fn attribute_bag(&self, id: &AttributeId) -> Option<&[AttrValue]>;
}

impl AttributeSource for RequestContext {
    fn attribute_bag(&self, id: &AttributeId) -> Option<&[AttrValue]> {
        self.present_bag(id)
    }
}

/// The function library (a pragmatic subset of XACML's, plus time
/// helpers the paper's scenarios need).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Func {
    // Equality and ordering (same-type).
    /// `eq(a, b)` — type-strict equality.
    Eq,
    /// `ne(a, b)` — negated equality.
    Ne,
    /// `lt(a, b)` — less-than on ordered values of the same type.
    Lt,
    /// `le(a, b)` — less-or-equal.
    Le,
    /// `gt(a, b)` — greater-than.
    Gt,
    /// `ge(a, b)` — greater-or-equal.
    Ge,
    // Arithmetic (integer or double; mixed types are an error).
    /// `add(a, b, ...)` — sum.
    Add,
    /// `sub(a, b)` — difference.
    Sub,
    /// `mul(a, b, ...)` — product.
    Mul,
    /// `div(a, b)` — quotient; division by zero is an error.
    Div,
    /// `mod(a, b)` — integer remainder.
    Mod,
    // Boolean connectives.
    /// `and(...)` — logical conjunction, short-circuit left to right.
    And,
    /// `or(...)` — logical disjunction, short-circuit left to right.
    Or,
    /// `not(a)` — negation.
    Not,
    // Strings.
    /// `string-contains(haystack, needle)`.
    StringContains,
    /// `starts-with(s, prefix)`.
    StartsWith,
    /// `ends-with(s, suffix)`.
    EndsWith,
    /// `concat(...)` — string concatenation.
    Concat,
    /// `lower(s)` — ASCII lowercase.
    Lower,
    /// `upper(s)` — ASCII uppercase.
    Upper,
    /// `string-length(s)`.
    StringLength,
    /// `glob-match(pattern, s)` — `*`/`?` wildcard match.
    GlobMatch,
    // Bags.
    /// `one-and-only(bag)` — the single element of a singleton bag.
    OneAndOnly,
    /// `bag-size(bag)`.
    BagSize,
    /// `is-in(value, bag)`.
    IsIn,
    /// `union(bag, bag)` — set union (deduplicated).
    Union,
    /// `intersection(bag, bag)` — set intersection.
    Intersection,
    /// `subset(a, b)` — is every element of `a` in `b`?
    Subset,
    /// `set-equals(a, b)` — equal as sets.
    SetEquals,
    // Higher-order.
    /// `any-of(f, a, bag)` — ∃x∈bag. f(a, x).
    AnyOf,
    /// `all-of(f, a, bag)` — ∀x∈bag. f(a, x).
    AllOf,
    /// `any-of-any(f, bag, bag)` — ∃a∈A ∃b∈B. f(a, b).
    AnyOfAny,
    // Time.
    /// `hour-of(t)` — hour of day (0–23) of a time value.
    HourOf,
    /// `day-of(t)` — whole days since epoch.
    DayOf,
    /// `time-in-range(t, lo, hi)` — `lo <= t < hi`.
    TimeInRange,
    /// `time-add(t, ms)` — shift a time by a signed integer.
    TimeAdd,
    // Conversions.
    /// `int-to-double(i)`.
    IntToDouble,
    /// `to-string(v)` — display form of any value.
    ToString,
}

impl Func {
    /// DSL name of the function.
    pub fn name(&self) -> &'static str {
        use Func::*;
        match self {
            Eq => "eq",
            Ne => "ne",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Mod => "mod",
            And => "and",
            Or => "or",
            Not => "not",
            StringContains => "string-contains",
            StartsWith => "starts-with",
            EndsWith => "ends-with",
            Concat => "concat",
            Lower => "lower",
            Upper => "upper",
            StringLength => "string-length",
            GlobMatch => "glob-match",
            OneAndOnly => "one-and-only",
            BagSize => "bag-size",
            IsIn => "is-in",
            Union => "union",
            Intersection => "intersection",
            Subset => "subset",
            SetEquals => "set-equals",
            AnyOf => "any-of",
            AllOf => "all-of",
            AnyOfAny => "any-of-any",
            HourOf => "hour-of",
            DayOf => "day-of",
            TimeInRange => "time-in-range",
            TimeAdd => "time-add",
            IntToDouble => "int-to-double",
            ToString => "to-string",
        }
    }

    /// Parses a DSL function name.
    pub fn parse(s: &str) -> Option<Func> {
        use Func::*;
        Some(match s {
            "eq" => Eq,
            "ne" => Ne,
            "lt" => Lt,
            "le" => Le,
            "gt" => Gt,
            "ge" => Ge,
            "add" => Add,
            "sub" => Sub,
            "mul" => Mul,
            "div" => Div,
            "mod" => Mod,
            "and" => And,
            "or" => Or,
            "not" => Not,
            "string-contains" => StringContains,
            "starts-with" => StartsWith,
            "ends-with" => EndsWith,
            "concat" => Concat,
            "lower" => Lower,
            "upper" => Upper,
            "string-length" => StringLength,
            "glob-match" => GlobMatch,
            "one-and-only" => OneAndOnly,
            "bag-size" => BagSize,
            "is-in" => IsIn,
            "union" => Union,
            "intersection" => Intersection,
            "subset" => Subset,
            "set-equals" => SetEquals,
            "any-of" => AnyOf,
            "all-of" => AllOf,
            "any-of-any" => AnyOfAny,
            "hour-of" => HourOf,
            "day-of" => DayOf,
            "time-in-range" => TimeInRange,
            "time-add" => TimeAdd,
            "int-to-double" => IntToDouble,
            "to-string" => ToString,
            _ => return None,
        })
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A condition expression.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Expr {
    /// A literal scalar value.
    Value(AttrValue),
    /// A literal bag of values.
    BagLiteral(Vec<AttrValue>),
    /// A reference to a request/PIP attribute bag.
    Attribute {
        /// The attribute to look up.
        id: AttributeId,
        /// If `true`, absence of the attribute is an evaluation error
        /// (→ Indeterminate); if `false`, absence yields an empty bag.
        must_be_present: bool,
    },
    /// Function application.
    Apply {
        /// The function to apply.
        func: Func,
        /// Argument expressions, evaluated left to right.
        args: Vec<Expr>,
    },
    /// A function reference — only meaningful as the first argument of a
    /// higher-order function.
    FuncRef(Func),
}

impl Expr {
    /// Literal value shorthand.
    pub fn val(v: impl Into<AttrValue>) -> Expr {
        Expr::Value(v.into())
    }

    /// Optional attribute reference shorthand.
    pub fn attr(id: AttributeId) -> Expr {
        Expr::Attribute {
            id,
            must_be_present: false,
        }
    }

    /// Required attribute reference shorthand.
    pub fn attr_required(id: AttributeId) -> Expr {
        Expr::Attribute {
            id,
            must_be_present: true,
        }
    }

    /// Function application shorthand.
    pub fn apply(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Apply { func, args }
    }

    /// `eq(a, b)` shorthand.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::apply(Func::Eq, vec![a, b])
    }

    /// `and(...)` shorthand.
    pub fn and(args: Vec<Expr>) -> Expr {
        Expr::apply(Func::And, args)
    }

    /// `or(...)` shorthand.
    pub fn or(args: Vec<Expr>) -> Expr {
        Expr::apply(Func::Or, args)
    }

    /// Number of nodes in the expression tree (complexity metric).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Value(_) | Expr::BagLiteral(_) | Expr::Attribute { .. } | Expr::FuncRef(_) => 1,
            Expr::Apply { args, .. } => 1 + args.iter().map(Expr::node_count).sum::<usize>(),
        }
    }
}

/// Evaluation failure; the engine maps these to `Indeterminate`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum EvalError {
    /// A `must_be_present` attribute was absent.
    MissingAttribute(AttributeId),
    /// A function received a value of the wrong type.
    TypeMismatch {
        /// The function that failed.
        func: Func,
        /// Description of what was expected.
        expected: &'static str,
        /// Type name actually found.
        found: &'static str,
    },
    /// A function received the wrong number of arguments.
    WrongArity {
        /// The function that failed.
        func: Func,
        /// Arity expected (description).
        expected: &'static str,
        /// Arity found.
        found: usize,
    },
    /// `one-and-only` (explicit or implicit) on a non-singleton bag.
    NotSingleton {
        /// Size of the offending bag.
        size: usize,
    },
    /// Integer/double division by zero.
    DivideByZero,
    /// Integer overflow in arithmetic.
    Overflow,
    /// A higher-order function's first argument was not a function
    /// reference.
    NotAFunction,
    /// Expression nesting exceeded the evaluation depth limit.
    DepthExceeded,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingAttribute(id) => write!(f, "missing required attribute {id}"),
            EvalError::TypeMismatch {
                func,
                expected,
                found,
            } => write!(f, "{func}: expected {expected}, found {found}"),
            EvalError::WrongArity {
                func,
                expected,
                found,
            } => write!(f, "{func}: expected {expected} arguments, found {found}"),
            EvalError::NotSingleton { size } => {
                write!(f, "expected singleton bag, found {size} values")
            }
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::Overflow => write!(f, "integer overflow"),
            EvalError::NotAFunction => write!(f, "higher-order argument is not a function"),
            EvalError::DepthExceeded => write!(f, "expression depth limit exceeded"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of evaluating an expression node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Evaluated {
    /// A single value.
    Scalar(AttrValue),
    /// A bag of values.
    Bag(Vec<AttrValue>),
    /// A function reference (higher-order argument position only).
    Function(Func),
}

/// Counters accumulated during expression evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExprStats {
    /// Number of function applications performed.
    pub functions_applied: u64,
    /// Number of attribute bag lookups performed.
    pub attribute_lookups: u64,
}

/// Deepest level an expression node may sit at (the root's is 0).
pub(crate) const MAX_DEPTH: u32 = 64;

/// What a node evaluates to inside the walk: [`Evaluated`], except that
/// a literal of the expression and a bag the source holds are borrowed
/// from where they live. Only a computed value is owned.
enum Val<'a> {
    Scalar(Cow<'a, AttrValue>),
    Bag(Cow<'a, [AttrValue]>),
    Function(Func),
}

fn scalar<'a>(v: AttrValue) -> Val<'a> {
    Val::Scalar(Cow::Owned(v))
}

fn boolean<'a>(b: bool) -> Val<'a> {
    scalar(AttrValue::Boolean(b))
}

/// Evaluates `expr` against `src`, accumulating counters into `stats`.
///
/// # Errors
///
/// Any [`EvalError`]; the policy engine maps these to `Indeterminate`.
pub(crate) fn eval(
    expr: &Expr,
    src: &dyn AttributeSource,
    stats: &mut ExprStats,
) -> Result<Evaluated, EvalError> {
    Ok(match eval_depth(expr, src, stats, 0)? {
        Val::Scalar(v) => Evaluated::Scalar(v.into_owned()),
        Val::Bag(bag) => Evaluated::Bag(bag.into_owned()),
        Val::Function(f) => Evaluated::Function(f),
    })
}

/// Evaluates a condition expression, requiring a boolean scalar result.
///
/// # Errors
///
/// [`EvalError::TypeMismatch`] if the expression does not produce a
/// boolean, plus any error from evaluation itself.
pub(crate) fn eval_condition(
    expr: &Expr,
    src: &dyn AttributeSource,
    stats: &mut ExprStats,
) -> Result<bool, EvalError> {
    let found = match eval_depth(expr, src, stats, 0)? {
        Val::Scalar(v) => match v.as_boolean() {
            Some(b) => return Ok(b),
            None => v.type_name(),
        },
        Val::Bag(_) => "bag",
        Val::Function(_) => return Err(EvalError::NotAFunction),
    };
    Err(EvalError::TypeMismatch {
        func: Func::And,
        expected: "boolean condition",
        found,
    })
}

fn eval_depth<'a>(
    expr: &'a Expr,
    src: &'a dyn AttributeSource,
    stats: &mut ExprStats,
    depth: u32,
) -> Result<Val<'a>, EvalError> {
    if depth > MAX_DEPTH {
        return Err(EvalError::DepthExceeded);
    }
    match expr {
        Expr::Value(v) => Ok(Val::Scalar(Cow::Borrowed(v))),
        Expr::BagLiteral(vs) => Ok(Val::Bag(Cow::Borrowed(vs))),
        Expr::FuncRef(f) => Ok(Val::Function(*f)),
        Expr::Attribute {
            id,
            must_be_present,
        } => {
            stats.attribute_lookups += 1;
            match src.attribute_bag(id) {
                Some(bag) => Ok(Val::Bag(Cow::Borrowed(bag))),
                None if *must_be_present => Err(EvalError::MissingAttribute(*id)),
                None => Ok(Val::Bag(Cow::Borrowed(&[]))),
            }
        }
        Expr::Apply { func, args } => {
            stats.functions_applied += 1;
            apply(*func, args, src, stats, depth)
        }
    }
}

fn as_scalar(ev: Val<'_>) -> Result<Cow<'_, AttrValue>, EvalError> {
    match ev {
        Val::Scalar(v) => Ok(v),
        Val::Bag(Cow::Borrowed([v])) => Ok(Cow::Borrowed(v)),
        Val::Bag(Cow::Owned(mut bag)) if bag.len() == 1 => {
            Ok(Cow::Owned(bag.pop().expect("len checked")))
        }
        Val::Bag(bag) => Err(EvalError::NotSingleton { size: bag.len() }),
        Val::Function(_) => Err(EvalError::NotAFunction),
    }
}

fn as_bag(ev: Val<'_>) -> Result<Cow<'_, [AttrValue]>, EvalError> {
    match ev {
        Val::Bag(bag) => Ok(bag),
        Val::Scalar(Cow::Borrowed(v)) => Ok(Cow::Borrowed(std::slice::from_ref(v))),
        Val::Scalar(Cow::Owned(v)) => Ok(Cow::Owned(vec![v])),
        Val::Function(_) => Err(EvalError::NotAFunction),
    }
}

fn as_bool(func: Func, v: &AttrValue) -> Result<bool, EvalError> {
    v.as_boolean().ok_or(EvalError::TypeMismatch {
        func,
        expected: "boolean",
        found: "non-boolean",
    })
}

fn as_str(func: Func, v: &AttrValue) -> Result<&str, EvalError> {
    v.as_str().ok_or(EvalError::TypeMismatch {
        func,
        expected: "string",
        found: v.type_name(),
    })
}

fn as_int(func: Func, v: &AttrValue) -> Result<i64, EvalError> {
    v.as_integer().ok_or(EvalError::TypeMismatch {
        func,
        expected: "integer",
        found: v.type_name(),
    })
}

fn as_time(func: Func, v: &AttrValue) -> Result<u64, EvalError> {
    v.as_time().ok_or(EvalError::TypeMismatch {
        func,
        expected: "time",
        found: v.type_name(),
    })
}

fn need_args(func: Func, args: &[Expr], n: usize, desc: &'static str) -> Result<(), EvalError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(EvalError::WrongArity {
            func,
            expected: desc,
            found: args.len(),
        })
    }
}

/// Applies a binary primitive function to two scalars (used directly and
/// by the higher-order combinators).
fn apply_binary_scalar(func: Func, a: &AttrValue, b: &AttrValue) -> Result<AttrValue, EvalError> {
    use AttrValue as V;
    use Func::*;
    let out = match func {
        Eq => V::Boolean(a == b),
        Ne => V::Boolean(a != b),
        Lt | Le | Gt | Ge => {
            let ord = a.partial_cmp_same_type(b).ok_or(EvalError::TypeMismatch {
                func,
                expected: "comparable values of the same type",
                found: b.type_name(),
            })?;
            let r = match func {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            V::Boolean(r)
        }
        Sub => arith(func, a, b)?,
        Div => arith(func, a, b)?,
        Mod => {
            let (x, y) = (as_int(func, a)?, as_int(func, b)?);
            if y == 0 {
                return Err(EvalError::DivideByZero);
            }
            V::Integer(x.checked_rem(y).ok_or(EvalError::Overflow)?)
        }
        StringContains => {
            let (h, n) = (as_str(func, a)?, as_str(func, b)?);
            V::Boolean(h.contains(n))
        }
        StartsWith => {
            let (s, p) = (as_str(func, a)?, as_str(func, b)?);
            V::Boolean(s.starts_with(p))
        }
        EndsWith => {
            let (s, p) = (as_str(func, a)?, as_str(func, b)?);
            V::Boolean(s.ends_with(p))
        }
        GlobMatch => {
            let (p, s) = (as_str(func, a)?, as_str(func, b)?);
            V::Boolean(glob_match(p, s))
        }
        TimeAdd => {
            let t = as_time(func, a)?;
            let d = as_int(func, b)?;
            let shifted = (t as i128) + (d as i128);
            if shifted < 0 || shifted > u64::MAX as i128 {
                return Err(EvalError::Overflow);
            }
            V::Time(shifted as u64)
        }
        _ => {
            return Err(EvalError::WrongArity {
                func,
                expected: "a binary-applicable function",
                found: 2,
            })
        }
    };
    Ok(out)
}

fn arith(func: Func, a: &AttrValue, b: &AttrValue) -> Result<AttrValue, EvalError> {
    use AttrValue as V;
    match (a, b) {
        (&V::Integer(x), &V::Integer(y)) => {
            let r = match func {
                Func::Add => x.checked_add(y),
                Func::Sub => x.checked_sub(y),
                Func::Mul => x.checked_mul(y),
                Func::Div => {
                    if y == 0 {
                        return Err(EvalError::DivideByZero);
                    }
                    x.checked_div(y)
                }
                _ => unreachable!("arith called with non-arith func"),
            };
            r.map(V::Integer).ok_or(EvalError::Overflow)
        }
        (&V::Double(x), &V::Double(y)) => {
            let r = match func {
                Func::Add => x + y,
                Func::Sub => x - y,
                Func::Mul => x * y,
                Func::Div => {
                    if y == 0.0 {
                        return Err(EvalError::DivideByZero);
                    }
                    x / y
                }
                _ => unreachable!("arith called with non-arith func"),
            };
            Ok(V::Double(r))
        }
        (a, b) => Err(EvalError::TypeMismatch {
            func,
            expected: "two integers or two doubles",
            found: if a.type_name() == "integer" || a.type_name() == "double" {
                b.type_name()
            } else {
                a.type_name()
            },
        }),
    }
}

fn apply<'a>(
    func: Func,
    args: &'a [Expr],
    src: &'a dyn AttributeSource,
    stats: &mut ExprStats,
    depth: u32,
) -> Result<Val<'a>, EvalError> {
    use Func::*;
    let d = depth + 1;
    let scalar_arg = |i: usize, stats: &mut ExprStats| -> Result<Cow<'a, AttrValue>, EvalError> {
        as_scalar(eval_depth(&args[i], src, stats, d)?)
    };
    let bag_arg = |i: usize, stats: &mut ExprStats| -> Result<Cow<'a, [AttrValue]>, EvalError> {
        as_bag(eval_depth(&args[i], src, stats, d)?)
    };
    let func_arg = |i: usize, stats: &mut ExprStats| -> Result<Func, EvalError> {
        match eval_depth(&args[i], src, stats, d)? {
            Val::Function(f) => Ok(f),
            _ => Err(EvalError::NotAFunction),
        }
    };
    match func {
        // Binary scalar functions.
        Eq | Ne | Lt | Le | Gt | Ge | Sub | Div | Mod | StringContains | StartsWith | EndsWith
        | GlobMatch | TimeAdd => {
            need_args(func, args, 2, "2")?;
            let a = scalar_arg(0, stats)?;
            let b = scalar_arg(1, stats)?;
            Ok(scalar(apply_binary_scalar(func, &a, &b)?))
        }
        // Variadic arithmetic.
        Add | Mul => {
            if args.len() < 2 {
                return Err(EvalError::WrongArity {
                    func,
                    expected: "at least 2",
                    found: args.len(),
                });
            }
            let mut acc = scalar_arg(0, stats)?;
            for i in 1..args.len() {
                let next = scalar_arg(i, stats)?;
                acc = Cow::Owned(arith(func, &acc, &next)?);
            }
            Ok(Val::Scalar(acc))
        }
        // Boolean connectives with short-circuit.
        And => {
            for (i, _) in args.iter().enumerate() {
                let v = as_bool(func, &*scalar_arg(i, stats)?)?;
                if !v {
                    return Ok(boolean(false));
                }
            }
            Ok(boolean(true))
        }
        Or => {
            for (i, _) in args.iter().enumerate() {
                let v = as_bool(func, &*scalar_arg(i, stats)?)?;
                if v {
                    return Ok(boolean(true));
                }
            }
            Ok(boolean(false))
        }
        Not => {
            need_args(func, args, 1, "1")?;
            let v = as_bool(func, &*scalar_arg(0, stats)?)?;
            Ok(boolean(!v))
        }
        // Strings.
        Concat => {
            let mut out = String::new();
            for (i, _) in args.iter().enumerate() {
                out.push_str(as_str(func, &*scalar_arg(i, stats)?)?);
            }
            Ok(scalar(AttrValue::from(out)))
        }
        Lower | Upper => {
            need_args(func, args, 1, "1")?;
            let arg = scalar_arg(0, stats)?;
            let s = as_str(func, &arg)?;
            let out = if func == Lower {
                s.to_ascii_lowercase()
            } else {
                s.to_ascii_uppercase()
            };
            Ok(scalar(AttrValue::from(out)))
        }
        StringLength => {
            need_args(func, args, 1, "1")?;
            let arg = scalar_arg(0, stats)?;
            let chars = as_str(func, &arg)?.chars().count();
            Ok(scalar(AttrValue::Integer(chars as i64)))
        }
        // Bags.
        OneAndOnly => {
            need_args(func, args, 1, "1")?;
            Ok(Val::Scalar(scalar_arg(0, stats)?))
        }
        BagSize => {
            need_args(func, args, 1, "1")?;
            let bag = bag_arg(0, stats)?;
            Ok(scalar(AttrValue::Integer(bag.len() as i64)))
        }
        IsIn => {
            need_args(func, args, 2, "2")?;
            let v = scalar_arg(0, stats)?;
            let bag = bag_arg(1, stats)?;
            Ok(boolean(bag.contains(&v)))
        }
        Union => {
            need_args(func, args, 2, "2")?;
            let a = bag_arg(0, stats)?;
            let b = bag_arg(1, stats)?;
            let mut out = a.into_owned();
            for v in b.iter() {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Ok(Val::Bag(Cow::Owned(out)))
        }
        Intersection => {
            need_args(func, args, 2, "2")?;
            let a = bag_arg(0, stats)?;
            let b = bag_arg(1, stats)?;
            let mut out = Vec::new();
            for v in a.iter() {
                if b.contains(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Ok(Val::Bag(Cow::Owned(out)))
        }
        Subset => {
            need_args(func, args, 2, "2")?;
            let a = bag_arg(0, stats)?;
            let b = bag_arg(1, stats)?;
            Ok(boolean(a.iter().all(|v| b.contains(v))))
        }
        SetEquals => {
            need_args(func, args, 2, "2")?;
            let a = bag_arg(0, stats)?;
            let b = bag_arg(1, stats)?;
            Ok(boolean(
                a.iter().all(|v| b.contains(v)) && b.iter().all(|v| a.contains(v)),
            ))
        }
        // Higher-order.
        AnyOf | AllOf => {
            need_args(func, args, 3, "3")?;
            let f = func_arg(0, stats)?;
            let a = scalar_arg(1, stats)?;
            let bag = bag_arg(2, stats)?;
            let mut all = true;
            let mut any = false;
            for x in bag.iter() {
                stats.functions_applied += 1;
                let r = as_bool(f, &apply_binary_scalar(f, &a, x)?)?;
                all &= r;
                any |= r;
                if func == AnyOf && any {
                    break;
                }
                if func == AllOf && !all {
                    break;
                }
            }
            Ok(boolean(if func == AnyOf { any } else { all }))
        }
        AnyOfAny => {
            need_args(func, args, 3, "3")?;
            let f = func_arg(0, stats)?;
            let a = bag_arg(1, stats)?;
            let b = bag_arg(2, stats)?;
            for x in a.iter() {
                for y in b.iter() {
                    stats.functions_applied += 1;
                    if as_bool(f, &apply_binary_scalar(f, x, y)?)? {
                        return Ok(boolean(true));
                    }
                }
            }
            Ok(boolean(false))
        }
        // Time.
        HourOf => {
            need_args(func, args, 1, "1")?;
            let t = as_time(func, &*scalar_arg(0, stats)?)?;
            Ok(scalar(AttrValue::Integer(((t / 3_600_000) % 24) as i64)))
        }
        DayOf => {
            need_args(func, args, 1, "1")?;
            let t = as_time(func, &*scalar_arg(0, stats)?)?;
            Ok(scalar(AttrValue::Integer((t / 86_400_000) as i64)))
        }
        TimeInRange => {
            need_args(func, args, 3, "3")?;
            let t = as_time(func, &*scalar_arg(0, stats)?)?;
            let lo = as_time(func, &*scalar_arg(1, stats)?)?;
            let hi = as_time(func, &*scalar_arg(2, stats)?)?;
            Ok(boolean(lo <= t && t < hi))
        }
        // Conversions.
        IntToDouble => {
            need_args(func, args, 1, "1")?;
            let i = as_int(func, &*scalar_arg(0, stats)?)?;
            Ok(scalar(AttrValue::Double(i as f64)))
        }
        ToString => {
            need_args(func, args, 1, "1")?;
            let s = match scalar_arg(0, stats)?.into_owned() {
                AttrValue::String(s) => s,
                other => format!("{other}").into(),
            };
            Ok(scalar(AttrValue::String(s)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeId;

    fn ctx() -> RequestContext {
        RequestContext::basic("alice", "ehr/1", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("role", "researcher")
            .with_subject_attr("age", 42i64)
            .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000 + 42))
    }

    fn eval_ok(e: &Expr) -> Evaluated {
        let mut stats = ExprStats::default();
        eval(e, &ctx(), &mut stats).expect("evaluation succeeds")
    }

    fn cond(e: &Expr) -> Result<bool, EvalError> {
        let mut stats = ExprStats::default();
        eval_condition(e, &ctx(), &mut stats)
    }

    #[test]
    fn literal_and_attribute() {
        assert_eq!(
            eval_ok(&Expr::val(5i64)),
            Evaluated::Scalar(AttrValue::Integer(5))
        );
        let roles = eval_ok(&Expr::attr(AttributeId::subject("role")));
        assert_eq!(
            roles,
            Evaluated::Bag(vec![
                AttrValue::from("doctor"),
                AttrValue::from("researcher")
            ])
        );
    }

    #[test]
    fn missing_attribute_behaviour() {
        let optional = Expr::attr(AttributeId::subject("clearance"));
        assert_eq!(eval_ok(&optional), Evaluated::Bag(vec![]));
        let required = Expr::attr_required(AttributeId::subject("clearance"));
        let mut stats = ExprStats::default();
        assert_eq!(
            eval(&required, &ctx(), &mut stats),
            Err(EvalError::MissingAttribute(AttributeId::subject(
                "clearance"
            )))
        );
    }

    #[test]
    fn comparison_functions() {
        assert_eq!(cond(&Expr::eq(Expr::val(1i64), Expr::val(1i64))), Ok(true));
        assert_eq!(
            cond(&Expr::apply(
                Func::Lt,
                vec![Expr::val(1i64), Expr::val(2i64)]
            )),
            Ok(true)
        );
        assert_eq!(
            cond(&Expr::apply(Func::Ge, vec![Expr::val("b"), Expr::val("a")])),
            Ok(true)
        );
        // Cross-type ordering is an error.
        assert!(cond(&Expr::apply(
            Func::Lt,
            vec![Expr::val(1i64), Expr::val("a")]
        ))
        .is_err());
    }

    #[test]
    fn arithmetic() {
        let e = Expr::apply(
            Func::Add,
            vec![Expr::val(1i64), Expr::val(2i64), Expr::val(3i64)],
        );
        assert_eq!(eval_ok(&e), Evaluated::Scalar(AttrValue::Integer(6)));
        let div0 = Expr::apply(Func::Div, vec![Expr::val(1i64), Expr::val(0i64)]);
        let mut stats = ExprStats::default();
        assert_eq!(
            eval(&div0, &ctx(), &mut stats),
            Err(EvalError::DivideByZero)
        );
        let ovf = Expr::apply(Func::Add, vec![Expr::val(i64::MAX), Expr::val(1i64)]);
        assert_eq!(eval(&ovf, &ctx(), &mut stats), Err(EvalError::Overflow));
    }

    #[test]
    fn boolean_short_circuit() {
        // Second arg would error (type mismatch) but is never reached.
        let e = Expr::and(vec![
            Expr::val(false),
            Expr::apply(Func::Lt, vec![Expr::val(1i64), Expr::val("a")]),
        ]);
        assert_eq!(cond(&e), Ok(false));
        let e = Expr::or(vec![
            Expr::val(true),
            Expr::apply(Func::Lt, vec![Expr::val(1i64), Expr::val("a")]),
        ]);
        assert_eq!(cond(&e), Ok(true));
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            cond(&Expr::apply(
                Func::StringContains,
                vec![Expr::val("radiology"), Expr::val("radio")]
            )),
            Ok(true)
        );
        assert_eq!(
            cond(&Expr::apply(
                Func::GlobMatch,
                vec![Expr::val("ehr/*"), Expr::val("ehr/1")]
            )),
            Ok(true)
        );
        let e = Expr::apply(Func::Concat, vec![Expr::val("a"), Expr::val("b")]);
        assert_eq!(eval_ok(&e), Evaluated::Scalar(AttrValue::from("ab")));
    }

    #[test]
    fn bag_functions() {
        let roles = Expr::attr(AttributeId::subject("role"));
        assert_eq!(
            eval_ok(&Expr::apply(Func::BagSize, vec![roles.clone()])),
            Evaluated::Scalar(AttrValue::Integer(2))
        );
        assert_eq!(
            cond(&Expr::apply(
                Func::IsIn,
                vec![Expr::val("doctor"), roles.clone()]
            )),
            Ok(true)
        );
        // one-and-only on a two-element bag errors.
        let mut stats = ExprStats::default();
        assert_eq!(
            eval(
                &Expr::apply(Func::OneAndOnly, vec![roles]),
                &ctx(),
                &mut stats
            ),
            Err(EvalError::NotSingleton { size: 2 })
        );
    }

    #[test]
    fn set_operations() {
        let a = Expr::BagLiteral(vec!["x".into(), "y".into()]);
        let b = Expr::BagLiteral(vec!["y".into(), "z".into()]);
        let union = eval_ok(&Expr::apply(Func::Union, vec![a.clone(), b.clone()]));
        assert_eq!(
            union,
            Evaluated::Bag(vec!["x".into(), "y".into(), "z".into()])
        );
        let inter = eval_ok(&Expr::apply(Func::Intersection, vec![a.clone(), b.clone()]));
        assert_eq!(inter, Evaluated::Bag(vec!["y".into()]));
        assert_eq!(
            cond(&Expr::apply(
                Func::Subset,
                vec![Expr::BagLiteral(vec!["y".into()]), b.clone()]
            )),
            Ok(true)
        );
        assert_eq!(cond(&Expr::apply(Func::SetEquals, vec![a, b])), Ok(false));
    }

    #[test]
    fn higher_order_any_of() {
        // any-of(eq, "doctor", subject.role)
        let e = Expr::apply(
            Func::AnyOf,
            vec![
                Expr::FuncRef(Func::Eq),
                Expr::val("doctor"),
                Expr::attr(AttributeId::subject("role")),
            ],
        );
        assert_eq!(cond(&e), Ok(true));
        // all-of(eq, "doctor", subject.role) — bag also has "researcher".
        let e = Expr::apply(
            Func::AllOf,
            vec![
                Expr::FuncRef(Func::Eq),
                Expr::val("doctor"),
                Expr::attr(AttributeId::subject("role")),
            ],
        );
        assert_eq!(cond(&e), Ok(false));
    }

    #[test]
    fn any_of_any() {
        let e = Expr::apply(
            Func::AnyOfAny,
            vec![
                Expr::FuncRef(Func::Eq),
                Expr::BagLiteral(vec!["admin".into(), "researcher".into()]),
                Expr::attr(AttributeId::subject("role")),
            ],
        );
        assert_eq!(cond(&e), Ok(true));
    }

    #[test]
    fn time_functions() {
        let t = Expr::attr(AttributeId::environment("current-time"));
        assert_eq!(
            eval_ok(&Expr::apply(Func::HourOf, vec![t.clone()])),
            Evaluated::Scalar(AttrValue::Integer(9))
        );
        let in_business_hours = Expr::apply(
            Func::TimeInRange,
            vec![
                t,
                Expr::val(AttrValue::Time(8 * 3_600_000)),
                Expr::val(AttrValue::Time(17 * 3_600_000)),
            ],
        );
        assert_eq!(cond(&in_business_hours), Ok(true));
    }

    #[test]
    fn singleton_bag_coerces_to_scalar() {
        // subject.age is a singleton bag; gt() applies one-and-only implicitly.
        let e = Expr::apply(
            Func::Gt,
            vec![Expr::attr(AttributeId::subject("age")), Expr::val(18i64)],
        );
        assert_eq!(cond(&e), Ok(true));
    }

    #[test]
    fn stats_count_work() {
        let e = Expr::and(vec![
            Expr::eq(Expr::attr(AttributeId::subject("id")), Expr::val("alice")),
            Expr::eq(Expr::attr(AttributeId::action("id")), Expr::val("read")),
        ]);
        let mut stats = ExprStats::default();
        eval(&e, &ctx(), &mut stats).unwrap();
        assert_eq!(stats.attribute_lookups, 2);
        assert!(stats.functions_applied >= 3);
    }

    #[test]
    fn depth_limit_enforced() {
        let mut e = Expr::val(true);
        for _ in 0..60 {
            e = Expr::apply(Func::Not, vec![Expr::apply(Func::Not, vec![e])]);
        }
        let mut stats = ExprStats::default();
        assert_eq!(eval(&e, &ctx(), &mut stats), Err(EvalError::DepthExceeded));
    }

    #[test]
    fn func_name_parse_roundtrip() {
        for f in [
            Func::Eq,
            Func::AnyOf,
            Func::TimeInRange,
            Func::GlobMatch,
            Func::OneAndOnly,
            Func::IntToDouble,
        ] {
            assert_eq!(Func::parse(f.name()), Some(f));
        }
        assert_eq!(Func::parse("no-such-fn"), None);
    }

    #[test]
    fn node_count() {
        let e = Expr::and(vec![
            Expr::val(true),
            Expr::apply(Func::Not, vec![Expr::val(false)]),
        ]);
        assert_eq!(e.node_count(), 4);
    }
}
