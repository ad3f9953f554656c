//! Scalar expressions and aggregate functions.

use crate::batch::{Batch, Column, ColumnBuilder};
use crate::error::EngineError;
use crate::value::{Value, ValueRef};
use std::borrow::Cow;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// A scalar expression, evaluated over every row of a batch.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` wildcards (and `_` single-char).
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern, e.g. `"%green%"`.
        pattern: String,
    },
    /// `substr(expr, start, len)` with 1-based `start` (SQL convention).
    Substr {
        /// String operand.
        expr: Box<Expr>,
        /// 1-based start.
        start: usize,
        /// Length.
        len: usize,
    },
    /// `IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Convenience: column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Convenience: binary op.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    /// Evaluates over every row of `batch`.
    pub(crate) fn eval<'a>(&'a self, batch: &'a Batch) -> Result<Operand<'a>, EngineError> {
        let n = batch.len();
        Ok(match self {
            Expr::Col(i) => Operand::Column(Cow::Borrowed(batch.col(*i)?)),
            Expr::Lit(v) => Operand::Scalar(Cow::Borrowed(v)),
            Expr::Not(e) => map(&e.eval(batch)?, n, |v| match v {
                ValueRef::Bool(b) => Ok(ValueRef::Bool(!b)),
                ValueRef::Null => Ok(ValueRef::Null),
                other => Err(EngineError::Type(format!("NOT on non-boolean {other}"))),
            })?,
            Expr::IsNull(e) => map(&e.eval(batch)?, n, |v| Ok(ValueRef::Bool(v.is_null())))?,
            Expr::Like { expr, pattern } => map(&expr.eval(batch)?, n, |v| match v {
                ValueRef::Null => Ok(ValueRef::Null),
                ValueRef::Str(s) => Ok(ValueRef::Bool(like_match(s, pattern))),
                other => Err(EngineError::Type(format!("LIKE on non-string {other}"))),
            })?,
            Expr::Substr { expr, start, len } => map(&expr.eval(batch)?, n, |v| match v {
                ValueRef::Null => Ok(ValueRef::Null),
                ValueRef::Str(s) => Ok(ValueRef::Str(substr(s, *start, *len))),
                other => Err(EngineError::Type(format!("substr on non-string {other}"))),
            })?,
            Expr::Bin { op, l, r } => {
                let (l, r) = (l.eval(batch)?, r.eval(batch)?);
                match (&l, &r) {
                    (Operand::Scalar(a), Operand::Scalar(b)) => {
                        Operand::Scalar(Cow::Owned(eval_bin(*op, a.view(), b.view())?.to_value()))
                    }
                    _ => {
                        let mut out = ColumnBuilder::with_capacity(n);
                        for i in 0..n {
                            out.push(eval_bin(*op, l.get(i), r.get(i))?);
                        }
                        Operand::Column(Cow::Owned(out.finish()))
                    }
                }
            }
        })
    }
}

/// An expression's value over a batch: a column, or one value every row
/// shares.
#[derive(Debug)]
pub(crate) enum Operand<'a> {
    Column(Cow<'a, Column>),
    Scalar(Cow<'a, Value>),
}

impl Operand<'_> {
    /// The value in row `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> ValueRef<'_> {
        match self {
            Operand::Column(c) => c.get(i),
            Operand::Scalar(v) => v.view(),
        }
    }

    /// The value as a column of `len` rows.
    pub(crate) fn into_column(self, len: usize) -> Column {
        match self {
            Operand::Column(c) => c.into_owned(),
            Operand::Scalar(v) => Column::repeat(v.view(), len),
        }
    }
}

/// `f` applied to every row of `x` (once, if `x` is a scalar).
fn map<'x>(
    x: &'x Operand<'_>,
    n: usize,
    mut f: impl FnMut(ValueRef<'x>) -> Result<ValueRef<'x>, EngineError>,
) -> Result<Operand<'static>, EngineError> {
    Ok(match x {
        Operand::Scalar(v) => Operand::Scalar(Cow::Owned(f(v.view())?.to_value())),
        Operand::Column(c) => {
            let mut out = ColumnBuilder::with_capacity(n);
            for i in 0..n {
                out.push(f(c.get(i))?);
            }
            Operand::Column(Cow::Owned(out.finish()))
        }
    })
}

/// `substr(s, start, len)`: `len` characters from the 1-based `start`.
fn substr(s: &str, start: usize, len: usize) -> &str {
    let mut bounds = s
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(s.len()));
    let from = bounds.nth(start.saturating_sub(1)).unwrap_or(s.len());
    let to = match len {
        0 => from,
        _ => bounds.nth(len - 1).unwrap_or(s.len()),
    };
    &s[from..to]
}

fn eval_bin(op: BinOp, l: ValueRef<'_>, r: ValueRef<'_>) -> Result<ValueRef<'static>, EngineError> {
    use BinOp::*;
    match op {
        And | Or => {
            // SQL three-valued logic.
            let lb = match l {
                ValueRef::Bool(b) => Some(b),
                ValueRef::Null => None,
                other => return Err(EngineError::Type(format!("{op:?} on non-boolean {other}"))),
            };
            let rb = match r {
                ValueRef::Bool(b) => Some(b),
                ValueRef::Null => None,
                other => return Err(EngineError::Type(format!("{op:?} on non-boolean {other}"))),
            };
            let out = match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Some(false),
                (And, Some(true), Some(true)) => Some(true),
                (Or, Some(true), _) | (Or, _, Some(true)) => Some(true),
                (Or, Some(false), Some(false)) => Some(false),
                _ => None,
            };
            Ok(out.map_or(ValueRef::Null, ValueRef::Bool))
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(ValueRef::Null);
            }
            let ord = l.total_cmp(r);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(ValueRef::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(ValueRef::Null);
            }
            // Integer arithmetic stays integral except division.
            if let (ValueRef::Int(a), ValueRef::Int(b)) = (l, r) {
                return Ok(match op {
                    Add => ValueRef::Int(a.wrapping_add(b)),
                    Sub => ValueRef::Int(a.wrapping_sub(b)),
                    Mul => ValueRef::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            ValueRef::Null
                        } else {
                            ValueRef::Float(a as f64 / b as f64)
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EngineError::Type(format!(
                        "arithmetic on non-numeric {l} / {r}"
                    )))
                }
            };
            Ok(ValueRef::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                _ => unreachable!(),
            }))
        }
    }
}

/// Glob-style match for SQL `LIKE`: `%` = any run, `_` = any single char.
/// ASCII input matches byte by byte; anything else char by char, so `_`
/// always consumes one whole character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    if s.is_ascii() && pattern.is_ascii() {
        return glob(s.as_bytes(), pattern.as_bytes());
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    glob(&s, &p)
}

/// [`like_match`] over bytes or chars.
fn glob<T: Copy + PartialEq + From<u8>>(s: &[T], p: &[T]) -> bool {
    let (any_run, any_one) = (T::from(b'%'), T::from(b'_'));
    // Iterative two-pointer with backtracking on the last `%`.
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == any_one || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == any_run {
            star = pi;
            star_s = si;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == any_run {
        pi += 1;
    }
    pi == p.len()
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `sum(expr)`
    Sum,
    /// `count(expr)` (non-null inputs) / `count(*)` when the input is a
    /// literal.
    Count,
    /// `avg(expr)`
    Avg,
    /// `min(expr)`
    Min,
    /// `max(expr)`
    Max,
}

/// Running accumulator for one aggregate.
#[derive(Clone, Debug)]
pub(crate) struct Accumulator {
    func: AggFunc,
    count: u64,
    sum: f64,
    int_sum: i64,
    ints_only: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub(crate) fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            int_sum: 0,
            ints_only: true,
            min: None,
            max: None,
        }
    }

    /// Folds one input value.
    pub(crate) fn push(&mut self, v: ValueRef<'_>) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match v {
            ValueRef::Int(i) => {
                self.int_sum = self.int_sum.wrapping_add(i);
                self.sum += i as f64;
            }
            ValueRef::Float(f) => {
                self.ints_only = false;
                self.sum += f;
            }
            _ => {}
        }
        match self.func {
            AggFunc::Min
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m.view()).is_lt()) =>
            {
                self.min = Some(v.to_value());
            }
            AggFunc::Max
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m.view()).is_gt()) =>
            {
                self.max = Some(v.to_value());
            }
            _ => {}
        }
    }

    /// Final aggregate value.
    pub(crate) fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.ints_only {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluation over the one-row batch (10, "green apple", 2.5, NULL).
    trait EvalRow {
        fn eval_row(&self) -> Result<Value, EngineError>;
    }

    impl EvalRow for Expr {
        fn eval_row(&self) -> Result<Value, EngineError> {
            let row = vec![
                Value::Int(10),
                Value::Str("green apple".into()),
                Value::Float(2.5),
                Value::Null,
            ];
            let batch = Batch::from_rows(&[row]).unwrap();
            self.eval(&batch).map(|v| v.get(0).to_value())
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::bin(BinOp::Mul, Expr::col(0), Expr::lit(3i64));
        assert_eq!(e.eval_row().unwrap(), Value::Int(30));
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::col(2));
        assert_eq!(e.eval_row().unwrap(), Value::Float(12.5));
        let e = Expr::bin(BinOp::Gt, Expr::col(0), Expr::lit(5i64));
        assert_eq!(e.eval_row().unwrap(), Value::Bool(true));
        let e = Expr::bin(BinOp::Div, Expr::lit(7i64), Expr::lit(2i64));
        assert_eq!(e.eval_row().unwrap(), Value::Float(3.5));
        let e = Expr::bin(BinOp::Div, Expr::lit(7i64), Expr::lit(0i64));
        assert_eq!(e.eval_row().unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation() {
        let e = Expr::bin(BinOp::Add, Expr::col(3), Expr::lit(1i64));
        assert_eq!(e.eval_row().unwrap(), Value::Null);
        let e = Expr::bin(BinOp::Eq, Expr::col(3), Expr::col(3));
        assert_eq!(e.eval_row().unwrap(), Value::Null);
        let e = Expr::IsNull(Box::new(Expr::col(3)));
        assert_eq!(e.eval_row().unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let t = Expr::lit(true);
        let n = Expr::col(3);
        assert_eq!(
            Expr::bin(BinOp::And, t.clone(), n.clone())
                .eval_row()
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::bin(BinOp::Or, t, n.clone()).eval_row().unwrap(),
            Value::Bool(true)
        );
        let f = Expr::lit(false);
        assert_eq!(
            Expr::bin(BinOp::And, f, n).eval_row().unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("green apple", "%green%"));
        assert!(like_match("green", "green"));
        assert!(like_match("greet", "gre_t"));
        assert!(!like_match("red", "%green%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%"));
        assert!(like_match("forest green paint", "%green%"));
        assert!(!like_match("greenish", "green"));
    }

    #[test]
    fn like_on_non_ascii_agrees_with_the_char_path() {
        let by_chars = |s: &str, p: &str| {
            let s: Vec<char> = s.chars().collect();
            let p: Vec<char> = p.chars().collect();
            glob(&s, &p)
        };
        for s in ["é", "naïve", "e", "naive", ""] {
            for p in ["_", "__", "%ï%", "na_ve", "%", "é", "n%e", "%_"] {
                assert_eq!(like_match(s, p), by_chars(s, p), "{s:?} LIKE {p:?}");
            }
        }
        // `_` is one character, not one byte.
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(like_match("naïve", "%ï%"));
        assert!(like_match("naïve", "na_ve"));
        assert!(!like_match("naive", "%ï%"));
    }

    #[test]
    fn substr_is_one_based() {
        let e = Expr::Substr {
            expr: Box::new(Expr::col(1)),
            start: 1,
            len: 5,
        };
        assert_eq!(e.eval_row().unwrap(), Value::Str("green".into()));
        let e = Expr::Substr {
            expr: Box::new(Expr::col(1)),
            start: 7,
            len: 5,
        };
        assert_eq!(e.eval_row().unwrap(), Value::Str("apple".into()));
    }

    #[test]
    fn accumulators() {
        let vals = [Value::Int(3), Value::Int(5), Value::Null, Value::Int(2)];
        let mut sum = Accumulator::new(AggFunc::Sum);
        let mut cnt = Accumulator::new(AggFunc::Count);
        let mut avg = Accumulator::new(AggFunc::Avg);
        let mut min = Accumulator::new(AggFunc::Min);
        let mut max = Accumulator::new(AggFunc::Max);
        for v in &vals {
            sum.push(v.view());
            cnt.push(v.view());
            avg.push(v.view());
            min.push(v.view());
            max.push(v.view());
        }
        assert_eq!(sum.finish(), Value::Int(10));
        assert_eq!(cnt.finish(), Value::Int(3));
        assert_eq!(avg.finish(), Value::Float(10.0 / 3.0));
        assert_eq!(min.finish(), Value::Int(2));
        assert_eq!(max.finish(), Value::Int(5));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Value::Int(0));
        assert_eq!(Accumulator::new(AggFunc::Min).finish(), Value::Null);
    }

    #[test]
    fn mixed_int_float_sum_degrades_to_float() {
        let mut sum = Accumulator::new(AggFunc::Sum);
        sum.push(ValueRef::Int(1));
        sum.push(ValueRef::Float(0.5));
        assert_eq!(sum.finish(), Value::Float(1.5));
    }
}
