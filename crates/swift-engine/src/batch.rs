//! Column batches: the engine's data plane.
//!
//! Operators consume and produce a [`Batch`]: a run of rows stored as one
//! typed [`Column`] per field — `i64`, `f64` and `bool` vectors, strings as
//! offsets into one text buffer, and a [`Value`] vector for a column whose
//! values differ in type. Typed columns mark NULLs in a validity vector.
//! Rows exist only at the public boundary ([`Batch::from_rows`],
//! [`Batch::into_rows`]).
//!
//! Key semantics live here too and are shared by rows and batches:
//! [`hash_key`]'s byte stream decides which partition a row lands in, and
//! [`KeyPart`] equality decides which keys join and group together.

use crate::error::{EngineError, Result};
use crate::plan::SortKey;
use crate::value::{Row, Value, ValueRef};
use std::cmp::Ordering;

/// Row index meaning "no row": gathering it yields a NULL slot.
pub(crate) const NONE: u32 = u32::MAX;

/// A row count or index as `u32`, the width of every index vector.
pub(crate) fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a batch holds fewer than 2^32 rows")
}

/// One column of a batch.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Column {
    data: Data,
    /// `Some(valid)`: row `i` is NULL where `!valid[i]`, and its slot in
    /// `data` holds a placeholder. `None`: no row is NULL. Always `None`
    /// for [`Data::Mixed`], which stores its NULLs inline.
    valid: Option<Vec<bool>>,
}

/// The values of a column.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Data {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Row `i` is `text[offsets[i]..offsets[i + 1]]`: `offsets` starts at
    /// 0, never decreases, ends at `text.len()` and has one entry more
    /// than the column has rows, each on a char boundary.
    Str {
        offsets: Vec<u32>,
        text: String,
    },
    /// Values of more than one type, NULLs included.
    Mixed(Vec<Value>),
}

/// A string column's offset for `len` bytes of text.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a string column holds less than 4 GiB")
}

impl Data {
    /// Number of slots.
    fn len(&self) -> usize {
        match self {
            Data::Int(v) => v.len(),
            Data::Float(v) => v.len(),
            Data::Bool(v) => v.len(),
            Data::Str { offsets, .. } => offsets.len() - 1,
            Data::Mixed(v) => v.len(),
        }
    }

    /// Empty data of `v`'s type with `slots` placeholder slots.
    fn of_type(v: ValueRef<'_>, slots: usize) -> Data {
        match v {
            ValueRef::Int(_) => Data::Int(vec![0; slots]),
            ValueRef::Float(_) => Data::Float(vec![0.0; slots]),
            ValueRef::Bool(_) => Data::Bool(vec![false; slots]),
            ValueRef::Str(_) => Data::Str {
                offsets: vec![0; slots + 1],
                text: String::new(),
            },
            ValueRef::Null => Data::Mixed(vec![Value::Null; slots]),
        }
    }

    /// Appends `v` if it is of this data's type (anything goes into
    /// `Mixed`); `false` if it is not.
    fn push(&mut self, v: ValueRef<'_>) -> bool {
        match (self, v) {
            (Data::Int(xs), ValueRef::Int(x)) => xs.push(x),
            (Data::Float(xs), ValueRef::Float(x)) => xs.push(x),
            (Data::Bool(xs), ValueRef::Bool(x)) => xs.push(x),
            (Data::Str { offsets, text }, ValueRef::Str(s)) => {
                text.push_str(s);
                offsets.push(offset(text.len()));
            }
            (Data::Mixed(xs), v) => xs.push(v.to_value()),
            _ => return false,
        }
        true
    }

    /// Appends the placeholder a NULL slot holds.
    fn push_placeholder(&mut self) {
        match self {
            Data::Int(xs) => xs.push(0),
            Data::Float(xs) => xs.push(0.0),
            Data::Bool(xs) => xs.push(false),
            Data::Str { offsets, text } => offsets.push(offset(text.len())),
            Data::Mixed(xs) => xs.push(Value::Null),
        }
    }

    fn same_type(&self, other: &Data) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}

/// The column [`Batch::col`] yields for any index of an empty batch: a
/// batch without rows may not know its width, and reads nothing anyway.
static EMPTY: Column = Column {
    data: Data::Mixed(Vec::new()),
    valid: None,
};

impl Column {
    /// A column over `data`, checking what the type promises: `valid`
    /// covers every slot, `Mixed` has none, and string offsets are
    /// monotone, in bounds and on char boundaries.
    pub(crate) fn new(data: Data, valid: Option<Vec<bool>>) -> Result<Column> {
        let bad = |what: &str| Err(EngineError::Type(format!("malformed column: {what}")));
        if let Data::Str { offsets, text } = &data {
            if offsets.first() != Some(&0)
                || offsets.last().map(|&o| o as usize) != Some(text.len())
            {
                return bad("string offsets do not span the text");
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return bad("string offsets decrease");
            }
            if !offsets.iter().all(|&o| text.is_char_boundary(o as usize)) {
                return bad("string offset splits a character");
            }
        }
        match (&data, &valid) {
            (Data::Mixed(_), Some(_)) => bad("mixed column with a validity vector"),
            (_, Some(v)) if v.len() != data.len() => bad("validity length differs from the data"),
            _ => Ok(Column { data, valid }),
        }
    }

    /// The column's values.
    pub(crate) fn data(&self) -> &Data {
        &self.data
    }

    /// Which rows are not NULL, if any row is NULL.
    pub(crate) fn valid(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// `len` NULLs.
    pub(crate) fn nulls(len: usize) -> Column {
        Column {
            data: Data::Mixed(vec![Value::Null; len]),
            valid: None,
        }
    }

    /// `v`, `len` times.
    pub(crate) fn repeat(v: ValueRef<'_>, len: usize) -> Column {
        let mut b = ColumnBuilder::with_capacity(len);
        for _ in 0..len {
            b.push(v);
        }
        b.finish()
    }

    /// The value in row `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> ValueRef<'_> {
        if self.valid.as_ref().is_some_and(|v| !v[i]) {
            return ValueRef::Null;
        }
        match &self.data {
            Data::Int(v) => ValueRef::Int(v[i]),
            Data::Float(v) => ValueRef::Float(v[i]),
            Data::Bool(v) => ValueRef::Bool(v[i]),
            Data::Str { offsets, text } => {
                ValueRef::Str(&text[offsets[i] as usize..offsets[i + 1] as usize])
            }
            Data::Mixed(v) => v[i].view(),
        }
    }

    /// Orders rows `a` and `b` of this column as [`Value::total_cmp`].
    #[inline]
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match (&self.data, &self.valid) {
            (Data::Int(v), None) => v[a].cmp(&v[b]),
            (Data::Float(v), None) => v[a].total_cmp(&v[b]),
            _ => self.get(a).total_cmp(self.get(b)),
        }
    }

    /// The rows `idx` names, in that order; [`NONE`] yields NULL.
    pub(crate) fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Copy>(v: &[T], idx: &[u32], fill: T) -> Vec<T> {
            idx.iter()
                .map(|&i| v.get(i as usize).copied().unwrap_or(fill))
                .collect()
        }
        let data = match &self.data {
            Data::Int(v) => Data::Int(pick(v, idx, 0)),
            Data::Float(v) => Data::Float(pick(v, idx, 0.0)),
            Data::Bool(v) => Data::Bool(pick(v, idx, false)),
            Data::Str { offsets, text } => {
                let span = |i: u32| match offsets.get(i as usize + 1) {
                    Some(&end) => offsets[i as usize] as usize..end as usize,
                    None => 0..0,
                };
                let mut out = String::with_capacity(idx.iter().map(|&i| span(i).len()).sum());
                let mut out_offsets = Vec::with_capacity(idx.len() + 1);
                out_offsets.push(0);
                for &i in idx {
                    out.push_str(&text[span(i)]);
                    out_offsets.push(offset(out.len()));
                }
                Data::Str {
                    offsets: out_offsets,
                    text: out,
                }
            }
            Data::Mixed(v) => Data::Mixed(
                idx.iter()
                    .map(|&i| v.get(i as usize).cloned().unwrap_or(Value::Null))
                    .collect(),
            ),
        };
        let valid = match (&self.valid, &data) {
            (_, Data::Mixed(_)) => None,
            (Some(valid), _) => Some(
                idx.iter()
                    .map(|&i| valid.get(i as usize).copied().unwrap_or(false))
                    .collect(),
            ),
            (None, _) if idx.contains(&NONE) => Some(idx.iter().map(|&i| i != NONE).collect()),
            (None, _) => None,
        };
        Column { data, valid }
    }

    /// Appends `other`'s rows; columns of different types become `Mixed`.
    fn append(&mut self, other: Column) {
        if other.len() == 0 {
            return;
        }
        if self.len() == 0 {
            *self = other;
            return;
        }
        if !self.data.same_type(&other.data) {
            let mut values = self.values();
            values.extend(other.values());
            *self = Column {
                data: Data::Mixed(values),
                valid: None,
            };
            return;
        }
        if self.valid.is_some() || other.valid.is_some() {
            let (n, m) = (self.len(), other.len());
            let valid = self.valid.get_or_insert_with(|| vec![true; n]);
            match other.valid {
                Some(v) => valid.extend(v),
                None => valid.resize(n + m, true),
            }
        }
        match (&mut self.data, other.data) {
            (Data::Int(a), Data::Int(b)) => a.extend(b),
            (Data::Float(a), Data::Float(b)) => a.extend(b),
            (Data::Bool(a), Data::Bool(b)) => a.extend(b),
            (
                Data::Str { offsets, text },
                Data::Str {
                    offsets: more,
                    text: more_text,
                },
            ) => {
                let base = offset(text.len());
                text.push_str(&more_text);
                offsets.extend(more[1..].iter().map(|&o| base + o));
            }
            (Data::Mixed(a), Data::Mixed(b)) => a.extend(b),
            _ => unreachable!("same_type checked above"),
        }
    }

    fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        match &mut self.data {
            Data::Int(v) => v.truncate(n),
            Data::Float(v) => v.truncate(n),
            Data::Bool(v) => v.truncate(n),
            Data::Str { offsets, text } => {
                offsets.truncate(n + 1);
                text.truncate(offsets[n] as usize);
            }
            Data::Mixed(v) => v.truncate(n),
        }
        if let Some(v) = &mut self.valid {
            v.truncate(n);
        }
    }

    /// Every row as an owned value.
    fn values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i).to_value()).collect()
    }

    /// Folds each row's key part into its hash in `hashes`.
    fn hash_into(&self, hashes: &mut [u64]) {
        match (&self.data, &self.valid) {
            (Data::Int(v), None) => {
                for (h, &x) in hashes.iter_mut().zip(v) {
                    KeyPart::Int(x).hash_into(h);
                }
            }
            _ => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    KeyPart::of(self.get(i)).hash_into(h);
                }
            }
        }
    }
}

/// Builds a column one value at a time. The first non-NULL value fixes
/// the type; a value of another type turns the column `Mixed`.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    /// `None` while every value so far is NULL.
    data: Option<Data>,
    valid: Option<Vec<bool>>,
    len: usize,
    capacity: usize,
}

impl ColumnBuilder {
    /// A builder expecting about `capacity` values.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            data: None,
            valid: None,
            len: 0,
            capacity,
        }
    }

    pub(crate) fn push(&mut self, v: ValueRef<'_>) {
        let len = self.len;
        self.len += 1;
        let Some(data) = &mut self.data else {
            if !v.is_null() {
                let mut data = Data::of_type(v, len);
                reserve(&mut data, self.capacity);
                data.push(v);
                self.data = Some(data);
                if len > 0 {
                    let mut valid = Vec::with_capacity(self.capacity);
                    valid.resize(len, false);
                    valid.push(true);
                    self.valid = Some(valid);
                }
            }
            return;
        };
        if v.is_null() {
            data.push_placeholder();
            if !matches!(data, Data::Mixed(_)) {
                self.valid
                    .get_or_insert_with(|| vec![true; len])
                    .push(false);
            }
        } else if data.push(v) {
            if let Some(valid) = &mut self.valid {
                valid.push(true);
            }
        } else {
            let so_far = Column {
                data: std::mem::replace(data, Data::Mixed(Vec::new())),
                valid: self.valid.take(),
            };
            let mut values = so_far.values();
            values.push(v.to_value());
            *data = Data::Mixed(values);
        }
    }

    pub(crate) fn finish(self) -> Column {
        match self.data {
            None => Column::nulls(self.len),
            Some(data) => Column {
                data,
                valid: self.valid,
            },
        }
    }
}

/// Reserves room for `capacity` slots in total.
fn reserve(data: &mut Data, capacity: usize) {
    let more = capacity.saturating_sub(data.len());
    match data {
        Data::Int(v) => v.reserve(more),
        Data::Float(v) => v.reserve(more),
        Data::Bool(v) => v.reserve(more),
        Data::Str { offsets, .. } => offsets.reserve(more),
        Data::Mixed(v) => v.reserve(more),
    }
}

/// A run of rows stored column by column.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Batch {
    columns: Vec<Column>,
    /// Rows, kept apart from the columns: a batch may have no columns.
    len: usize,
}

impl Batch {
    /// A batch of `len` rows over `columns`, each `len` long.
    pub(crate) fn new(columns: Vec<Column>, len: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == len), "ragged batch");
        Batch { columns, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub(crate) fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    pub(crate) fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Column `i`, or the type error a read past the last column is. A
    /// batch without rows yields an empty column for any index.
    pub(crate) fn col(&self, i: usize) -> Result<&Column> {
        match self.columns.get(i) {
            Some(c) => Ok(c),
            None if self.len == 0 => Ok(&EMPTY),
            None => Err(EngineError::Type(format!(
                "column {i} out of range ({} cols)",
                self.width()
            ))),
        }
    }

    /// The value at (`col`, `row`); a missing column reads as NULL.
    #[inline]
    pub(crate) fn value(&self, col: usize, row: usize) -> ValueRef<'_> {
        self.columns.get(col).map_or(ValueRef::Null, |c| c.get(row))
    }

    /// The rows `idx` names, in that order; [`NONE`] yields a row of NULLs.
    pub(crate) fn gather(&self, idx: &[u32]) -> Batch {
        Batch::new(
            self.columns.iter().map(|c| c.gather(idx)).collect(),
            idx.len(),
        )
    }

    /// Keeps the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize) {
        for c in &mut self.columns {
            c.truncate(n);
        }
        self.len = self.len.min(n);
    }

    /// Appends a column of `len()` rows.
    pub(crate) fn push_column(&mut self, column: Column) {
        debug_assert_eq!(column.len(), self.len);
        self.columns.push(column);
    }

    /// The batch holding `rows`, which must all have one width.
    pub(crate) fn from_rows(rows: &[Row]) -> Result<Batch> {
        let width = rows.first().map_or(0, Vec::len);
        if let Some(r) = rows.iter().find(|r| r.len() != width) {
            return Err(EngineError::Type(format!(
                "rows of different widths: {width} and {}",
                r.len()
            )));
        }
        let mut builders: Vec<ColumnBuilder> = (0..width)
            .map(|_| ColumnBuilder::with_capacity(rows.len()))
            .collect();
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v.view());
            }
        }
        Ok(Batch::new(
            builders.into_iter().map(ColumnBuilder::finish).collect(),
            rows.len(),
        ))
    }

    /// The batch's rows.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        let width = self.width();
        let mut rows: Vec<Row> = (0..self.len).map(|_| Vec::with_capacity(width)).collect();
        for col in self.columns {
            match col.data {
                Data::Mixed(values) => {
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.push(v);
                    }
                }
                _ => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(col.get(i).to_value());
                    }
                }
            }
        }
        rows
    }

    /// The rows of `parts`, in order. Parts without rows are skipped (they
    /// may not know their width); the others must share one width.
    pub(crate) fn concat(parts: Vec<Batch>) -> Result<Batch> {
        let mut out = Batch::default();
        for part in parts {
            if part.len == 0 {
                continue;
            }
            if out.len == 0 {
                out = part;
                continue;
            }
            if part.width() != out.width() {
                return Err(EngineError::Type(format!(
                    "batches of different widths: {} and {}",
                    out.width(),
                    part.width()
                )));
            }
            for (c, more) in out.columns.iter_mut().zip(part.columns) {
                c.append(more);
            }
            out.len += part.len;
        }
        Ok(out)
    }
}

/// The permutation that stably sorts `batch` by `keys`: its `k`-th entry
/// is the row that goes `k`-th. A missing key column reads as NULL.
pub(crate) fn sort_indices(batch: &Batch, keys: &[SortKey]) -> Vec<u32> {
    let keys: Vec<(&Column, bool)> = keys
        .iter()
        .filter_map(|k| Some((batch.column(k.col)?, k.desc)))
        .collect();
    if let [(col, desc)] = keys[..] {
        if let (Data::Int(v), None) = (&col.data, &col.valid) {
            // A stable sort of the (key, row) pairs by key: rows with equal
            // keys stay in row order. It also finds the sorted runs a
            // merging stage receives (one per producer) and merges them
            // instead of sorting from scratch.
            let mut pairs: Vec<(i64, u32)> = v.iter().copied().zip(0..).collect();
            if desc {
                pairs.sort_by_key(|p| std::cmp::Reverse(p.0));
            } else {
                pairs.sort_by_key(|p| p.0);
            }
            return pairs.into_iter().map(|(_, row)| row).collect();
        }
    }
    let mut idx: Vec<u32> = (0..index(batch.len())).collect();
    idx.sort_by(|&a, &b| {
        for &(col, desc) in &keys {
            let ord = col.cmp_rows(a as usize, b as usize);
            if ord != Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        Ordering::Equal
    });
    idx
}

/// Orders row `i` of `a` against row `j` of `b` by the key columns `ak`
/// and `bk`, all ascending, as [`Value::total_cmp`] does.
pub(crate) fn cmp_keys(
    a: &Batch,
    ak: &[usize],
    i: usize,
    b: &Batch,
    bk: &[usize],
    j: usize,
) -> Ordering {
    for (&x, &y) in ak.iter().zip(bk) {
        let ord = a.value(x, i).total_cmp(b.value(y, j));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// One key column in canonical form: what [`hash_key`] hashes and key
/// equality compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum KeyPart<'a> {
    Null,
    Bool(bool),
    /// Integers, and floats holding an integral value in `i64` range.
    Int(i64),
    /// Every other float, by bit pattern.
    Float(u64),
    Str(&'a str),
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl<'a> KeyPart<'a> {
    pub(crate) fn of(v: ValueRef<'a>) -> Self {
        match v {
            ValueRef::Null => KeyPart::Null,
            ValueRef::Bool(b) => KeyPart::Bool(b),
            ValueRef::Int(i) => KeyPart::Int(i),
            ValueRef::Float(f)
                if f.fract() == 0.0
                    && f.is_finite()
                    && f >= i64::MIN as f64
                    && f <= i64::MAX as f64 =>
            {
                KeyPart::Int(f as i64)
            }
            ValueRef::Float(f) => KeyPart::Float(f.to_bits()),
            ValueRef::Str(s) => KeyPart::Str(s),
        }
    }

    /// Folds this part's canonical bytes into the FNV-1a hash `h`.
    #[inline]
    fn hash_into(self, h: &mut u64) {
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        };
        match self {
            KeyPart::Null => eat(&[0]),
            KeyPart::Bool(b) => eat(&[1, b as u8]),
            KeyPart::Int(i) => {
                eat(&[2]);
                eat(&i.to_le_bytes());
            }
            KeyPart::Float(bits) => {
                eat(&[3]);
                eat(&bits.to_le_bytes());
            }
            KeyPart::Str(s) => {
                eat(&[4]);
                eat(s.as_bytes());
            }
        }
    }
}

/// Stable hash of a key tuple for [`crate::OutputPartitioning::Hash`].
/// Numeric values that compare equal hash equally (`Int(2)` vs
/// `Float(2.0)`), so co-partitioned joins behave like [`Value::sql_eq`];
/// a missing column hashes as NULL.
pub fn hash_key(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = FNV_OFFSET;
    for &c in cols {
        KeyPart::of(row.get(c).map_or(ValueRef::Null, Value::view)).hash_into(&mut h);
    }
    h
}

/// [`hash_key`] of every row of `batch`.
pub(crate) fn hash_keys(batch: &Batch, cols: &[usize]) -> Vec<u64> {
    let mut hashes = vec![FNV_OFFSET; batch.len()];
    for &c in cols {
        match batch.column(c) {
            Some(col) => col.hash_into(&mut hashes),
            None => hashes.iter_mut().for_each(|h| KeyPart::Null.hash_into(h)),
        }
    }
    hashes
}

/// Whether row `i` of `a` and row `j` of `b` hold the same key in columns
/// `ak` and `bk`: `Int(2)` equals `Float(2.0)`, and NULL (or a missing
/// column) equals NULL, as GROUP BY wants — joins drop NULL keys before
/// they compare. Equal keys hash equally.
#[inline]
pub(crate) fn keys_eq(
    a: &Batch,
    ak: &[usize],
    i: usize,
    b: &Batch,
    bk: &[usize],
    j: usize,
) -> bool {
    ak.len() == bk.len()
        && ak
            .iter()
            .zip(bk)
            .all(|(&x, &y)| KeyPart::of(a.value(x, i)) == KeyPart::of(b.value(y, j)))
}

/// Whether any key column of row `i` is NULL or missing.
pub(crate) fn has_null_key(batch: &Batch, cols: &[usize], i: usize) -> bool {
    cols.iter().any(|&c| batch.value(c, i).is_null())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<Value> {
        let s = |x: &str| Value::Str(x.into());
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(2),
            Value::Int(-3),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(i64::MAX as f64),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::INFINITY),
            s(""),
            s("a"),
            s("é"),
            s("2"),
        ]
    }

    /// The values laid out as one-column batches in every column shape:
    /// typed with and without NULLs, Int mixed with Float, and everything
    /// in one mixed column.
    fn layouts() -> Vec<(Batch, Vec<Value>)> {
        let all = values();
        let only = |keep: fn(&Value) -> bool| -> Vec<Value> {
            all.iter().filter(|v| keep(v)).cloned().collect()
        };
        let groups = [
            only(|v| matches!(v, Value::Int(_))),
            only(|v| matches!(v, Value::Int(_) | Value::Null)),
            only(|v| matches!(v, Value::Float(_))),
            only(|v| matches!(v, Value::Float(_) | Value::Null)),
            only(|v| matches!(v, Value::Str(_) | Value::Null)),
            only(|v| matches!(v, Value::Bool(_) | Value::Null)),
            only(|v| matches!(v, Value::Int(_) | Value::Float(_))),
            all.clone(),
        ];
        groups
            .into_iter()
            .map(|g| {
                let rows: Vec<Row> = g.iter().map(|v| vec![v.clone()]).collect();
                (Batch::from_rows(&rows).unwrap(), g)
            })
            .collect()
    }

    #[test]
    fn batch_keys_agree_with_value_semantics() {
        let layouts = layouts();
        let kinds: Vec<_> = layouts
            .iter()
            .map(|(b, _)| {
                (
                    std::mem::discriminant(b.columns()[0].data()),
                    b.columns()[0].valid().is_some(),
                )
            })
            .collect();
        assert!(kinds.contains(&(std::mem::discriminant(&Data::Int(vec![])), false)));
        assert!(kinds.contains(&(std::mem::discriminant(&Data::Float(vec![])), true)));
        assert_eq!(kinds[6].0, std::mem::discriminant(&Data::Mixed(vec![])));
        for (a, avs) in &layouts {
            let hashes = hash_keys(a, &[0]);
            for (i, x) in avs.iter().enumerate() {
                assert_eq!(hashes[i], hash_key(std::slice::from_ref(x), &[0]), "{x:?}");
                for (j, y) in avs.iter().enumerate() {
                    let col = &a.columns()[0];
                    assert_eq!(col.cmp_rows(i, j), x.total_cmp(y), "{x:?} vs {y:?}");
                }
                for (b, bvs) in &layouts {
                    for (j, y) in bvs.iter().enumerate() {
                        let same_key = KeyPart::of(x.view()) == KeyPart::of(y.view());
                        assert_eq!(cmp_keys(a, &[0], i, b, &[0], j), x.total_cmp(y));
                        assert_eq!(keys_eq(a, &[0], i, b, &[0], j), same_key, "{x:?} vs {y:?}");
                        if same_key {
                            assert_eq!(hashes[i], hash_key(std::slice::from_ref(y), &[0]));
                        }
                    }
                }
            }
            for desc in [false, true] {
                let mut want: Vec<u32> = (0..index(avs.len())).collect();
                want.sort_by(|&p, &q| {
                    let ord = avs[p as usize].total_cmp(&avs[q as usize]);
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                assert_eq!(sort_indices(a, &[SortKey { col: 0, desc }]), want);
            }
        }
        // The cases results depend on.
        let same = |x: Value, y: Value| KeyPart::of(x.view()) == KeyPart::of(y.view());
        assert!(same(Value::Int(2), Value::Float(2.0)));
        assert!(same(Value::Float(-0.0), Value::Float(0.0)));
        assert!(Value::Float(-0.0).total_cmp(&Value::Float(0.0)).is_lt());
        assert!(same(Value::Float(f64::NAN), Value::Float(f64::NAN)));
        assert!(same(Value::Null, Value::Null), "NULL groups with NULL");
        assert!(same(Value::Int(i64::MAX), Value::Float(i64::MAX as f64)));
        assert!(!same(Value::Int(2), Value::Str("2".into())));
    }

    /// The single-Int-key fast path over what a merging stage sees:
    /// sorted runs laid end to end, with keys repeated within and across
    /// runs.
    #[test]
    fn sorting_concatenated_runs_matches_a_reference_sort() {
        let mut keys = Vec::new();
        for run in 0..5i64 {
            let mut part: Vec<i64> = (0..40).map(|i| (i * 7 + run * 3) % 23 - 11).collect();
            part.sort_unstable();
            keys.extend(part);
        }
        let rows: Vec<Row> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
        let batch = Batch::from_rows(&rows).unwrap();
        for desc in [false, true] {
            let mut want: Vec<(i64, u32)> = keys.iter().copied().zip(0..).collect();
            want.sort_by(|a, b| {
                let ord = if desc { b.0.cmp(&a.0) } else { a.0.cmp(&b.0) };
                ord.then(a.1.cmp(&b.1))
            });
            let want: Vec<u32> = want.into_iter().map(|(_, row)| row).collect();
            assert_eq!(sort_indices(&batch, &[SortKey { col: 0, desc }]), want);
        }
    }

    #[test]
    fn a_missing_key_column_reads_as_null() {
        let b = Batch::from_rows(&[vec![Value::Int(1)]]).unwrap();
        assert_eq!(
            hash_keys(&b, &[0, 5])[0],
            hash_key(&[Value::Int(1)], &[0, 5])
        );
        assert!(has_null_key(&b, &[5], 0));
        assert!(b.col(5).is_err());
        assert_eq!(Batch::default().col(5).unwrap().len(), 0);
    }

    #[test]
    fn hash_key_is_type_canonical() {
        let a = hash_key(&[Value::Int(42)], &[0]);
        let b = hash_key(&[Value::Float(42.0)], &[0]);
        assert_eq!(a, b);
        let c = hash_key(&[Value::Float(42.5)], &[0]);
        assert_ne!(a, c);
        let d = hash_key(&[Value::Str("42".into())], &[0]);
        assert_ne!(a, d);
    }

    #[test]
    fn hash_key_spreads() {
        // Not a collision test — just that different keys do not all land
        // in one bucket mod small n.
        let buckets: std::collections::HashSet<u64> = (0..100)
            .map(|i| hash_key(&[Value::Int(i)], &[0]) % 8)
            .collect();
        assert!(buckets.len() >= 4, "poor spread: {buckets:?}");
    }

    #[test]
    fn gather_pads_and_concat_mixes() {
        let ints = Batch::from_rows(&[vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        let padded = ints.gather(&[1, NONE, 0]);
        assert_eq!(
            padded.clone().into_rows(),
            vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(1)]]
        );
        let floats = Batch::from_rows(&[vec![Value::Float(2.0)]]).unwrap();
        let both = Batch::concat(vec![padded, Batch::default(), floats]).unwrap();
        assert_eq!(both.len(), 4);
        assert_eq!(both.value(0, 3), ValueRef::Float(2.0));
        assert_eq!(both.value(0, 0), ValueRef::Int(2));
        let wide = Batch::from_rows(&[vec![Value::Int(1), Value::Int(2)]]).unwrap();
        assert!(Batch::concat(vec![ints, wide]).is_err());
        assert!(Batch::from_rows(&[vec![Value::Int(1)], vec![]]).is_err());
    }
}
