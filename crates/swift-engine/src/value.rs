//! Dynamically typed values, rows, schemas and tables.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A single scalar value.
///
/// The engine is dynamically typed (like the row format of most shuffle
/// systems): operators check types at runtime and surface
/// [`crate::EngineError::Type`] on mismatch.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns the value as `f64` for arithmetic, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the value as `i64`, if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as `bool`, if boolean. SQL three-valued logic:
    /// `Null` is not `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Whether this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used by sorts and merge joins: NULLs first, then
    /// booleans, then numerics (Int and Float compare numerically), then
    /// strings. Cross-type comparisons order by type rank, so sorting is
    /// always well-defined.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.view().total_cmp(other.view())
    }

    /// The value as a borrowed view.
    pub(crate) fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }

    /// Equality for join keys and group keys: `Int` and `Float` holding the
    /// same numeric value are equal; NULL never equals anything (SQL
    /// semantics), including NULL.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.view(), f)
    }
}

/// One value borrowed from wherever it is stored — a [`Value`], or a slot
/// of a column — so reading it allocates nothing. Its semantics are
/// [`Value`]'s: [`Value::total_cmp`] is [`ValueRef::total_cmp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
}

impl ValueRef<'_> {
    /// An owned copy.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }

    pub(crate) fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// SQL three-valued truth: only `true` is true.
    pub(crate) fn is_true(self) -> bool {
        matches!(self, ValueRef::Bool(true))
    }

    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// See [`Value::total_cmp`].
    pub(crate) fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => f.write_str("NULL"),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => write!(f, "{x}"),
            ValueRef::Str(s) => f.write_str(s),
            ValueRef::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One row: a vector of values positionally matching a [`Schema`].
pub type Row = Vec<Value>;

/// Column names of a row stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<String>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from field names. Duplicate names keep the first
    /// index (later fields are only addressable positionally).
    pub fn new<S: Into<String>>(fields: Vec<S>) -> Arc<Self> {
        let fields: Vec<String> = fields.into_iter().map(Into::into).collect();
        let mut index = HashMap::new();
        for (i, f) in fields.iter().enumerate() {
            index.entry(f.clone()).or_insert(i);
        }
        Arc::new(Schema { fields, index })
    }

    /// Field names in order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of `name`, if present.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// An in-memory base table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table name (catalog key).
    pub name: String,
    /// Column names.
    pub schema: Arc<Schema>,
    /// Row data.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates a table, checking row widths in debug builds.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        let name = name.into();
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row width mismatch in table {name}"
        );
        Table { name, schema, rows }
    }
}

/// A named collection of tables the engine can scan.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), Arc::new(table));
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vals = vec![
            Value::Str("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
            Value::Int(1),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(1),
                Value::Float(1.5),
                Value::Int(2),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn sql_eq_nulls_never_match() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).sql_eq(&Value::Float(2.5)));
        assert!(Value::Str("x".into()).sql_eq(&Value::Str("x".into())));
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec!["a", "b", "c"]);
        assert_eq!(s.col("b"), Some(1));
        assert_eq!(s.col("z"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        c.register(Table::new("t1", Schema::new(vec!["a"]), vec![]));
        c.register(Table::new("t2", Schema::new(vec!["a"]), vec![]));
        assert_eq!(c.table_names(), vec!["t1", "t2"]);
        assert!(c.get("t1").is_some());
        assert!(c.get("nope").is_none());
    }
}
