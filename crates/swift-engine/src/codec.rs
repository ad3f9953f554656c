//! Columnar codec for shuffle payloads.
//!
//! Shuffle transports move [`Bytes`]; one payload is one batch, written
//! column by column, little-endian:
//!
//! ```text
//! batch  := rows:u32 width:u32 column{width}
//! column := type:u8 nulls:u8 valid:u8{rows if nulls = 1} values
//! values := INT   i64{rows} | FLOAT f64{rows} | BOOL u8{rows}
//!         | STR   end:u32{rows} text          (row i is text[end[i-1]..end[i]])
//!         | MIXED (tag:u8 payload){rows}      (one tagged value per row)
//! ```
//!
//! A NULL slot of a typed column holds a placeholder (0, 0.0, false, "").
//! Spilled payloads come back from disk, so [`decode`] checks every count,
//! length, offset, tag and string against the bytes it has before use.

use crate::batch::{Batch, Column, Data};
use crate::error::{EngineError, Result};
use crate::value::{Row, Value, ValueRef};
use swift_shuffle::bytes::{Bytes, BytesMut};

const COL_INT: u8 = 1;
const COL_FLOAT: u8 = 2;
const COL_STR: u8 = 3;
const COL_BOOL: u8 = 4;
const COL_MIXED: u8 = 5;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Encodes a batch of rows.
///
/// # Panics
///
/// If the rows differ in width: a batch has one width.
pub fn encode_rows(rows: &[Row]) -> Bytes {
    let batch = Batch::from_rows(rows).expect("encode_rows takes rows of one width");
    encode(&batch, 0..batch.len())
}

/// Decodes a batch of rows previously produced by [`encode_rows`].
pub fn decode_rows(data: Bytes) -> Result<Vec<Row>> {
    Ok(decode(&data)?.into_rows())
}

/// Encodes the rows of `batch` that `rows` yields, in that order, into one
/// exactly sized buffer.
pub(crate) fn encode(batch: &Batch, rows: impl ExactSizeIterator<Item = usize> + Clone) -> Bytes {
    let n = rows.len();
    let len = 8 + batch
        .columns()
        .iter()
        .map(|c| encoded_len(c, rows.clone()))
        .sum::<usize>();
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u32_le(count(n));
    buf.put_u32_le(count(batch.width()));
    for col in batch.columns() {
        let kind = match col.data() {
            Data::Int(_) => COL_INT,
            Data::Float(_) => COL_FLOAT,
            Data::Str { .. } => COL_STR,
            Data::Bool(_) => COL_BOOL,
            Data::Mixed(_) => COL_MIXED,
        };
        buf.put_u8(kind);
        match col.valid() {
            Some(valid) => {
                buf.put_u8(1);
                for i in rows.clone() {
                    buf.put_u8(u8::from(valid[i]));
                }
            }
            None => buf.put_u8(0),
        }
        match col.data() {
            Data::Int(v) => rows.clone().for_each(|i| buf.put_i64_le(v[i])),
            Data::Float(v) => rows.clone().for_each(|i| buf.put_f64_le(v[i])),
            Data::Bool(v) => rows.clone().for_each(|i| buf.put_u8(u8::from(v[i]))),
            Data::Str { offsets, text } => {
                let mut end = 0;
                for i in rows.clone() {
                    end += offsets[i + 1] - offsets[i];
                    buf.put_u32_le(end);
                }
                for i in rows.clone() {
                    buf.put_slice(&text.as_bytes()[offsets[i] as usize..offsets[i + 1] as usize]);
                }
            }
            Data::Mixed(v) => rows.clone().for_each(|i| put_value(&mut buf, v[i].view())),
        }
    }
    debug_assert_eq!(buf.len(), len);
    buf.freeze()
}

/// A count as the format's `u32`.
fn count(n: usize) -> u32 {
    u32::try_from(n).expect("a shuffle payload holds fewer than 2^32 rows and columns")
}

fn encoded_len(col: &Column, rows: impl ExactSizeIterator<Item = usize> + Clone) -> usize {
    let n = rows.len();
    let valid = if col.valid().is_some() { n } else { 0 };
    2 + valid
        + match col.data() {
            Data::Int(_) | Data::Float(_) => 8 * n,
            Data::Bool(_) => n,
            Data::Str { offsets, .. } => {
                4 * n
                    + rows
                        .map(|i| (offsets[i + 1] - offsets[i]) as usize)
                        .sum::<usize>()
            }
            Data::Mixed(v) => rows
                .map(|i| match &v[i] {
                    Value::Int(_) | Value::Float(_) => 9,
                    Value::Str(s) => 5 + s.len(),
                    Value::Null | Value::Bool(_) => 1,
                })
                .sum(),
        }
}

fn put_value(buf: &mut BytesMut, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => buf.put_u8(TAG_NULL),
        ValueRef::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(i);
        }
        ValueRef::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(f);
        }
        ValueRef::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(count(s.len()));
            buf.put_slice(s.as_bytes());
        }
        ValueRef::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        ValueRef::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
    }
}

fn corrupt<T>(what: impl std::fmt::Display) -> Result<T> {
    Err(EngineError::Type(format!(
        "corrupt shuffle payload: {what}"
    )))
}

/// A cursor over untrusted bytes: every read checks its length first.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return corrupt(format!("wanted {n} more bytes, have {}", self.buf.len()));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// `n` items of `size` bytes each, checked against what is left
    /// before anything is allocated for them.
    fn items(&mut self, n: usize, size: usize) -> Result<&'a [u8]> {
        match n.checked_mul(size) {
            Some(len) => self.take(len),
            None => corrupt(format!("{n} items of {size} bytes")),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<usize> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn word(&mut self) -> Result<[u8; 8]> {
        let b = self.take(8)?;
        Ok(std::array::from_fn(|i| b[i]))
    }
}

fn words(bytes: &[u8]) -> impl Iterator<Item = [u8; 8]> + '_ {
    bytes.chunks_exact(8).map(|c| std::array::from_fn(|i| c[i]))
}

fn flags(bytes: &[u8], what: &str) -> Result<Vec<bool>> {
    bytes
        .iter()
        .map(|&b| match b {
            0 => Ok(false),
            1 => Ok(true),
            b => corrupt(format!("{what} byte {b}")),
        })
        .collect()
}

/// Decodes one payload written by [`encode`].
pub(crate) fn decode(data: &Bytes) -> Result<Batch> {
    let mut r = Reader { buf: data };
    let rows = r.u32()?;
    let width = r.u32()?;
    // Every column takes at least its two header bytes.
    if width > r.buf.len() / 2 {
        return corrupt(format!("{width} columns in {} bytes", r.buf.len()));
    }
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        let kind = r.u8()?;
        let valid = match r.u8()? {
            0 => None,
            1 => Some(flags(r.items(rows, 1)?, "validity")?),
            b => return corrupt(format!("null flag {b}")),
        };
        let data = match kind {
            COL_INT => Data::Int(words(r.items(rows, 8)?).map(i64::from_le_bytes).collect()),
            COL_FLOAT => Data::Float(words(r.items(rows, 8)?).map(f64::from_le_bytes).collect()),
            COL_BOOL => Data::Bool(flags(r.items(rows, 1)?, "bool")?),
            COL_STR => {
                let ends = r.items(rows, 4)?;
                let mut offsets = Vec::with_capacity(rows + 1);
                offsets.push(0);
                offsets.extend(
                    ends.chunks_exact(4)
                        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                );
                let text = r.take(offsets[rows] as usize)?;
                let Ok(text) = std::str::from_utf8(text) else {
                    return corrupt("string column is not UTF-8");
                };
                Data::Str {
                    offsets,
                    text: text.to_owned(),
                }
            }
            COL_MIXED => {
                // Every value takes at least its tag byte.
                if rows > r.buf.len() {
                    return corrupt(format!("{rows} values in {} bytes", r.buf.len()));
                }
                let mut values = Vec::with_capacity(rows);
                for _ in 0..rows {
                    values.push(read_value(&mut r)?);
                }
                Data::Mixed(values)
            }
            k => return corrupt(format!("column type {k}")),
        };
        columns.push(Column::new(data, valid).or_else(corrupt)?);
    }
    if !r.buf.is_empty() {
        return corrupt(format!("{} trailing bytes", r.buf.len()));
    }
    Ok(Batch::new(columns, rows))
}

fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(i64::from_le_bytes(r.word()?)),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(r.word()?)),
        TAG_STR => {
            let len = r.u32()?;
            match std::str::from_utf8(r.take(len)?) {
                Ok(s) => Value::Str(s.to_owned()),
                Err(e) => return corrupt(format!("bad utf8: {e}")),
            }
        }
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        t => return corrupt(format!("tag {t}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        // One column per type, one of mixed types, NULLs in every column.
        let s = |x: &str| Value::Str(x.into());
        let rows = vec![
            vec![
                Value::Int(-42),
                Value::Float(1.25),
                s("héllo"),
                Value::Bool(true),
                Value::Null,
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null, s("x")],
            vec![
                Value::Int(i64::MAX),
                Value::Float(-0.0),
                s(""),
                Value::Bool(false),
                Value::Int(i64::MIN),
            ],
            vec![
                Value::Int(i64::MIN),
                Value::Float(f64::INFINITY),
                s("ünïcode ✓"),
                Value::Null,
                Value::Bool(true),
            ],
        ];
        let enc = encode_rows(&rows);
        let dec = decode_rows(enc).unwrap();
        assert_eq!(rows, dec);
        // The typed columns stayed typed; the last one fell back.
        let batch = decode(&encode_rows(&rows)).unwrap();
        let kinds: Vec<_> = batch
            .columns()
            .iter()
            .map(|c| std::mem::discriminant(c.data()))
            .collect();
        assert_eq!(kinds[0], std::mem::discriminant(&Data::Int(vec![])));
        assert_eq!(kinds[4], std::mem::discriminant(&Data::Mixed(vec![])));
    }

    #[test]
    fn empty_batch() {
        let dec = decode_rows(encode_rows(&[])).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn zero_width_rows_keep_their_count() {
        let rows = vec![vec![]; 3];
        assert_eq!(decode_rows(encode_rows(&rows)).unwrap(), rows);
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = encode_rows(&[vec![Value::Str("long string value".into())]]);
        let cut = enc.slice(0..enc.len() - 3);
        assert!(decode_rows(cut).is_err());
    }

    /// A mixed-type, NULL-bearing payload cut short at every byte offset
    /// never decodes and never panics.
    #[test]
    fn every_truncation_errors() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("ab".into()), Value::Null],
            vec![Value::Null, Value::Str("ü".into()), Value::Float(0.5)],
            vec![Value::Int(3), Value::Null, Value::Str("z".into())],
        ];
        let enc = encode_rows(&rows);
        for cut in 0..enc.len() {
            assert!(decode_rows(enc.slice(0..cut)).is_err(), "cut at {cut}");
        }
        assert_eq!(decode_rows(enc).unwrap(), rows);
    }

    #[test]
    fn corrupt_string_offsets_error() {
        let rows = vec![
            vec![Value::Str("ab".into())],
            vec![Value::Str("ü".into())],
            vec![Value::Str("c".into())],
        ];
        let enc = encode_rows(&rows).to_vec();
        // Header (8 bytes), type and null flag (2), then the end offsets
        // 2, 4, 5.
        let end = |k: usize| 10 + 4 * k;
        for (k, bad) in [(0, 3u32), (1, 1), (1, 3), (2, 9)] {
            let mut b = enc.clone();
            b[end(k)..end(k) + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                decode_rows(Bytes::from(b)).is_err(),
                "end offset {k} set to {bad}"
            );
        }
    }

    #[test]
    fn garbage_tag_errors() {
        // One row, one column of unknown type.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_u32_le(1);
        b.put_u8(99);
        b.put_u8(0);
        assert!(decode_rows(b.freeze()).is_err());
        // A mixed column holding an unknown value tag.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_u32_le(1);
        b.put_u8(COL_MIXED);
        b.put_u8(0);
        b.put_u8(99);
        assert!(decode_rows(b.freeze()).is_err());
    }

    #[test]
    fn float_roundtrip_is_exact() {
        let rows = vec![vec![
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        ]];
        let dec = decode_rows(encode_rows(&rows)).unwrap();
        match (&dec[0][0], &dec[0][1], &dec[0][2]) {
            (Value::Float(a), Value::Float(z), Value::Float(n)) => {
                assert_eq!(*a, f64::MIN_POSITIVE);
                assert!(z.is_sign_negative());
                assert!(n.is_nan());
            }
            _ => panic!("wrong types"),
        }
    }
}
