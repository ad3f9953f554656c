//! Binary row codec for shuffle payloads.
//!
//! Shuffle transports move [`bytes::Bytes`]; this codec turns row batches
//! into a compact length-prefixed binary format and back. The format is
//! self-describing per value (1-byte tag), little-endian, with u32 counts —
//! simple, fast, and good enough for intra-process "network" transfer.

use crate::error::{EngineError, Result};
use crate::value::{Row, Value};
use swift_shuffle::bytes::{Bytes, BytesMut};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;

/// Encodes a batch of rows.
pub fn encode_rows(rows: &[Row]) -> Bytes {
    encode(rows.iter())
}

/// Encodes the rows `rows` yields into one exactly sized buffer.
pub(crate) fn encode<'a>(rows: impl Iterator<Item = &'a Row> + Clone) -> Bytes {
    let (count, len) = rows.clone().fold((0usize, 4usize), |(n, len), row| {
        (n + 1, len + 4 + row.iter().map(encoded_len).sum::<usize>())
    });
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u32_le(count as u32);
    for row in rows {
        buf.put_u32_le(row.len() as u32);
        for v in row {
            match v {
                Value::Null => buf.put_u8(TAG_NULL),
                Value::Int(i) => {
                    buf.put_u8(TAG_INT);
                    buf.put_i64_le(*i);
                }
                Value::Float(f) => {
                    buf.put_u8(TAG_FLOAT);
                    buf.put_f64_le(*f);
                }
                Value::Str(s) => {
                    buf.put_u8(TAG_STR);
                    buf.put_u32_le(s.len() as u32);
                    buf.put_slice(s.as_bytes());
                }
                Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
                Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
            }
        }
    }
    buf.freeze()
}

fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Null | Value::Bool(_) => 1,
    }
}

/// Decodes a batch of rows previously produced by [`encode_rows`].
pub fn decode_rows(mut data: Bytes) -> Result<Vec<Row>> {
    fn need(data: &Bytes, n: usize) -> Result<()> {
        if data.remaining() < n {
            Err(EngineError::Type(format!(
                "corrupt shuffle payload: wanted {n} more bytes, have {}",
                data.remaining()
            )))
        } else {
            Ok(())
        }
    }
    need(&data, 4)?;
    let n = data.get_u32_le() as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        need(&data, 4)?;
        let w = data.get_u32_le() as usize;
        let mut row = Vec::with_capacity(w);
        for _ in 0..w {
            need(&data, 1)?;
            let tag = data.get_u8();
            row.push(match tag {
                TAG_NULL => Value::Null,
                TAG_INT => {
                    need(&data, 8)?;
                    Value::Int(data.get_i64_le())
                }
                TAG_FLOAT => {
                    need(&data, 8)?;
                    Value::Float(data.get_f64_le())
                }
                TAG_STR => {
                    need(&data, 4)?;
                    let len = data.get_u32_le() as usize;
                    need(&data, len)?;
                    let bytes = data.copy_to_bytes(len);
                    let s = std::str::from_utf8(&bytes).map_err(|e| {
                        EngineError::Type(format!("corrupt shuffle payload: bad utf8: {e}"))
                    })?;
                    Value::Str(s.to_owned())
                }
                TAG_BOOL_FALSE => Value::Bool(false),
                TAG_BOOL_TRUE => Value::Bool(true),
                t => {
                    return Err(EngineError::Type(format!(
                        "corrupt shuffle payload: tag {t}"
                    )))
                }
            });
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let rows = vec![
            vec![
                Value::Null,
                Value::Int(-42),
                Value::Float(1.25),
                Value::Str("héllo".into()),
                Value::Bool(true),
                Value::Bool(false),
            ],
            vec![],
            vec![Value::Int(i64::MAX), Value::Int(i64::MIN)],
        ];
        let enc = encode_rows(&rows);
        let dec = decode_rows(enc).unwrap();
        assert_eq!(rows, dec);
    }

    #[test]
    fn empty_batch() {
        let dec = decode_rows(encode_rows(&[])).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = encode_rows(&[vec![Value::Str("long string value".into())]]);
        let cut = enc.slice(0..enc.len() - 3);
        assert!(decode_rows(cut).is_err());
    }

    #[test]
    fn garbage_tag_errors() {
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_u32_le(1);
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
        match (&dec[0][0], &dec[0][2]) {
            (Value::Float(a), Value::Float(n)) => {
                assert_eq!(*a, f64::MIN_POSITIVE);
                assert!(n.is_nan());
            }
            _ => panic!("wrong types"),
        }
    }
}
