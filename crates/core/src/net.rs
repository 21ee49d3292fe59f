//! Text wire protocol for receptors/emitters.
//!
//! "The interchange format between the various components is purposely
//! kept simple using a textual interface for exchanging flat relational
//! tuples" (§3.1). Tuples travel as `|`-separated lines; NULL is the empty
//! field.

use std::io::{BufRead, Write};

use monet::prelude::*;

use crate::error::{EngineError, Result};

/// Escape one string field onto a wire buffer.
fn escape_str_into(out: &mut String, s: &str) {
    if s.is_empty() {
        // an empty field means NULL on the wire, so the empty string
        // needs an explicit escape to stay distinguishable
        out.push_str("\\e");
        return;
    }
    // escape the separator and newlines
    for c in s.chars() {
        match c {
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
}

/// Render one tuple onto an existing buffer (no trailing newline).
pub fn format_row_into(out: &mut String, row: &[Value]) {
    use std::fmt::Write as _;
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        match v {
            Value::Null => {}
            Value::Str(s) => escape_str_into(out, s),
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

/// Render one tuple as a wire line (no trailing newline).
pub fn format_row(row: &[Value]) -> String {
    let mut out = String::new();
    format_row_into(&mut out, row);
    out
}

/// Render a whole batch into `out`, one line per tuple, reading the
/// columns directly — no per-row `Vec<Value>` materialization and no
/// per-row `String`. This is the hot path of every text emitter.
pub fn encode_batch_text(out: &mut String, rel: &Relation) {
    use std::fmt::Write as _;
    for i in 0..rel.len() {
        for c in 0..rel.width() {
            if c > 0 {
                out.push('|');
            }
            let col = rel.col_at(c);
            if !col.is_valid(i) {
                continue; // NULL is the empty field
            }
            match col.data() {
                ColumnData::Bool(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Int(v) | ColumnData::Ts(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Double(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Str(v) => escape_str_into(out, &v[i]),
            }
        }
        out.push('\n');
    }
}

/// Decode one wire line read as raw bytes up to and including its `\n`.
/// UTF-8 is checked only here, on a complete line, so a multi-byte
/// character split across two socket reads is never seen in halves.
/// `None` means the line is not valid UTF-8.
pub fn decode_line(line: &[u8]) -> Option<&str> {
    std::str::from_utf8(line)
        .ok()
        .map(|s| s.trim_end_matches(['\n', '\r']))
}

/// Parse one wire line against a schema (user columns only).
pub fn parse_row(line: &str, schema: &Schema) -> Result<Vec<Value>> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != schema.width() {
        return Err(EngineError::Io(format!(
            "wire row has {} fields, schema expects {}",
            fields.len(),
            schema.width()
        )));
    }
    let mut row = Vec::with_capacity(fields.len());
    for (raw, field) in fields.iter().zip(schema.fields()) {
        if raw.is_empty() {
            row.push(Value::Null);
            continue;
        }
        let v = match field.vtype {
            ValueType::Int => Value::Int(raw.parse().map_err(|_| bad(raw, "int"))?),
            ValueType::Ts => Value::Ts(raw.parse().map_err(|_| bad(raw, "timestamp"))?),
            ValueType::Double => Value::Double(raw.parse().map_err(|_| bad(raw, "double"))?),
            ValueType::Bool => Value::Bool(raw.parse().map_err(|_| bad(raw, "bool"))?),
            ValueType::Str => Value::Str(unescape(raw)),
        };
        row.push(v);
    }
    Ok(row)
}

fn bad(raw: &str, ty: &str) -> EngineError {
    EngineError::Io(format!("cannot parse {raw:?} as {ty}"))
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('p') => out.push('|'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('e') => {} // explicit empty string
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Write a batch of rows to a writer, one line per tuple. The whole
/// batch is rendered into a single buffer and written with one call.
pub fn write_batch<W: Write>(w: &mut W, rel: &Relation) -> Result<usize> {
    let mut buf = String::new();
    encode_batch_text(&mut buf, rel);
    w.write_all(buf.as_bytes())?;
    w.flush()?;
    Ok(rel.len())
}

/// Read up to `max` lines into rows (blocking until EOF or `max`).
pub fn read_rows<R: BufRead>(r: &mut R, schema: &Schema, max: usize) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::new();
    let mut line = String::new();
    while rows.len() < max {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        rows.push(parse_row(trimmed, schema)?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("ts", ValueType::Ts),
            ("id", ValueType::Int),
            ("score", ValueType::Double),
            ("name", ValueType::Str),
            ("ok", ValueType::Bool),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let row = vec![
            Value::Ts(123456),
            Value::Int(-9),
            Value::Double(2.5),
            Value::Str("hello world".into()),
            Value::Bool(true),
        ];
        let line = format_row(&row);
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        let line = format_row(&row);
        assert_eq!(line, "|1|||");
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn string_escaping() {
        let row = vec![
            Value::Ts(0),
            Value::Int(0),
            Value::Double(0.0),
            Value::Str("a|b\\c\nd\re".into()),
            Value::Bool(false),
        ];
        let line = format_row(&row);
        assert!(!line.contains('\n') && !line.contains('\r'));
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn empty_string_distinct_from_null() {
        let row = vec![
            Value::Ts(1),
            Value::Int(2),
            Value::Double(3.0),
            Value::Str(String::new()),
            Value::Bool(true),
        ];
        let line = format_row(&row);
        assert_eq!(line, "1|2|3|\\e|true");
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn arity_and_type_errors() {
        assert!(parse_row("1|2", &schema()).is_err());
        assert!(parse_row("x|1|1.0|s|true", &schema()).is_err());
    }

    #[test]
    fn columnar_text_encoding_matches_row_path() {
        let mut rel = Relation::from_columns(vec![
            ("a".into(), Column::from_ints(vec![1, -7])),
            (
                "s".into(),
                Column::from_strs(vec!["a|b\nc".into(), String::new()]),
            ),
            ("d".into(), Column::from_doubles(vec![2.5, -0.75])),
            ("b".into(), Column::from_bools(vec![true, false])),
        ])
        .unwrap();
        rel.append_row(&[Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        let mut columnar = String::new();
        encode_batch_text(&mut columnar, &rel);
        let mut by_rows = String::new();
        for row in rel.iter_rows() {
            by_rows.push_str(&format_row(&row));
            by_rows.push('\n');
        }
        assert_eq!(columnar, by_rows);
    }

    #[test]
    fn batch_io() {
        let rel = Relation::from_columns(vec![
            ("a".into(), Column::from_ints(vec![1, 2])),
            ("b".into(), Column::from_strs(vec!["x".into(), "y".into()])),
        ])
        .unwrap();
        let mut buf = Vec::new();
        write_batch(&mut buf, &rel).unwrap();
        let s = Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Str)]);
        let mut reader = std::io::BufReader::new(&buf[..]);
        let rows = read_rows(&mut reader, &s, 100).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Str("y".into())]);
    }
}
