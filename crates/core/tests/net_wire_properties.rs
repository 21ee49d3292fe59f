//! Round-trip property tests for the textual wire protocol (§3.1).
//!
//! The server's data plane (receptor ingest, emitter delivery) rides on
//! `net::format_row` / `net::parse_row`; these properties pin down
//! `parse ∘ format = identity` over randomized schemas and rows —
//! including the separator/newline/backslash escapes, NULL fields, and
//! the empty-string-vs-NULL distinction.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use datacell::net::{format_row, parse_row, write_batch, Rejects, TextBatcher};
use monet::prelude::*;
use proptest::prelude::*;

/// Every row of text wire bytes, decoded the way a receptor reads them:
/// through a `TextBatcher` on a loopback socket. No line may be
/// rejected.
fn read_text(wire: &[u8], schema: &Schema) -> Relation {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let wire = wire.to_vec();
    let writer = std::thread::spawn(move || peer.write_all(&wire));
    let mut batcher = TextBatcher::new(listener.accept().unwrap().0, schema.clone());
    let rejected = Rejects::default();
    let mut rows = Relation::new(schema);
    while let Some(batch) = batcher.next_batch(&rejected, || false) {
        rows.append_relation(&batch.rows).unwrap();
    }
    writer.join().unwrap().unwrap();
    assert_eq!(rejected.total(), 0);
    rows
}

/// Characters deliberately biased toward the protocol's escape set.
const PALETTE: &[char] = &[
    '|', '\n', '\r', '\\', 'p', 'n', 'r', 'e', 'a', 'B', '0', ' ', 'é', '☂', '\t',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_type() -> impl Strategy<Value = ValueType> {
    (0u8..5).prop_map(|k| match k {
        0 => ValueType::Int,
        1 => ValueType::Ts,
        2 => ValueType::Double,
        3 => ValueType::Bool,
        _ => ValueType::Str,
    })
}

/// A value of the given type, NULL with probability ~1/5.
fn value_for(t: ValueType, null_pick: bool, i: i64, s: String, b: bool) -> Value {
    if null_pick {
        return Value::Null;
    }
    match t {
        ValueType::Int => Value::Int(i),
        ValueType::Ts => Value::Ts(i.abs()),
        // f64 from a ratio of ints: representable values that exercise
        // both integral ("3") and fractional display forms
        ValueType::Double => Value::Double(i as f64 / 4.0),
        ValueType::Bool => Value::Bool(b),
        ValueType::Str => Value::Str(s),
    }
}

fn schema_of(types: &[ValueType]) -> Schema {
    Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, t)| Field::new(format!("c{i}"), *t))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse(format(row)) == row for any typed row.
    #[test]
    fn format_parse_roundtrip(
        types in prop::collection::vec(arb_type(), 1..8),
        nulls in prop::collection::vec(any::<bool>(), 8),
        ints in prop::collection::vec(-1_000_000i64..1_000_000, 8),
        strs in prop::collection::vec(arb_string(), 8),
        bools in prop::collection::vec(any::<bool>(), 8),
        null_bias in prop::collection::vec(0u8..5, 8),
    ) {
        let row: Vec<Value> = types
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let null_pick = nulls[i] && null_bias[i] == 0;
                value_for(*t, null_pick, ints[i], strs[i].clone(), bools[i])
            })
            .collect();
        let schema = schema_of(&types);
        let line = format_row(&row);
        prop_assert!(
            !line.contains('\n') && !line.contains('\r'),
            "framing must survive: {line:?}"
        );
        let back = parse_row(&line, &schema).unwrap();
        prop_assert_eq!(back, row);
    }

    /// Strings round-trip exactly — every palette combination of `|`,
    /// `\n`, `\\`, escape letters and unicode.
    #[test]
    fn string_escapes_roundtrip(s in arb_string()) {
        let schema = Schema::from_pairs(&[("s", ValueType::Str)]);
        let row = vec![Value::Str(s)];
        let line = format_row(&row);
        prop_assert!(!line.contains('\n') && !line.contains('\r'));
        prop_assert_eq!(parse_row(&line, &schema).unwrap(), row);
    }

    /// NULL and the empty string stay distinguishable in every column mix.
    #[test]
    fn null_vs_empty_string(width in 1usize..6, empty_at in 0usize..6) {
        let types = vec![ValueType::Str; width];
        let schema = schema_of(&types);
        let row: Vec<Value> = (0..width)
            .map(|i| {
                if i == empty_at % width {
                    Value::Str(String::new())
                } else {
                    Value::Null
                }
            })
            .collect();
        let line = format_row(&row);
        let back = parse_row(&line, &schema).unwrap();
        prop_assert_eq!(back, row);
    }

    /// Batch write/read round-trips row-for-row through a socket.
    #[test]
    fn batch_roundtrip(
        ids in prop::collection::vec(-500i64..500, 1..40),
        strs in prop::collection::vec(arb_string(), 1..40),
    ) {
        let n = ids.len().min(strs.len());
        let rel = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(ids[..n].to_vec())),
            (
                "s".into(),
                Column::from_strs(strs[..n].to_vec()),
            ),
        ])
        .unwrap();
        let mut buf = Vec::new();
        write_batch(&mut buf, &rel).unwrap();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("s", ValueType::Str)]);
        let rows = read_text(&buf, &schema);
        prop_assert_eq!(rows.len(), n);
        for (i, row) in rows.iter_rows().enumerate() {
            prop_assert_eq!(&row[0], &Value::Int(ids[i]));
            prop_assert_eq!(&row[1], &Value::Str(strs[i].clone()));
        }
    }
}
