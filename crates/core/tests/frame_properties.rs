//! Round-trip property tests for the binary columnar frame codec.
//!
//! Mirrors `net_wire_properties.rs` for the batch-first data plane:
//! `decode ∘ encode = identity` over randomized schemas and relations —
//! including NULLs, empty strings, empty batches, max-width schemas, and
//! the incremental (partial-buffer) decode path the server's receptor
//! loop relies on.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use datacell::frame::{decode_frame, encode_frame, read_frame, write_frame, WireFormat};
use datacell::net::{Rejects, TextBatcher};
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

/// Characters biased toward framing hazards: separators, newlines,
/// escapes, NULs, multibyte UTF-8.
const PALETTE: &[char] = &[
    '|', '\n', '\r', '\\', '\0', 'e', 'a', 'B', '0', ' ', 'é', '☂', '\t',
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

fn value_for(t: ValueType, null_pick: bool, i: i64, s: String, b: bool) -> Value {
    if null_pick {
        return Value::Null;
    }
    match t {
        ValueType::Int => Value::Int(i),
        ValueType::Ts => Value::Ts(i.abs()),
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

/// Build a relation of `rows` rows over `types`, deterministically from
/// the provided entropy vectors.
fn build_rel(
    types: &[ValueType],
    rows: usize,
    ints: &[i64],
    strs: &[String],
    bools: &[bool],
    null_bias: &[u8],
) -> Relation {
    let schema = schema_of(types);
    let mut rel = Relation::new(&schema);
    for r in 0..rows {
        let row: Vec<Value> = types
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let k = (r * types.len() + c) % ints.len();
                value_for(
                    *t,
                    null_bias[k] == 0,
                    ints[k],
                    strs[k].clone(),
                    bools[k],
                )
            })
            .collect();
        rel.append_row(&row).unwrap();
    }
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// decode(encode(rel)) == rel for arbitrary typed relations,
    /// including NULLs in every column and rows == 0.
    #[test]
    fn binary_frame_roundtrip(
        types in prop::collection::vec(arb_type(), 1..8),
        rows in 0usize..33,
        ints in prop::collection::vec(-1_000_000i64..1_000_000, 64),
        strs in prop::collection::vec(arb_string(), 64),
        bools in prop::collection::vec(any::<bool>(), 64),
        null_bias in prop::collection::vec(0u8..5, 64),
    ) {
        let rel = build_rel(&types, rows, &ints, &strs, &bools, &null_bias);
        let schema = rel.schema();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let (back, used) = decode_frame(&buf, &schema).unwrap().unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, rel);
    }

    /// Every strict prefix of a frame reports "incomplete", never a
    /// wrong decode and never an error — the receptor loop's contract.
    #[test]
    fn truncated_frames_are_incomplete(
        types in prop::collection::vec(arb_type(), 1..5),
        rows in 0usize..9,
        ints in prop::collection::vec(-1000i64..1000, 64),
        strs in prop::collection::vec(arb_string(), 64),
        bools in prop::collection::vec(any::<bool>(), 64),
        null_bias in prop::collection::vec(0u8..5, 64),
    ) {
        let rel = build_rel(&types, rows, &ints, &strs, &bools, &null_bias);
        let schema = rel.schema();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        for cut in 0..buf.len() {
            prop_assert!(decode_frame(&buf[..cut], &schema).unwrap().is_none());
        }
    }

    /// A stream of several frames decodes back frame-for-frame through
    /// the blocking reader, and incrementally from a byte buffer.
    #[test]
    fn frame_streams_roundtrip(
        types in prop::collection::vec(arb_type(), 1..5),
        sizes in prop::collection::vec(0usize..9, 1..5),
        ints in prop::collection::vec(-1000i64..1000, 64),
        strs in prop::collection::vec(arb_string(), 64),
        bools in prop::collection::vec(any::<bool>(), 64),
        null_bias in prop::collection::vec(0u8..5, 64),
    ) {
        let schema = schema_of(&types);
        let rels: Vec<Relation> = sizes
            .iter()
            .map(|&rows| build_rel(&types, rows, &ints, &strs, &bools, &null_bias))
            .collect();
        let mut wire = Vec::new();
        for rel in &rels {
            write_frame(&mut wire, rel).unwrap();
        }
        // blocking reader path
        let mut r = std::io::BufReader::new(&wire[..]);
        for rel in &rels {
            let got = read_frame(&mut r, &schema).unwrap().unwrap();
            prop_assert_eq!(&got, rel);
        }
        prop_assert!(read_frame(&mut r, &schema).unwrap().is_none());
        // incremental buffer path
        let mut at = 0usize;
        for rel in &rels {
            let (got, used) = decode_frame(&wire[at..], &schema).unwrap().unwrap();
            prop_assert_eq!(&got, rel);
            at += used;
        }
        prop_assert_eq!(at, wire.len());
    }

    /// Empty strings, NULL strings and NUL bytes stay distinguishable.
    #[test]
    fn empty_vs_null_strings(width in 1usize..6, empty_at in 0usize..6) {
        let types = vec![ValueType::Str; width];
        let schema = schema_of(&types);
        let mut rel = Relation::new(&schema);
        let row: Vec<Value> = (0..width)
            .map(|i| {
                if i == empty_at % width {
                    Value::Str(String::new())
                } else {
                    Value::Null
                }
            })
            .collect();
        rel.append_row(&row).unwrap();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let (back, _) = decode_frame(&buf, &schema).unwrap().unwrap();
        prop_assert_eq!(back, rel);
    }

    /// Wide schemas (up to 64 columns) survive a round-trip through both
    /// codecs with identical results.
    #[test]
    fn max_width_schema_roundtrip_both_codecs(
        width in 1usize..65,
        rows in 0usize..5,
        ints in prop::collection::vec(-1000i64..1000, 512),
        null_bias in prop::collection::vec(0u8..5, 512),
    ) {
        let types = vec![ValueType::Int; width];
        let schema = schema_of(&types);
        let mut rel = Relation::new(&schema);
        for r in 0..rows {
            let row: Vec<Value> = (0..width)
                .map(|c| {
                    let k = (r * width + c) % ints.len();
                    // column 0 stays non-NULL: a fully-NULL row in a
                    // width-1 schema is a blank text line, which the
                    // line-oriented reader cannot represent (the binary
                    // format has no such blind spot)
                    if c > 0 && null_bias[k] == 0 {
                        Value::Null
                    } else {
                        Value::Int(ints[k])
                    }
                })
                .collect();
            rel.append_row(&row).unwrap();
        }
        for format in [WireFormat::Text, WireFormat::Binary] {
            let mut codec = format.new_codec();
            let mut wire = Vec::new();
            codec.encode(&rel, &mut wire).unwrap();
            match format {
                // text has no frame for "zero rows": nothing comes back
                WireFormat::Text => prop_assert_eq!(read_text(&wire, &schema), rel.clone()),
                // binary preserves an empty batch as one frame
                WireFormat::Binary => {
                    let mut r = std::io::BufReader::new(&wire[..]);
                    prop_assert_eq!(read_frame(&mut r, &schema).unwrap().unwrap(), rel.clone());
                    prop_assert!(read_frame(&mut r, &schema).unwrap().is_none());
                }
            }
        }
    }
}
