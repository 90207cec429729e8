//! Trace serialization: a compact binary format and a JSON form.
//!
//! The binary format exists so the tracing-volume experiments (paper
//! Sec. IV-A2: traces "produce much more log data" than profiles) measure
//! a realistic on-disk footprint, not a pretty-printed one.
//!
//! Layout: 8-byte magic/version header, a u64 record count, then one
//! 42-byte (`RECORD_BYTES`) little-endian record per entry.

use pioeval_types::{
    Error, FileId, IoKind, Layer, LayerRecord, MetaOp, Rank, RecordOp, Result, SimTime,
};

const MAGIC: &[u8; 6] = b"PIOTRC";
const VERSION: u16 = 1;
/// Header bytes: magic (6), version (2), record count (8).
const HEADER_BYTES: usize = 16;
/// Bytes per record: layer and op codes (1 + 1), rank and file ids
/// (4 + 4), then offset, length, start and end (4 × 8).
const RECORD_BYTES: usize = 42;

fn layer_code(l: Layer) -> u8 {
    match l {
        Layer::Application => 0,
        Layer::Hdf5 => 1,
        Layer::MpiIo => 2,
        Layer::Posix => 3,
    }
}

fn layer_from(code: u8) -> Result<Layer> {
    Ok(match code {
        0 => Layer::Application,
        1 => Layer::Hdf5,
        2 => Layer::MpiIo,
        3 => Layer::Posix,
        other => return Err(Error::Codec(format!("bad layer code {other}"))),
    })
}

fn op_code(op: RecordOp) -> u8 {
    match op {
        RecordOp::Data(IoKind::Read) => 0,
        RecordOp::Data(IoKind::Write) => 1,
        RecordOp::CollectiveData(IoKind::Read) => 2,
        RecordOp::CollectiveData(IoKind::Write) => 3,
        RecordOp::Barrier => 4,
        RecordOp::Compute => 5,
        RecordOp::Meta(m) => 6 + m.index() as u8,
    }
}

fn op_from(code: u8) -> Result<RecordOp> {
    Ok(match code {
        0 => RecordOp::Data(IoKind::Read),
        1 => RecordOp::Data(IoKind::Write),
        2 => RecordOp::CollectiveData(IoKind::Read),
        3 => RecordOp::CollectiveData(IoKind::Write),
        4 => RecordOp::Barrier,
        5 => RecordOp::Compute,
        c @ 6..=13 => RecordOp::Meta(MetaOp::ALL[(c - 6) as usize]),
        other => return Err(Error::Codec(format!("bad op code {other}"))),
    })
}

/// Encode records into the compact binary trace format.
pub fn encode_records(records: &[LayerRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + records.len() * RECORD_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        buf.push(layer_code(r.layer));
        buf.push(op_code(r.op));
        buf.extend_from_slice(&r.rank.0.to_le_bytes());
        buf.extend_from_slice(&r.file.0.to_le_bytes());
        for v in [r.offset, r.len, r.start.as_nanos(), r.end.as_nanos()] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Decode a binary trace produced by [`encode_records`]. Any malformed
/// input, including a header whose record count the body cannot hold,
/// is an error, never a panic.
pub fn decode_records(data: &[u8]) -> Result<Vec<LayerRecord>> {
    let Some((header, body)) = data.split_first_chunk::<HEADER_BYTES>() else {
        return Err(Error::Codec("truncated header".into()));
    };
    let (magic, rest) = header.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(Error::Codec("bad magic".into()));
    }
    let (version, count) = rest.split_at(2);
    let version = u16::from_le_bytes([version[0], version[1]]);
    if version != VERSION {
        return Err(Error::Codec(format!("unsupported version {version}")));
    }
    let mut count_le = [0u8; 8];
    count_le.copy_from_slice(count);
    let count = u64::from_le_bytes(count_le);
    if count > (body.len() / RECORD_BYTES) as u64 {
        return Err(Error::Codec(format!(
            "truncated body: {} bytes for {count} records",
            body.len()
        )));
    }
    let records = body.chunks_exact(RECORD_BYTES).take(count as usize);
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        let u32_at = |at: usize| {
            let mut le = [0u8; 4];
            le.copy_from_slice(&rec[at..at + 4]);
            u32::from_le_bytes(le)
        };
        let u64_at = |at: usize| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&rec[at..at + 8]);
            u64::from_le_bytes(le)
        };
        out.push(LayerRecord {
            layer: layer_from(rec[0])?,
            op: op_from(rec[1])?,
            rank: Rank::new(u32_at(2)),
            file: FileId::new(u32_at(6)),
            offset: u64_at(10),
            len: u64_at(18),
            start: SimTime::from_nanos(u64_at(26)),
            end: SimTime::from_nanos(u64_at(34)),
        });
    }
    Ok(out)
}

/// Serialize records to JSON (interchange/debugging form).
pub fn records_to_json(records: &[LayerRecord]) -> String {
    serde_json::to_string(records).expect("LayerRecord serialization cannot fail")
}

/// Parse records from JSON.
pub fn records_from_json(json: &str) -> Result<Vec<LayerRecord>> {
    serde_json::from_str(json).map_err(|e| Error::Codec(e.to_string()))
}

/// Serialize a characterization profile to JSON (what a Darshan-style
/// tool writes per job — the "log volume" of profile mode). The map of
/// (rank, file) records is flattened to a list, since JSON object keys
/// must be strings.
pub fn profile_to_json(profile: &crate::profile::JobProfile) -> String {
    #[derive(serde::Serialize)]
    struct ProfileView<'a> {
        records: Vec<&'a crate::profile::FileRecord>,
        barriers: u64,
        compute_time_ns: u64,
    }
    let view = ProfileView {
        records: profile.records.values().collect(),
        barriers: profile.barriers,
        compute_time_ns: profile.compute_time.as_nanos(),
    };
    serde_json::to_string(&view).expect("profile view serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<LayerRecord> {
        let mut out = Vec::new();
        for i in 0..20u64 {
            out.push(LayerRecord {
                layer: Layer::ALL[(i % 4) as usize],
                rank: Rank::new((i % 3) as u32),
                file: FileId::new((i % 5) as u32),
                op: match i % 5 {
                    0 => RecordOp::Data(IoKind::Read),
                    1 => RecordOp::Data(IoKind::Write),
                    2 => RecordOp::Meta(MetaOp::ALL[(i % 8) as usize]),
                    3 => RecordOp::Barrier,
                    _ => RecordOp::CollectiveData(IoKind::Write),
                },
                offset: i * 4096,
                len: 4096,
                start: SimTime::from_micros(i),
                end: SimTime::from_micros(i + 1),
            });
        }
        out
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let records = sample();
        let encoded = encode_records(&records);
        let decoded = decode_records(&encoded).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let records = sample();
        let json = records_to_json(&records);
        let decoded = records_from_json(&json).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let records = sample();
        let bin = encode_records(&records).len();
        let json = records_to_json(&records).len();
        assert!(bin * 2 < json, "binary {bin} vs json {json}");
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(decode_records(b"short").is_err());
        let mut bad_magic = encode_records(&sample());
        bad_magic[0] = b'X';
        assert!(decode_records(&bad_magic).is_err());
        let mut truncated = encode_records(&sample());
        truncated.truncate(30);
        assert!(decode_records(&truncated).is_err());
        assert!(records_from_json("not json").is_err());
    }

    /// The on-disk layout, pinned byte for byte on one record.
    #[test]
    fn layout_matches_hand_written_bytes() {
        let record = LayerRecord {
            layer: Layer::Posix,
            rank: Rank::new(0x0102_0304),
            file: FileId::new(7),
            op: RecordOp::Data(IoKind::Write),
            offset: 0x1122_3344_5566_7788,
            len: 4096,
            start: SimTime::from_nanos(1),
            end: SimTime::from_nanos(0x0100),
        };
        let mut expect: Vec<u8> = b"PIOTRC".to_vec();
        expect.extend([1, 0]); // version
        expect.extend([1, 0, 0, 0, 0, 0, 0, 0]); // record count
        expect.extend([3, 1]); // layer Posix, op Data(Write)
        expect.extend([4, 3, 2, 1]); // rank
        expect.extend([7, 0, 0, 0]); // file
        expect.extend([0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]); // offset
        expect.extend([0, 0x10, 0, 0, 0, 0, 0, 0]); // len
        expect.extend([1, 0, 0, 0, 0, 0, 0, 0]); // start
        expect.extend([0, 1, 0, 0, 0, 0, 0, 0]); // end
        assert_eq!(expect.len(), HEADER_BYTES + RECORD_BYTES);
        assert_eq!(encode_records(std::slice::from_ref(&record)), expect);
        assert_eq!(decode_records(&expect).unwrap(), vec![record]);
    }

    /// A record count the body cannot hold is rejected without
    /// overflowing `count * RECORD_BYTES` or reserving for it: the
    /// largest count, and the smallest whose product wraps past 2^64.
    #[test]
    fn hostile_record_counts_are_rejected() {
        for count in [u64::MAX, u64::MAX / RECORD_BYTES as u64 + 1] {
            let mut data = encode_records(&sample()[..1]);
            data[8..16].copy_from_slice(&count.to_le_bytes());
            assert!(decode_records(&data).is_err(), "count {count}");
        }
    }

    #[test]
    fn all_op_codes_roundtrip() {
        for code in 0..14u8 {
            let op = op_from(code).unwrap();
            assert_eq!(op_code(op), code);
        }
        assert!(op_from(99).is_err());
        for l in Layer::ALL {
            assert_eq!(layer_from(layer_code(l)).unwrap(), l);
        }
        assert!(layer_from(9).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let encoded = encode_records(&[]);
        assert_eq!(decode_records(&encoded).unwrap(), Vec::new());
    }
}
