//! Compact binary trace codec: the in-tree format `simgate trace` consumes.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8 bytes  b"SIMTRC01"
//! count   u32      number of span records
//! record  repeated:
//!   trace_id u64 · span_id u64 · parent_id u64 · tid u32
//!   start_ns u64 · end_ns u64
//!   name     u32 len + UTF-8 bytes
//!   error    u8 flag (0/1) + string when 1
//!   args     u32 count, each: key string · u8 tag · payload
//!            tag 0 = u64 · 1 = f64 bits · 2 = string · 3 = bool byte
//! ```
//!
//! The version is baked into the magic: a future layout change bumps the
//! trailing digits and old readers fail fast with a clear message instead
//! of misdecoding.

use crate::{ArgValue, SpanRecord};

/// File magic, version included.
pub const MAGIC: &[u8; 8] = b"SIMTRC01";

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes `spans` into the binary format.
pub fn encode(spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + spans.len() * 96);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for s in spans {
        out.extend_from_slice(&s.trace_id.to_le_bytes());
        out.extend_from_slice(&s.span_id.to_le_bytes());
        out.extend_from_slice(&s.parent_id.to_le_bytes());
        out.extend_from_slice(&s.tid.to_le_bytes());
        out.extend_from_slice(&s.start_ns.to_le_bytes());
        out.extend_from_slice(&s.end_ns.to_le_bytes());
        put_str(&mut out, &s.name);
        match &s.error {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                put_str(&mut out, e);
            }
        }
        out.extend_from_slice(&(s.args.len() as u32).to_le_bytes());
        for (key, value) in &s.args {
            put_str(&mut out, key);
            match value {
                ArgValue::U64(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                ArgValue::F64(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                ArgValue::Str(v) => {
                    out.push(2);
                    put_str(&mut out, v);
                }
                ArgValue::Bool(v) => {
                    out.push(3);
                    out.push(u8::from(*v));
                }
            }
        }
    }
    out
}

/// The smallest encoded span: three ids, the tid, two timestamps, an empty
/// name, no error and no args.
const MIN_RECORD: usize = 3 * 8 + 4 + 2 * 8 + 4 + 1 + 4;

/// The smallest encoded arg: an empty key and a bool.
const MIN_ARG: usize = 4 + 1 + 1;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated record at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
    }
}

/// Decodes a binary trace produced by [`encode`].
///
/// # Errors
///
/// A descriptive message on a wrong/old magic, truncation, an unknown arg
/// tag, or trailing bytes after the declared record count.
pub fn decode(bytes: &[u8]) -> Result<Vec<SpanRecord>, String> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r
        .take(8)
        .map_err(|_| "file too short for magic".to_string())?;
    if magic != MAGIC {
        return Err(format!(
            "bad magic {:?}: not a {} trace file",
            String::from_utf8_lossy(magic),
            String::from_utf8_lossy(MAGIC),
        ));
    }
    let count = r.u32()? as usize;
    // A count is only a claim: reserve no more records than the bytes
    // left could hold, so a corrupt header cannot reserve gigabytes.
    let mut spans = Vec::with_capacity(count.min(r.remaining() / MIN_RECORD));
    for _ in 0..count {
        let trace_id = r.u64()?;
        let span_id = r.u64()?;
        let parent_id = r.u64()?;
        let tid = r.u32()?;
        let start_ns = r.u64()?;
        let end_ns = r.u64()?;
        let name = r.string()?;
        let error = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            t => return Err(format!("invalid error flag {t}")),
        };
        let nargs = r.u32()? as usize;
        let mut args = Vec::with_capacity(nargs.min(r.remaining() / MIN_ARG));
        for _ in 0..nargs {
            let key = r.string()?;
            let value = match r.u8()? {
                0 => ArgValue::U64(r.u64()?),
                1 => ArgValue::F64(f64::from_bits(r.u64()?)),
                2 => ArgValue::Str(r.string()?),
                3 => ArgValue::Bool(r.u8()? != 0),
                t => return Err(format!("unknown arg tag {t}")),
            };
            args.push((key, value));
        }
        spans.push(SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name,
            tid,
            start_ns,
            end_ns,
            error,
            args,
        });
    }
    if r.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after {count} records",
            bytes.len() - r.pos
        ));
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded bit-position source for the corruption sweeps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A multi-span trace carrying every arg kind and an error string.
    fn multi_span() -> Vec<SpanRecord> {
        let mut spans = sample();
        spans.push(SpanRecord {
            trace_id: 3,
            span_id: 12,
            parent_id: 11,
            name: "engine/run".to_string(),
            tid: 5,
            start_ns: 200,
            end_ns: 9_000,
            error: None,
            args: vec![
                ("ops".to_string(), ArgValue::U64(u64::MAX)),
                ("ns_per_op".to_string(), ArgValue::F64(-0.5)),
                ("label".to_string(), ArgValue::Str(String::new())),
                ("hit".to_string(), ArgValue::Bool(false)),
            ],
        });
        spans.push(SpanRecord {
            trace_id: 3,
            span_id: 13,
            parent_id: 0,
            name: String::new(),
            tid: 0,
            start_ns: 0,
            end_ns: 0,
            error: None,
            args: Vec::new(),
        });
        spans
    }

    fn sample() -> Vec<SpanRecord> {
        vec![SpanRecord {
            trace_id: 3,
            span_id: 11,
            parent_id: 4,
            name: "stage/simulate".to_string(),
            tid: 2,
            start_ns: 123,
            end_ns: 456_789,
            error: Some("worker panic".to_string()),
            args: vec![
                (
                    "pair".to_string(),
                    ArgValue::Str("523.xalancbmk_r".to_string()),
                ),
                ("ops".to_string(), ArgValue::U64(100_000)),
                ("ipc".to_string(), ArgValue::F64(0.875)),
                ("retried".to_string(), ArgValue::Bool(true)),
            ],
        }]
    }

    #[test]
    fn encode_decode_round_trips() {
        let spans = sample();
        assert_eq!(decode(&encode(&spans)).expect("decode"), spans);
        assert_eq!(decode(&encode(&[])).expect("empty"), Vec::new());
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(decode(b"").unwrap_err().contains("magic"));
        assert!(decode(b"SIMTRC99\0\0\0\0")
            .unwrap_err()
            .contains("bad magic"));
        let mut good = encode(&sample());
        good.truncate(good.len() - 3);
        assert!(decode(&good).unwrap_err().contains("truncated"));
        let mut padded = encode(&sample());
        padded.push(0);
        assert!(decode(&padded).unwrap_err().contains("trailing"));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let good = encode(&multi_span());
        assert_eq!(decode(&good).expect("intact"), multi_span());
        for cut in 0..good.len() {
            assert!(
                decode(&good[..cut]).is_err(),
                "truncated at byte {cut} of {} decoded",
                good.len()
            );
        }
    }

    #[test]
    fn single_bit_flips_never_panic() {
        let good = encode(&multi_span());
        let mut state = 0x5eed;
        for _ in 0..1_000 {
            let mut bytes = good.clone();
            let bit = splitmix(&mut state) % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            // Ok (a flipped id, timestamp or payload bit) or Err; a
            // panic fails the test.
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn oversized_counts_are_errors() {
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&header).unwrap_err().contains("truncated"));
        // The same claim in front of one real record.
        let mut one = encode(&sample());
        one[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&one).is_err());
        // And an args count of u32::MAX inside a record: the count sits
        // after the fixed fields, the name and the error string.
        let mut args = encode(&sample());
        let at = 12 + 44 + 4 + "stage/simulate".len() + 1 + 4 + "worker panic".len();
        assert_eq!(&args[at..at + 4], &4u32.to_le_bytes());
        args[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&args).is_err());
    }
}
