//! Seeded event generator and the correctness oracle built on it.
//!
//! The payload of event `index` of topic `tag` is a pure function of
//! `(seed, tag, index)`, so the replay phase can recompute what every
//! record must contain without the harness keeping a copy. Sizes, keys
//! and the partition an index lands on do **not** depend on the seed:
//! only payload bytes do, so a different seed is a different input of
//! the same shape and the work per run stays the same.

use bytes::Bytes;
use octopus_types::{Event, Header, Timestamp};

/// Header carrying the open-loop due time (ns since the harness epoch).
/// It lives outside the payload so the payload stays recomputable.
pub const DUE_HEADER: &str = "due";

/// Payload families of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `len` opaque bytes: the index (8 B LE) then seeded noise.
    Opaque { len: usize },
    /// Fixed-width JSON telemetry of exactly `len` bytes.
    Json { len: usize },
    /// JSON like [`Shape::Json`], built so that exactly one event of
    /// every consecutive pair satisfies [`TRIGGER_PATTERN`].
    JsonHalfMatch { len: usize },
}

impl Shape {
    /// Payload bytes of one event.
    pub fn len(self) -> usize {
        match self {
            Shape::Opaque { len } | Shape::Json { len } | Shape::JsonHalfMatch { len } => len,
        }
    }
}

/// The `trigger_loop` filter: array-OR on `kind` plus a numeric range.
pub const TRIGGER_PATTERN: &str =
    r#"{"kind":["created","changed"],"size":[{"numeric":[">=",100,"<",500]}]}"#;

const MATCH_KINDS: [&str; 2] = ["created", "changed"];
const OTHER_KINDS: [&str; 2] = ["deleted", "renamed"];
const SITES: [&str; 4] = ["anl-aps", "ornl-hf", "nersc-p", "alcf-po"];
/// 16 eight-byte words: one seeded u64 picks 16 of them (4 bits each),
/// which gives LZ4 the repetition real telemetry has.
const WORDS: [&[u8; 8]; 16] = [
    b"beamline",
    b"detector",
    b"spectrum",
    b"exposure",
    b"pressure",
    b"gradient",
    b"sequence",
    b"waveform",
    b"position",
    b"rotation",
    b"humidity",
    b"coolant-",
    b"shutter-",
    b"encoder-",
    b"trigger-",
    b"nominal-",
];
/// `{"id":` — the index follows as ten digits (`1_000_000_000 + index`).
const ID_PREFIX: &[u8] = b"{\"id\":";
const ID_BASE: u64 = 1_000_000_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded generator. `Copy` so every thread owns one.
#[derive(Debug, Clone, Copy)]
pub struct Gen {
    seed: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { seed }
    }

    fn stream(&self, tag: u64, index: u64) -> u64 {
        let mut s = self.seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        s = splitmix(&mut s) ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        s
    }

    /// A seeded number for harness decisions (which offsets to seek to).
    pub fn draw(&self, tag: u64, index: u64) -> u64 {
        splitmix(&mut self.stream(tag, index))
    }

    /// Ground truth of the `trigger_loop` filter for `index`.
    pub fn matches(&self, tag: u64, index: u64) -> bool {
        let mut s = self.stream(tag ^ 0x5EED, index / 2);
        (splitmix(&mut s) & 1) == index % 2
    }

    /// Write the payload of `(tag, index)` into `out` (cleared first).
    pub fn payload_into(&self, shape: Shape, tag: u64, index: u64, out: &mut Vec<u8>) {
        out.clear();
        let mut s = self.stream(tag, index);
        match shape {
            Shape::Opaque { len } => {
                out.extend_from_slice(&index.to_le_bytes());
                while out.len() < len {
                    out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
                }
                out.truncate(len);
            }
            Shape::Json { len } => {
                let r = splitmix(&mut s);
                let kind =
                    if r & 1 == 0 { MATCH_KINDS } else { OTHER_KINDS }[(r >> 1 & 1) as usize];
                let size = 100 + (r >> 8) % 900;
                json_into(out, len, index, kind, size, &mut s);
            }
            Shape::JsonHalfMatch { len } => {
                let r = splitmix(&mut s);
                let pick = (r >> 1 & 1) as usize;
                let (kind, size) = if self.matches(tag, index) {
                    (MATCH_KINDS[pick], 100 + (r >> 8) % 400)
                } else if r & 1 == 0 {
                    (OTHER_KINDS[pick], 100 + (r >> 8) % 900)
                } else {
                    (MATCH_KINDS[pick], 500 + (r >> 8) % 500)
                };
                json_into(out, len, index, kind, size, &mut s);
            }
        }
    }

    /// A ready-to-send event. `due_ns` of `Some` stamps [`DUE_HEADER`].
    pub fn event(
        &self,
        shape: Shape,
        tag: u64,
        index: u64,
        key: &Bytes,
        due_ns: Option<u64>,
        scratch: &mut Vec<u8>,
    ) -> Event {
        self.payload_into(shape, tag, index, scratch);
        let headers = match due_ns {
            Some(d) => vec![Header {
                key: DUE_HEADER.to_string(),
                value: d.to_le_bytes().to_vec(),
            }],
            None => Vec::new(),
        };
        Event {
            key: Some(key.clone()),
            payload: Bytes::copy_from_slice(scratch),
            headers,
            // a fixed producer timestamp keeps stored bytes seed-pure
            timestamp: Timestamp::from_millis(1_700_000_000_000 + index),
        }
    }
}

fn json_into(out: &mut Vec<u8>, len: usize, index: u64, kind: &str, size: u64, s: &mut u64) {
    use std::io::Write;
    let r = splitmix(s);
    let site = SITES[(r & 3) as usize];
    let temp_int = 200 + (r >> 4) % 100;
    let temp_frac = (r >> 16) % 100;
    write!(
        out,
        "{{\"id\":{},\"kind\":\"{kind}\",\"size\":{size},\"site\":\"{site}\",\
         \"temp\":{temp_int}.{temp_frac:02},\"unit\":\"kelvin\",\"pad\":\"",
        ID_BASE + index,
    )
    .expect("write to Vec cannot fail");
    let body_end = len - 2; // closing quote + brace
    while out.len() < body_end {
        let mut bits = splitmix(s);
        for _ in 0..16 {
            out.extend_from_slice(WORDS[(bits & 15) as usize]);
            bits >>= 4;
            if out.len() >= body_end {
                break;
            }
        }
    }
    out.truncate(body_end);
    out.extend_from_slice(b"\"}");
    debug_assert_eq!(out.len(), len);
}

/// The index a payload claims to carry, or `None` when it is not one of
/// ours (too short, bad prefix, non-digits).
pub fn index_of(shape: Shape, payload: &[u8]) -> Option<u64> {
    match shape {
        Shape::Opaque { .. } => payload
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
        Shape::Json { .. } | Shape::JsonHalfMatch { .. } => {
            let digits = payload.strip_prefix(ID_PREFIX)?.get(..10)?;
            let mut v = 0u64;
            for d in digits {
                if !d.is_ascii_digit() {
                    return None;
                }
                v = v * 10 + u64::from(d - b'0');
            }
            v.checked_sub(ID_BASE)
        }
    }
}

/// The due time stamped on an event, if any.
pub fn due_of(headers: &[Header]) -> Option<u64> {
    headers
        .iter()
        .find(|h| h.key == DUE_HEADER)
        .and_then(|h| h.value.as_slice().try_into().ok())
        .map(u64::from_le_bytes)
}

/// A trigger result: the input's index and its due time, 16 bytes.
pub fn result_payload(index: u64, due_ns: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&index.to_le_bytes());
    v.extend_from_slice(&due_ns.to_le_bytes());
    v
}

/// Inverse of [`result_payload`].
pub fn parse_result(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() != 16 {
        return None;
    }
    let index = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let due = u64::from_le_bytes(payload[8..].try_into().expect("8 bytes"));
    Some((index, due))
}

/// One key per partition, found by probing the broker's own key hash, so
/// event `i` lands on partition `i % partitions` on every seed.
pub fn partition_keys(partitions: u32) -> Vec<Bytes> {
    (0..partitions)
        .map(|p| {
            (0u32..)
                .map(|n| format!("k{n}"))
                .find(|k| octopus_broker::key_partition(k.as_bytes(), partitions) == p)
                .map(|k| Bytes::from(k.into_bytes()))
                .expect("some key hashes to every partition")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_pattern::Pattern;

    const SHAPES: [Shape; 3] = [
        Shape::Opaque { len: 128 },
        Shape::Json { len: 512 },
        Shape::JsonHalfMatch { len: 256 },
    ];

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        for shape in SHAPES {
            for index in [0u64, 1, 77, 1_999_999] {
                Gen::new(7).payload_into(shape, 3, index, &mut a);
                Gen::new(7).payload_into(shape, 3, index, &mut b);
                Gen::new(8).payload_into(shape, 3, index, &mut c);
                assert_eq!(a, b, "{shape:?} #{index} is not deterministic");
                assert_ne!(a, c, "{shape:?} #{index} ignores the seed");
                assert_eq!(index_of(shape, &a), Some(index));
            }
        }
    }

    #[test]
    fn sizes_are_exact_and_seed_independent() {
        let mut buf = Vec::new();
        for seed in 0..20u64 {
            for (shape, len) in SHAPES.iter().zip([128usize, 512, 256]) {
                for index in 0..50u64 {
                    Gen::new(seed).payload_into(*shape, 1, index, &mut buf);
                    assert_eq!(buf.len(), len);
                }
            }
        }
    }

    #[test]
    fn json_payloads_parse_and_exactly_half_match_the_filter() {
        let pattern = Pattern::parse_str(TRIGGER_PATTERN).unwrap();
        let shape = Shape::JsonHalfMatch { len: 256 };
        let mut buf = Vec::new();
        for seed in [1u64, 2, 99] {
            let g = Gen::new(seed);
            let mut matched = 0;
            for index in 0..2_000u64 {
                g.payload_into(shape, 5, index, &mut buf);
                let v: serde_json::Value = serde_json::from_slice(&buf).expect("valid JSON");
                assert_eq!(v["id"].as_u64(), Some(1_000_000_000 + index));
                let hit = pattern.matches_bytes(&buf);
                assert_eq!(
                    hit,
                    g.matches(5, index),
                    "oracle disagrees with the pattern crate"
                );
                matched += usize::from(hit);
                if index % 2 == 1 {
                    assert_eq!(matched as u64, index.div_ceil(2), "not one per pair");
                }
            }
            assert_eq!(matched, 1_000);
        }
    }

    #[test]
    fn foreign_payloads_have_no_index() {
        assert_eq!(index_of(Shape::Opaque { len: 128 }, b"short"), None);
        assert_eq!(
            index_of(Shape::Json { len: 512 }, b"{\"id\":12x4567890,"),
            None
        );
        assert_eq!(
            index_of(Shape::Json { len: 512 }, b"{\"id\":0000000001,"),
            None
        );
        assert_eq!(parse_result(&result_payload(9, 123)), Some((9, 123)));
        assert_eq!(parse_result(b"nope"), None);
    }

    #[test]
    fn keys_cover_every_partition() {
        for n in [1u32, 2, 4] {
            let keys = partition_keys(n);
            for (p, k) in keys.iter().enumerate() {
                assert_eq!(octopus_broker::key_partition(k, n), p as u32);
            }
        }
    }
}
