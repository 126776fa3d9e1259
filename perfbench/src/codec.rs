//! The wire-codec sample of a traced run: frames kept by the probe are
//! decoded with `Packet::decode` and re-encoded with `Packet::encode` after
//! the run, timed per frame class. Re-encoding must reproduce the frame
//! byte for byte.

use mobicast_ipv6::Packet;
use mobicast_net::{Frame, FRAME_CLASS_COUNT};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Debug, Default)]
pub struct CodecStats {
    /// Mean decode time per frame class (0 where the sample has none).
    pub decode_ns: [f64; FRAME_CLASS_COUNT],
    pub encode_ns: f64,
    pub decode_errors: u64,
    /// Frames whose re-encoding differs from the original bytes.
    pub mismatches: u64,
}

pub fn codec_sample(frames: &[Frame]) -> CodecStats {
    let mut stats = CodecStats::default();
    let mut encoded = 0u64;
    let mut encode_ns = 0u128;
    for (class, decode_ns) in stats.decode_ns.iter_mut().enumerate() {
        let group: Vec<&Frame> = frames.iter().filter(|f| f.class.index() == class).collect();
        if group.is_empty() {
            continue;
        }
        let t = Instant::now();
        let decoded: Vec<_> = group
            .iter()
            .map(|f| Packet::decode(black_box(&f.bytes[..])))
            .collect();
        *decode_ns = t.elapsed().as_nanos() as f64 / group.len() as f64;

        let ok: Vec<(&Frame, Packet)> = group
            .iter()
            .zip(decoded)
            .filter_map(|(f, d)| d.ok().map(|p| (*f, p)))
            .collect();
        stats.decode_errors += (group.len() - ok.len()) as u64;
        let t = Instant::now();
        let bytes: Vec<_> = ok.iter().map(|(_, p)| black_box(p).encode()).collect();
        encode_ns += t.elapsed().as_nanos();
        encoded += bytes.len() as u64;
        stats.mismatches += ok
            .iter()
            .zip(&bytes)
            .filter(|((f, _), b)| f.bytes[..] != b[..])
            .count() as u64;
    }
    if encoded > 0 {
        stats.encode_ns = encode_ns as f64 / encoded as f64;
    }
    stats
}
