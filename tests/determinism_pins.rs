//! Determinism pins: content hashes of the simulator's deterministic
//! outputs, checked on every `cargo test`.
//!
//! The goldens under `crates/core/tests/goldens/` pin the reference
//! scenarios' traces; these pins extend the same contract to the stress
//! layer (trace JSONL and `StressReport` of every quick stress spec), to a
//! reference-scenario `RunReport`, and to the windowed shard analysis,
//! whose run must equal the sequential one byte for byte and whose
//! schedule statistics are themselves deterministic.
//!
//! A hash mismatch means an output byte changed; the failure message
//! carries the new value. If the change is intended, update the constant
//! and say in the commit why the bytes moved.

use mobicast::core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast::core::strategy::Policy;
use mobicast::core::stress::{run_stress_with, specs, StressRunOptions, StressSpec};
use mobicast::net::ShardRunStats;
use mobicast::sim::{RingBufferTracer, SimDuration};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Trace JSONL and serialized `StressReport` of one stress run.
fn capture(spec: &StressSpec, opts: &StressRunOptions) -> (String, String, Option<ShardRunStats>) {
    let (tracer, ring) = RingBufferTracer::new(1_000_000);
    let (report, stats) = run_stress_with(spec, opts, tracer);
    assert_eq!(ring.dropped(), 0, "{}: trace ring overflowed", spec.name);
    let report_json = serde_json::to_string_pretty(&report).expect("report serializes");
    (ring.export_jsonl(), report_json, stats)
}

/// The pins of one quick stress spec.
struct StressPin {
    name: &'static str,
    trace: u64,
    report: u64,
    /// The `ShardRunStats` of the run under `sharded(4)`: windows, barrier
    /// syncs, events per shard, events total, largest window batch,
    /// critical-path events.
    shard4: (u64, u64, [u64; 4], u64, u64, u64),
}

const STRESS_PINS: &[StressPin] = &[
    StressPin {
        name: "grid16x24/local/seed11",
        trace: 0x2778e5dfc33a2e9d,
        report: 0x451502929352a2f2,
        shard4: (5402, 22, [4566, 5511, 5451, 3334], 18884, 260, 11520),
    },
    StressPin {
        name: "grid16x24/bidir-tunnel/seed11",
        trace: 0x2267817e0c0a9cf5,
        report: 0xf32b8640ed3afe14,
        shard4: (5470, 22, [4824, 5502, 5514, 3398], 19260, 260, 11642),
    },
    StressPin {
        name: "tree15x14/local/seed11",
        trace: 0x75e793b95b8486d4,
        report: 0x7101f731f55379cf,
        shard4: (3095, 22, [4732, 3173, 368, 182], 8477, 116, 6479),
    },
    StressPin {
        name: "tree15x14/bidir-tunnel/seed11",
        trace: 0x1c4a17f42ef8bc6e,
        report: 0xa8fe61dd477506be,
        shard4: (3331, 22, [4952, 3174, 365, 182], 8695, 116, 6751),
    },
];

#[test]
fn stress_outputs_match_pins() {
    let all = specs(true);
    assert_eq!(all.len(), STRESS_PINS.len(), "stress spec set changed");
    let sharded = StressRunOptions::sharded(4);
    for (spec, pin) in all.iter().zip(STRESS_PINS) {
        let name = pin.name;
        assert_eq!(spec.name, name, "stress spec order changed");
        let (trace, report, stats) = capture(spec, &StressRunOptions::default());
        assert!(stats.is_none(), "{name}: sequential run reported shards");
        let trace_hash = fnv1a(trace.as_bytes());
        assert!(
            trace_hash == pin.trace,
            "{name}: trace JSONL bytes changed (hash now {trace_hash:#018x})"
        );
        let report_hash = fnv1a(report.as_bytes());
        assert!(
            report_hash == pin.report,
            "{name}: StressReport bytes changed (hash now {report_hash:#018x})"
        );

        let (shard_trace, shard_report, stats) = capture(spec, &sharded);
        assert_eq!(
            shard_report, report,
            "{name}: StressReport diverged under sharded(4)"
        );
        assert!(
            shard_trace == trace,
            "{name}: trace JSONL diverged under sharded(4)"
        );
        let (windows, barrier_syncs, per_shard, events_total, max_batch, critical) = pin.shard4;
        let want = ShardRunStats {
            windows,
            barrier_syncs,
            events_per_shard: per_shard.to_vec(),
            events_total,
            max_window_batch: max_batch,
            critical_path_events: critical,
        };
        assert_eq!(
            stats.expect("sharded run reports stats"),
            want,
            "{name}: ShardRunStats under sharded(4) changed"
        );
    }
}

/// `RunReport` hash of the bidirectional-tunnel handoff reference scenario.
const RUN_REPORT_PIN: u64 = 0xf012662a1245f62a;

#[test]
fn reference_run_report_matches_pin() {
    let cfg = ScenarioConfig::builder()
        .seed(1)
        .duration(SimDuration::from_secs(80))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(40.0, PaperHost::R3, 6)
        .name("pin-handoff")
        .build();
    let result = scenario::run(&cfg);
    let json = serde_json::to_string_pretty(&result.report).expect("report serializes");
    let hash = fnv1a(json.as_bytes());
    assert!(
        hash == RUN_REPORT_PIN,
        "reference RunReport bytes changed (hash now {hash:#018x})"
    );
}

#[test]
fn fnv1a_matches_reference_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
