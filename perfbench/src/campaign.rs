//! `chaos_campaign`: the chaos plans of 64 consecutive seeds, each run
//! under every active delivery policy with the oracle on and trace
//! capture, followed by the JSONL / Perfetto / OpenMetrics / RunReport
//! exports. Build, dispatch and `Oracle::finalize` all happen inside
//! `scenario::run`, so seen from outside a scenario's phases are the
//! `scenario::run` call (reported as dispatch), the `RunReport`
//! serialization (finalize) and the exports.

use crate::alloc::{self, AllocCount};
use crate::host::{cpu_secs, fnv1a};
use mobicast_core::chaos::plan_for_seed;
use mobicast_core::observability::{run_openmetrics, run_perfetto};
use mobicast_core::scenario::{self, ScenarioConfig};
use mobicast_core::strategy::Policy;
use mobicast_net::{FrameClass, FRAME_CLASS_COUNT};
use mobicast_sim::SimProfile;
use std::time::Instant;

/// Chaos seeds per campaign.
pub const CAMPAIGN_SEEDS: u64 = 64;
/// Ring-buffer capacity of each scenario's trace capture.
const TRACE_CAPACITY: usize = 1_000_000;

/// One scenario of the campaign, ready to run.
pub struct Planned {
    /// `<chaos seed>/<policy id>`: the key its digest is checked under.
    pub key: String,
    pub cfg: ScenarioConfig,
}

/// The setup phase: plans and configs for `CAMPAIGN_SEEDS` seeds from
/// `seed` on, times every active policy.
pub fn plan_campaign(seed: u64) -> Vec<Planned> {
    let policies = Policy::active();
    let mut out = Vec::new();
    for s in seed..seed + CAMPAIGN_SEEDS {
        let plan = plan_for_seed(s);
        for &p in &policies {
            let mut cfg = plan.config(p, s);
            cfg.trace_capture = Some(TRACE_CAPACITY);
            out.push(Planned {
                key: format!("{s}/{}", p.id()),
                cfg,
            });
        }
    }
    out
}

/// Outcome of one scenario.
pub struct ScenarioRun {
    /// `[start, end of scenario::run, end of report serialization, end of
    /// the exports]`.
    pub marks: [Instant; 4],
    /// Process CPU seconds at the same points.
    pub cpu: [f64; 4],
    pub run_alloc: AllocCount,
    pub finalize_alloc: AllocCount,
    /// FNV-1a over the report JSON, JSONL trace, Perfetto and OpenMetrics
    /// documents.
    pub digest: u64,
    pub violations: u64,
    pub events: u64,
    pub export_bytes: u64,
    pub trace_lines: u64,
    pub link_bytes: [u64; FRAME_CLASS_COUNT],
    /// Per-node MIB counters summed over all nodes, by name.
    pub mib: mobicast_sim::Counters,
    /// Largest (S,G) table and binding cache on any router.
    pub sg_high_water: u64,
    pub bindings_high_water: u64,
    pub profile: Option<SimProfile>,
}

/// Run one planned scenario and export its artifacts. `traced` turns on
/// the simulator's profiler.
pub fn run_scenario(planned: &Planned, traced: bool) -> ScenarioRun {
    let mut cfg = planned.cfg.clone();
    cfg.profile = traced;
    let cpu0 = cpu_secs();
    let run_start = Instant::now();
    let a0 = alloc::snapshot();
    let result = scenario::run(&cfg);
    let run_end = Instant::now();
    let cpu1 = cpu_secs();
    let a1 = alloc::snapshot();

    let report_json = serde_json::to_string(&result.report).expect("RunReport serializes");
    let finalize_end = Instant::now();
    let cpu2 = cpu_secs();
    let a2 = alloc::snapshot();
    let perfetto = run_perfetto(&cfg.name, &result.report);
    let openmetrics = run_openmetrics(&result.report);
    let jsonl = result.trace_jsonl.as_deref().unwrap_or("");
    let mut all =
        String::with_capacity(report_json.len() + jsonl.len() + perfetto.len() + openmetrics.len());
    for part in [&report_json, jsonl, &perfetto, &openmetrics] {
        all.push_str(part);
    }
    let digest = fnv1a(all.as_bytes());
    let export_end = Instant::now();
    let cpu3 = cpu_secs();

    let mut link_bytes = [0u64; FRAME_CLASS_COUNT];
    for per_link in &result.report.link_bytes {
        for class in FrameClass::ALL {
            link_bytes[class.index()] += per_link.get(class.name()).copied().unwrap_or(0);
        }
    }
    let mut mib = mobicast_sim::Counters::new();
    let (mut sg_high_water, mut bindings_high_water) = (0, 0);
    for counters in result.report.node_stats.values() {
        mib.merge(counters);
        sg_high_water = sg_high_water.max(counters.get("pimSgHighWater"));
        bindings_high_water = bindings_high_water.max(counters.get("bindingCacheHighWater"));
    }
    ScenarioRun {
        marks: [run_start, run_end, finalize_end, export_end],
        cpu: [cpu0, cpu1, cpu2, cpu3],
        run_alloc: a1.since(a0),
        finalize_alloc: a2.since(a1),
        digest,
        violations: result.report.oracle.violation_count,
        events: result.events_executed,
        export_bytes: all.len() as u64,
        trace_lines: jsonl.lines().count() as u64,
        link_bytes,
        mib,
        sg_high_water,
        bindings_high_water,
        profile: result.profile,
    }
}
