//! Phase- and layer-resolved benchmark of the mobicast simulator.
//!
//! Three closed-loop workloads, each run single-threaded with the
//! sequential executor (`MOBICAST_WORKERS` does not apply to it):
//!
//! - `metro_flood`: `scale::metro_spec(1000, 400, seed)`, dispatch-bound
//!   PIM-DM flood and prune on 529 links; every data arrival scans 529
//!   routes for its RPF check, so routing-plane and event-queue changes
//!   show here.
//! - `roam_tunnel`: the 8×8 grid under the bidirectional tunnel with 50
//!   receivers roaming 10 times each; binding updates, home-agent
//!   encapsulation and MLD proxying write state, and the routing tables
//!   are small (64 routes), so a routing-plane change should not move it.
//! - `chaos_campaign`: 64 chaos seeds × every active policy on the
//!   6-link reference topology, with trace capture and all exporters;
//!   world construction, decode-error paths and export dominate.
//!
//! `BENCHMARK.json` lists `metro_flood` and `chaos_campaign` only: on a
//! shared two-core host a third workload leaves each run too short to be
//! steady. `roam_tunnel` stays runnable by name.
//!
//! Everything is measured from outside the program, by timing and
//! counting around public calls. End-to-end metrics come from untraced
//! runs, whose phase times are best-of sums over the run's repetitions
//! ([`best`]) scaled by a host-speed reference timed during the run
//! ([`reference`]); per-layer metrics add one traced run (simulator
//! profiling, a timed oracle probe, a 1-in-8 frame sample and the
//! benchmark's own wall-clock spans), whose timings are as measured.

pub mod alloc;
pub mod best;
pub mod campaign;
pub mod check;
pub mod codec;
pub mod host;
pub mod phased;
pub mod reference;
pub mod spans;

use crate::alloc::AllocCount;
use crate::best::{BestOf, Kind, Piece};
use crate::check::{guarded, Checked, Ledger};
use crate::host::fnv1a;
use crate::phased::{run_phased, LayerCounts, StressRun};
use crate::reference::Reference;
use crate::spans::WallSpans;
use mobicast_core::stress::StressSpec;
use mobicast_net::{FrameClass, FRAME_CLASS_COUNT};
use mobicast_sim::SimProfile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const DEFAULT_SEED: u64 = 11;

/// Repetitions a timed run completes at least, whatever `--seconds` says,
/// so that every best-of has three samples.
const MIN_OPS: usize = 3;

/// Setup-only repetitions after each timed operation. Setup takes well
/// under a second while the host's speed drifts over tens of seconds, so
/// `setup_s` is the fastest of these repetitions spread over the whole run.
const SETUP_REPS_PER_OP: usize = 4;

/// On the campaign, one setup-only repetition and one reference sample
/// every this many scenarios.
const CAMPAIGN_SETUP_STRIDE: usize = 4;

/// Reference samples after each setup-only repetition of a stress run.
const REFERENCE_PER_SETUP: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MetroFlood,
    RoamTunnel,
    ChaosCampaign,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MetroFlood,
        Workload::RoamTunnel,
        Workload::ChaosCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroFlood => "metro_flood",
            Workload::RoamTunnel => "roam_tunnel",
            Workload::ChaosCampaign => "chaos_campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stress spec generator of a stress workload.
    pub fn stress_spec(self) -> Option<fn(u64) -> StressSpec> {
        match self {
            Workload::MetroFlood => Some(phased::metro_flood_spec),
            Workload::RoamTunnel => Some(phased::roam_tunnel_spec),
            Workload::ChaosCampaign => None,
        }
    }

    /// A description of every workload parameter (hashed into the
    /// manifest).
    fn params(self, seed: u64) -> String {
        match self.stress_spec() {
            Some(make) => format!("{:?}", make(seed)),
            None => format!(
                "chaos seeds {seed}..{} x {:?}",
                seed + campaign::CAMPAIGN_SEEDS,
                mobicast_core::strategy::Policy::active()
                    .iter()
                    .map(|p| p.id())
                    .collect::<Vec<_>>()
            ),
        }
    }
}

/// End-to-end metrics, printed by every untraced run. `setup_s` is the
/// fastest setup-only repetition; the phase times, `wall_s` and `cpu_s`
/// are best-of sums ([`best`]); all of them are scaled to the nominal
/// core by the run's [`reference`] samples, and the measured values are
/// printed on the `timed:` line. `events_per_s` divides one repetition's
/// events by `dispatch_s` (by `wall_s` on the campaign).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("dispatch_s", "s"),
    ("finalize_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Span names of the traced run, each reported as `span.self_s.<name>`.
const SPAN_NAMES: [&str; 8] = [
    "workload", "run", "setup", "dispatch", "finalize", "export", "scenario", "codec",
];

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("sim.events", "count"),
        ("sim.events_scheduled", "count"),
        ("sim.queue_high_water", "count"),
        ("sim.loop_self_s", "s"),
        ("sim.trace_lines", "count"),
        ("net.deliver_s", "s"),
        ("net.deliver_ns_mean", "ns"),
        ("net.timer_s", "s"),
        ("net.script_s", "s"),
        ("net.frames_tx", "count"),
        ("net.frames_rx", "count"),
        ("net.copies_per_tx", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for class in FrameClass::ALL {
        out.push((format!("net.link_bytes.{}", class.name()), "bytes"));
    }
    for class in FrameClass::ALL {
        out.push((format!("ipv6.decode_ns.{}", class.name()), "ns"));
    }
    for (n, u) in [
        ("ipv6.encode_ns", "ns"),
        ("ipv6.decode_errors", "count"),
        ("ipv6.rx_malformed", "count"),
        ("mld.reports_in", "count"),
        ("mld.queries_in", "count"),
        ("pimdm.messages_in", "count"),
        ("pimdm.oif_prunes", "count"),
        ("pimdm.grafts_acked", "count"),
        ("pimdm.sg_high_water", "count"),
        ("mipv6.bu_rx", "count"),
        ("mipv6.tunnel_encaps", "count"),
        ("mipv6.tunnel_decaps", "count"),
        ("mipv6.bindings_high_water", "count"),
        ("core.builder.build_s", "s"),
        ("core.builder.alloc_mb", "MiB"),
        ("core.oracle.probe_s", "s"),
        ("core.oracle.finalize_s", "s"),
        ("core.oracle.polls", "count"),
        ("core.oracle.sg_walked", "count"),
        ("core.recorder.rows", "count"),
        ("core.export_s", "s"),
        ("core.export_bytes", "bytes"),
        ("alloc.setup", "count"),
        ("alloc.dispatch_per_event", "count"),
        ("alloc.dispatch_bytes_per_event", "bytes"),
        ("alloc.finalize", "count"),
        ("trace.dispatch_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    for name in SPAN_NAMES {
        out.push((format!("span.self_s.{name}"), "s"));
    }
    out
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its Chrome span file.
    pub out_dir: Option<PathBuf>,
}

/// Measured values by metric name; units come from [`END_TO_END`] and
/// [`per_layer`].
#[derive(Default)]
struct Measured(BTreeMap<String, f64>);

impl Measured {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The `wanted` metrics with their units, in that order, and the names
    /// that were wanted but never measured.
    fn select(&self, wanted: &[(String, &'static str)]) -> (Metrics, Vec<String>) {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match self.0.get(name) {
                Some(&v) => out.push((name.clone(), v, *unit)),
                None => missing.push(name.clone()),
            }
        }
        (out, missing)
    }
}

/// `(name, value, unit)` in the order of the metric list.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The result of one benchmark invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines (manifest, simulated statistics, failures).
    pub lines: Vec<String>,
}

impl Outcome {
    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(*v)),
                            ("unit".to_string(), Value::Str(u.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), metrics),
        ]);
        serde_json::to_string(&doc).expect("metrics serialize")
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; 0 when empty.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// What the timed loop collects.
#[derive(Default)]
struct Timed {
    best: BestOf,
    /// Setup-only repetitions, s.
    setup: Vec<f64>,
    /// Wall time of every repetition, s.
    wall: Vec<f64>,
    /// Dispatch time of every repetition, s: the base of the traced run's
    /// overhead ratio.
    dispatch: Vec<f64>,
    /// Latency of every operation (one stress run or one scenario), ms.
    op_ms: Vec<f64>,
    /// Time spent in the operations (setup-only repetitions excluded).
    op_secs: f64,
    /// Events one repetition executes.
    events: u64,
    reference: Reference,
}

impl Timed {
    /// `events_per_wall`: rate events per second of `wall_s` rather than
    /// of `dispatch_s`.
    fn end_to_end(&self, m: &mut Measured, events_per_wall: bool) {
        let k = self.reference.scale();
        let dispatch = self.best.secs(Kind::Dispatch) * k;
        let wall = self.best.total_secs() * k;
        m.set("setup_s", fastest(&self.setup) * k);
        m.set("dispatch_s", dispatch);
        m.set("finalize_s", self.best.secs(Kind::Finalize) * k);
        m.set("wall_s", wall);
        m.set("cpu_s", self.best.total_cpu_secs() * k);
        let per = if events_per_wall { wall } else { dispatch };
        m.set("events_per_s", self.events as f64 / per);
        m.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    }

    /// Sample counts, and the medians and tail the best-of sums leave
    /// out. The p95 latency is not a metric: only the campaign has enough
    /// operations per run for ten samples beyond it.
    fn describe(&self) -> String {
        let n = self.op_ms.len();
        format!(
            "timed: {n} operations in {:.3} s ({:.4} ops/s), op_p50_ms = {}, \
             op_p95_ms = {} ({} samples beyond); best-of over {} repetitions, \
             measured: setup {} s, dispatch {} s, finalize {} s, wall {} s; \
             reference median {} ms over {} samples (scale {}); \
             {} setups (median {} s); wall per repetition {:?}",
            self.op_secs,
            n as f64 / self.op_secs,
            median(&self.op_ms),
            percentile(&self.op_ms, 0.95),
            n - (0.95 * n as f64).ceil() as usize,
            self.best.reps,
            fastest(&self.setup),
            self.best.secs(Kind::Dispatch),
            self.best.secs(Kind::Finalize),
            self.best.total_secs(),
            median(&self.reference.samples) * 1e3,
            self.reference.samples.len(),
            self.reference.scale(),
            self.setup.len(),
            median(&self.setup),
            self.wall
        )
    }
}

/// Closed loop: run `op` (which returns the duration of its operation)
/// until another one would overrun `seconds`, but at least [`MIN_OPS`]
/// times. Returns the summed operation durations.
fn closed_loop(seconds: f64, mut op: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut n = 0;
    let mut total = 0.0;
    loop {
        let took = op();
        total += took;
        n += 1;
        if n >= MIN_OPS && start.elapsed() + Duration::from_secs_f64(took) > budget {
            return total;
        }
    }
}

/// Run one invocation of the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let manifest = host::manifest(
        opts.workload.name(),
        opts.seed,
        &opts.workload.params(opts.seed),
    );
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::new(),
        lines: vec![format!(
            "manifest {}",
            serde_json::to_string(&manifest).expect("manifest serializes")
        )],
    };
    let mut ledger = Ledger::default();
    let mut spans = WallSpans::new();
    let mut measured = Measured::default();
    let (m, lines) = (&mut measured, &mut out.lines);
    match opts.workload.stress_spec() {
        Some(make) => stress(opts, make, &mut ledger, &mut spans, m, lines),
        None => chaos(opts, &mut ledger, &mut spans, m, lines),
    }
    if opts.trace {
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!(
                "{}-seed{}.trace.json",
                opts.workload.name(),
                opts.seed
            ));
            let mut doc = serde_json::from_str(&spans.chrome_trace(opts.workload.name()))
                .expect("exported trace parses");
            doc["metadata"] = manifest;
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(
                    &path,
                    serde_json::to_string(&doc).expect("trace serializes"),
                )
            });
            match written {
                Ok(()) => out.lines.push(format!("span file {}", path.display())),
                Err(e) => {
                    out.correct = false;
                    out.lines
                        .push(format!("error: writing {}: {e}", path.display()));
                }
            }
        }
    }
    let wanted: Vec<(String, &'static str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let (metrics, missing) = measured.select(&wanted);
    out.metrics = metrics;
    if !missing.is_empty() {
        out.correct = false;
        out.lines
            .push(format!("error: metrics not measured: {missing:?}"));
    }
    out.attempted = ledger.attempted;
    out.failed = ledger.failed;
    out.correct &= ledger.failed == 0 && ledger.attempted > 0;
    out.lines.push(format!(
        "failed_ratio = {} ({} of {})",
        ledger.failed_ratio(),
        ledger.failed,
        ledger.attempted
    ));
    out.lines
        .extend(ledger.failures.iter().map(|f| format!("failure: {f}")));
    out
}

/// The pieces of a stress run: setup, each dispatch slice, finalize and
/// export.
fn stress_pieces(r: &StressRun) -> Vec<Piece> {
    let piece = |kind, p: &phased::Phase| Piece {
        kind,
        secs: p.secs,
        cpu_secs: p.cpu_secs,
    };
    let mut out = vec![piece(Kind::Setup, &r.setup)];
    out.extend(r.dispatch_slices.iter().map(|p| piece(Kind::Dispatch, p)));
    out.push(piece(Kind::Finalize, &r.finalize));
    out.push(piece(Kind::Export, &r.export));
    out
}

/// Digest of a stress run: its serialized report plus every exact
/// per-layer count, so a count that stops repeating is a failure too.
fn stress_digest(run: &StressRun) -> u64 {
    fnv1a(format!("{}{:?}", run.json, run.counts).as_bytes())
}

fn set_counts(m: &mut Measured, c: &LayerCounts) {
    m.set("sim.events", c.events as f64);
    m.set("sim.events_scheduled", c.events_scheduled as f64);
    m.set("sim.queue_high_water", c.queue_high_water as f64);
    m.set("net.frames_tx", c.frames_tx as f64);
    m.set("net.frames_rx", c.frames_rx as f64);
    let copies = if c.frames_tx == 0 {
        0.0
    } else {
        c.frames_rx as f64 / c.frames_tx as f64
    };
    m.set("net.copies_per_tx", copies);
    set_link_bytes(m, &c.link_bytes);
    m.set("ipv6.rx_malformed", c.frames_malformed as f64);
    m.set("mld.reports_in", c.mld_reports_in as f64);
    m.set("mld.queries_in", c.mld_queries_in as f64);
    m.set("pimdm.messages_in", c.pim_messages_in as f64);
    m.set("pimdm.oif_prunes", c.pim_oif_prunes as f64);
    m.set("pimdm.grafts_acked", c.pim_grafts_acked as f64);
    m.set("pimdm.sg_high_water", c.sg_high_water as f64);
    m.set("mipv6.bu_rx", c.bu_rx as f64);
    m.set("mipv6.tunnel_encaps", c.tunnel_encaps as f64);
    m.set("mipv6.tunnel_decaps", c.tunnel_decaps as f64);
    m.set("mipv6.bindings_high_water", c.bindings_high_water as f64);
    m.set("core.oracle.polls", c.oracle_polls as f64);
    m.set("core.oracle.sg_walked", c.sg_walked as f64);
    m.set("core.recorder.rows", c.recorder_rows as f64);
}

fn set_link_bytes(m: &mut Measured, bytes: &[u64; FRAME_CLASS_COUNT]) {
    for class in FrameClass::ALL {
        m.set(
            &format!("net.link_bytes.{}", class.name()),
            bytes[class.index()] as f64,
        );
    }
}

fn set_allocs(
    m: &mut Measured,
    setup: AllocCount,
    dispatch: AllocCount,
    finalize: AllocCount,
    events: u64,
) {
    let per_event = |x: u64| {
        if events == 0 {
            0.0
        } else {
            x as f64 / events as f64
        }
    };
    m.set("alloc.setup", setup.allocs as f64);
    m.set("alloc.dispatch_per_event", per_event(dispatch.allocs));
    m.set("alloc.dispatch_bytes_per_event", per_event(dispatch.bytes));
    m.set("alloc.finalize", finalize.allocs as f64);
}

/// Handler-category totals of one or more profiles, in seconds, and the
/// summed deliver count.
#[derive(Default)]
struct Handlers {
    deliver_s: f64,
    timer_s: f64,
    script_s: f64,
    deliver_count: u64,
    scheduled: u64,
    queue_high_water: u64,
}

impl Handlers {
    fn add(&mut self, p: &SimProfile) {
        let secs = |name: &str| {
            p.handlers
                .get(name)
                .map_or(0.0, |h| h.total_ns as f64 / 1e9)
        };
        self.deliver_s += secs("deliver");
        self.timer_s += secs("timer");
        self.script_s += secs("script");
        self.deliver_count += p.handlers.get("deliver").map_or(0, |h| h.count);
        self.scheduled += p.events_scheduled;
        self.queue_high_water = self.queue_high_water.max(p.queue_depth_high_water);
    }

    /// Handler and loop-self metrics; handlers plus loop self time add up
    /// to `dispatch_s`, the traced run's dispatch time. On the campaign
    /// that is the `scenario::run` calls, so loop self time there also
    /// holds world construction and `Oracle::finalize`.
    fn set(&self, m: &mut Measured, dispatch_s: f64, untraced_dispatch_s: f64) {
        let handlers = self.deliver_s + self.timer_s + self.script_s;
        m.set("sim.loop_self_s", dispatch_s - handlers);
        m.set("net.deliver_s", self.deliver_s);
        let mean = if self.deliver_count == 0 {
            0.0
        } else {
            self.deliver_s * 1e9 / self.deliver_count as f64
        };
        m.set("net.deliver_ns_mean", mean);
        m.set("net.timer_s", self.timer_s);
        m.set("net.script_s", self.script_s);
        m.set("trace.dispatch_s", dispatch_s);
        m.set("trace.overhead_ratio", dispatch_s / untraced_dispatch_s);
    }
}

fn set_span_self_times(m: &mut Measured, spans: &WallSpans) {
    let self_s = spans.self_secs_by_name();
    for name in SPAN_NAMES {
        m.set(
            &format!("span.self_s.{name}"),
            self_s.get(name).copied().unwrap_or(0.0),
        );
    }
}

fn stress(
    opts: &Options,
    make: fn(u64) -> StressSpec,
    ledger: &mut Ledger,
    spans: &mut WallSpans,
    m: &mut Measured,
    lines: &mut Vec<String>,
) {
    let key = format!("{}/seed{}", opts.workload.name(), opts.seed);
    let mut timed = Timed::default();
    let mut first: Option<StressRun> = None;
    let mut build_s = Vec::new();
    let mut export_s = Vec::new();
    let mut oracle_finalize_s = Vec::new();
    timed.op_secs = closed_loop(opts.seconds, || {
        let start = Instant::now();
        let run = guarded(|| run_phased(make, opts.seed, false));
        let checked = run.as_ref().map_err(Clone::clone).map(|r| Checked {
            digest: stress_digest(r),
            violations: r.report.oracle_violations,
        });
        ledger.record(&key, checked);
        if let Ok(r) = run {
            timed.best.add(&stress_pieces(&r));
            timed.dispatch.push(r.dispatch.secs);
            let wall = r.marks[4].duration_since(r.marks[0]).as_secs_f64();
            timed.wall.push(wall);
            timed.op_ms.push(wall * 1e3);
            timed.events = r.counts.events;
            export_s.push(r.export.secs);
            build_s.push(r.build.secs);
            oracle_finalize_s.push(r.oracle_finalize_secs);
            first.get_or_insert(r);
        }
        let took = start.elapsed().as_secs_f64();
        for _ in 0..SETUP_REPS_PER_OP {
            if let Ok(setup) = guarded(|| phased::setup(make, opts.seed, false).setup.secs) {
                timed.setup.push(setup);
            }
            for _ in 0..REFERENCE_PER_SETUP {
                timed.reference.sample();
            }
        }
        took
    });
    lines.push(timed.describe());
    timed.end_to_end(m, false);
    let Some(first) = first else {
        return;
    };
    lines.push(format!("report {}", first.json));
    lines.push(format!(
        "link_bytes {:?}",
        FrameClass::ALL
            .iter()
            .map(|c| (c.name(), first.counts.link_bytes[c.index()]))
            .collect::<Vec<_>>()
    ));
    lines.push(format!("counts {:?}", first.counts));

    if !opts.trace {
        return;
    }
    set_counts(m, &first.counts);
    set_allocs(
        m,
        first.setup.alloc,
        first.dispatch.alloc,
        first.finalize.alloc,
        first.counts.events,
    );
    m.set("sim.trace_lines", 0.0);
    m.set("core.builder.build_s", median(&build_s));
    m.set(
        "core.builder.alloc_mb",
        first.build.alloc.bytes as f64 / (1 << 20) as f64,
    );
    m.set("core.oracle.finalize_s", median(&oracle_finalize_s));
    m.set("core.export_s", median(&export_s));
    m.set("core.export_bytes", first.json.len() as f64);

    // The traced run.
    let workload = spans.open("workload", None, Instant::now());
    match guarded(|| run_phased(make, opts.seed, true)) {
        Err(panic) => {
            ledger.record(&key, Err(panic));
        }
        Ok(run) => {
            ledger.record(
                &key,
                Ok(Checked {
                    digest: stress_digest(&run),
                    violations: run.report.oracle_violations,
                }),
            );
            let [t0, t1, t2, t3, t4] = run.marks;
            let run_span = spans.open("run", Some(workload), t0);
            spans.record("setup", run_span, t0, t1);
            let dispatch = spans.record("dispatch", run_span, t1, t2);
            spans.record("finalize", run_span, t2, t3);
            spans.record("export", run_span, t3, t4);
            spans.close(run_span, t4);

            let traced = run.traced.as_ref().expect("traced run has a profile");
            let mut h = Handlers::default();
            h.add(&traced.profile);
            for (k, v) in [
                ("deliver_s", h.deliver_s),
                ("timer_s", h.timer_s),
                ("script_s", h.script_s),
            ] {
                spans.annotate(dispatch, k, v);
            }
            h.set(m, run.dispatch.secs, median(&timed.dispatch));
            m.set("core.oracle.probe_s", traced.oracle_probe_secs);

            let tc = Instant::now();
            let codec = codec::codec_sample(&traced.sample);
            spans.record("codec", workload, tc, Instant::now());
            for class in FrameClass::ALL {
                m.set(
                    &format!("ipv6.decode_ns.{}", class.name()),
                    codec.decode_ns[class.index()],
                );
            }
            m.set("ipv6.encode_ns", codec.encode_ns);
            m.set("ipv6.decode_errors", codec.decode_errors as f64);
            if codec.mismatches > 0 {
                ledger.fail(
                    &key,
                    &format!("{} sampled frames re-encode differently", codec.mismatches),
                );
            }
            lines.push(format!(
                "codec sample: {} frames, {} decode errors, {} round-trip mismatches",
                traced.sample.len(),
                codec.decode_errors,
                codec.mismatches
            ));
        }
    }
    spans.close(workload, Instant::now());
    set_span_self_times(m, spans);
}

/// Totals of one campaign.
#[derive(Default)]
struct CampaignTotals {
    dispatch: f64,
    export: f64,
    events: u64,
    export_bytes: u64,
    trace_lines: u64,
    violations: u64,
    link_bytes: [u64; FRAME_CLASS_COUNT],
    mib: mobicast_sim::Counters,
    sg_high_water: u64,
    bindings_high_water: u64,
    /// Allocations of setup, `scenario::run` and report serialization.
    alloc: [AllocCount; 3],
    handlers: Handlers,
    /// The plan, then each scenario's `scenario::run`, serialization and
    /// exports.
    pieces: Vec<Piece>,
}

impl CampaignTotals {
    fn add(&mut self, r: &campaign::ScenarioRun) {
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        self.dispatch += secs(r.marks[0], r.marks[1]);
        self.export += secs(r.marks[2], r.marks[3]);
        for (i, kind) in [Kind::Dispatch, Kind::Finalize, Kind::Export]
            .into_iter()
            .enumerate()
        {
            self.pieces.push(Piece {
                kind,
                secs: secs(r.marks[i], r.marks[i + 1]),
                cpu_secs: r.cpu[i + 1] - r.cpu[i],
            });
        }
        self.events += r.events;
        self.export_bytes += r.export_bytes;
        self.trace_lines += r.trace_lines;
        self.violations += r.violations;
        for (sum, b) in self.link_bytes.iter_mut().zip(r.link_bytes) {
            *sum += b;
        }
        self.mib.merge(&r.mib);
        self.sg_high_water = self.sg_high_water.max(r.sg_high_water);
        self.bindings_high_water = self.bindings_high_water.max(r.bindings_high_water);
        self.alloc[1].add(r.run_alloc);
        self.alloc[2].add(r.finalize_alloc);
        if let Some(p) = &r.profile {
            self.handlers.add(p);
        }
    }

    /// The counts the program reports about itself, as [`LayerCounts`]
    /// (what `RunReport` does not expose stays 0).
    fn counts(&self) -> LayerCounts {
        LayerCounts {
            events: self.events,
            link_bytes: self.link_bytes,
            mld_reports_in: self.mib.get("mldInReports"),
            mld_queries_in: self.mib.get("mldInQueries"),
            pim_messages_in: self.mib.get("pimInMessages"),
            pim_oif_prunes: self.mib.get("pimOifPrunes"),
            pim_grafts_acked: self.mib.get("pimGraftsAcked"),
            sg_high_water: self.sg_high_water,
            bu_rx: self.mib.get("haBindingUpdatesRx"),
            tunnel_encaps: self.mib.get("tunnelEncaps"),
            tunnel_decaps: self.mib.get("tunnelDecaps"),
            bindings_high_water: self.bindings_high_water,
            frames_malformed: self.mib.get("framesMalformed"),
            ..LayerCounts::default()
        }
    }
}

/// One campaign: plan (setup), then every scenario. `on_scenario` sees
/// each scenario's key and outcome.
fn run_campaign(
    seed: u64,
    traced: bool,
    mut on_scenario: impl FnMut(&str, Result<&campaign::ScenarioRun, String>),
) -> (CampaignTotals, [Instant; 2]) {
    let cpu0 = host::cpu_secs();
    let t0 = Instant::now();
    let a0 = alloc::snapshot();
    let planned = campaign::plan_campaign(seed);
    let t1 = Instant::now();
    let mut totals = CampaignTotals::default();
    totals.alloc[0] = alloc::snapshot().since(a0);
    totals.pieces.push(Piece {
        kind: Kind::Setup,
        secs: t1.duration_since(t0).as_secs_f64(),
        cpu_secs: host::cpu_secs() - cpu0,
    });
    for p in &planned {
        match guarded(|| campaign::run_scenario(p, traced)) {
            Ok(r) => {
                totals.add(&r);
                on_scenario(&p.key, Ok(&r));
            }
            Err(panic) => on_scenario(&p.key, Err(panic)),
        }
    }
    (totals, [t0, t1])
}

fn chaos(
    opts: &Options,
    ledger: &mut Ledger,
    spans: &mut WallSpans,
    m: &mut Measured,
    lines: &mut Vec<String>,
) {
    let mut timed = Timed::default();
    let mut export_s = Vec::new();
    let mut first: Option<CampaignTotals> = None;
    timed.op_secs = closed_loop(opts.seconds, || {
        let mut op_ms = Vec::new();
        let mut setups = Vec::new();
        let (totals, [t0, _]) = run_campaign(opts.seed, false, |key, r| {
            let checked = r.map(|r| {
                op_ms.push(r.marks[3].duration_since(r.marks[0]).as_secs_f64() * 1e3);
                Checked {
                    digest: r.digest,
                    violations: r.violations,
                }
            });
            ledger.record(key, checked);
            // Plan generation takes well under a millisecond: sample it
            // between scenarios so that the samples spread over the run.
            if op_ms.len() % CAMPAIGN_SETUP_STRIDE == 0 {
                let t = Instant::now();
                if guarded(|| campaign::plan_campaign(opts.seed)).is_ok() {
                    setups.push(t.elapsed().as_secs_f64());
                }
                timed.reference.sample();
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        timed.setup.extend(setups);
        timed.best.add(&totals.pieces);
        timed.dispatch.push(totals.dispatch);
        timed.wall.push(wall);
        timed.events = totals.events;
        timed.op_ms.extend(op_ms);
        export_s.push(totals.export);
        first.get_or_insert(totals);
        wall
    });
    lines.push(timed.describe());
    timed.end_to_end(m, true);
    let Some(first) = first else {
        return;
    };
    let counts = first.counts();
    lines.push(format!(
        "campaign: {} scenarios, {} events, {} oracle violations, {} export bytes",
        timed.op_ms.len() / timed.wall.len().max(1),
        first.events,
        first.violations,
        first.export_bytes
    ));
    lines.push(format!(
        "link_bytes {:?}",
        FrameClass::ALL
            .iter()
            .map(|c| (c.name(), first.link_bytes[c.index()]))
            .collect::<Vec<_>>()
    ));
    lines.push(format!("counts {counts:?}"));
    if !opts.trace {
        return;
    }
    set_counts(m, &counts);
    set_allocs(
        m,
        first.alloc[0],
        first.alloc[1],
        first.alloc[2],
        first.events,
    );
    m.set("sim.trace_lines", first.trace_lines as f64);
    m.set("core.builder.build_s", 0.0);
    m.set("core.builder.alloc_mb", 0.0);
    m.set("core.oracle.finalize_s", 0.0);
    m.set("core.oracle.probe_s", 0.0);
    m.set("core.export_s", median(&export_s));
    m.set("core.export_bytes", first.export_bytes as f64);
    for class in FrameClass::ALL {
        m.set(&format!("ipv6.decode_ns.{}", class.name()), 0.0);
    }
    m.set("ipv6.encode_ns", 0.0);
    m.set("ipv6.decode_errors", 0.0);

    // The traced campaign: one span per scenario under the run span.
    let workload = spans.open("workload", None, Instant::now());
    let mut scenario_marks: Vec<[Instant; 4]> = Vec::new();
    let (totals, [t0, t1]) = run_campaign(opts.seed, true, |key, r| {
        let checked = r.map(|r| {
            scenario_marks.push(r.marks);
            Checked {
                digest: r.digest,
                violations: r.violations,
            }
        });
        ledger.record(key, checked);
    });
    let end = scenario_marks.last().map_or(t1, |marks| marks[3]);
    let run_span = spans.open("run", Some(workload), t0);
    spans.record("setup", run_span, t0, t1);
    for [a, b, c, d] in &scenario_marks {
        let s = spans.open("scenario", Some(run_span), *a);
        spans.record("dispatch", s, *a, *b);
        spans.record("finalize", s, *b, *c);
        spans.record("export", s, *c, *d);
        spans.close(s, *d);
    }
    spans.close(run_span, end);
    spans.close(workload, Instant::now());
    m.set("sim.events_scheduled", totals.handlers.scheduled as f64);
    m.set(
        "sim.queue_high_water",
        totals.handlers.queue_high_water as f64,
    );
    totals
        .handlers
        .set(m, totals.dispatch, median(&timed.dispatch));
    set_span_self_times(m, spans);
}
