//! Scenario configuration and execution: the reference (Figure-1) network
//! with the paper's hosts, a delivery policy, timer profiles, a mobility
//! script, and a CBR multicast stream — run to completion and analyzed.
//!
//! Configurations are constructed through [`ScenarioBuilder`]
//! ([`ScenarioConfig::builder`]): the builder owns the defaults, the
//! fluent setters, and the validation ([`ScenarioBuilder::try_build`])
//! that rejects inconsistent knob combinations before a run starts.

use crate::analysis::{analyze, RunReport};
use crate::builder::{apply_fault_plan, build, BuiltNetwork, HostSpec, NetworkSpec};
use crate::host_node::{HostConfig, HostNode, SenderApp};
use crate::oracle::{FinalizeParams, Oracle};
use crate::router_node::{ResourceBudget, RouterConfig, RouterNode};
use crate::strategy::Policy;
use mobicast_ipv6::addr::GroupAddr;
use mobicast_mld::MldConfig;
use mobicast_net::{ExecutorConfig, FaultPlan, FrameClass};
use mobicast_pimdm::PimConfig;
use mobicast_sim::{
    rng::sample_exponential, RingBufferTracer, RngFactory, SimDuration, SimProfile, SimTime, Tracer,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The hosts of the paper's Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PaperHost {
    /// Sender S (home: Link 1).
    S,
    /// Receiver 1 (home: Link 1).
    R1,
    /// Receiver 2 (home: Link 2).
    R2,
    /// Receiver 3 (home: Link 4).
    R3,
}

impl PaperHost {
    pub const ALL: [PaperHost; 4] = [PaperHost::S, PaperHost::R1, PaperHost::R2, PaperHost::R3];

    /// Home link (0-indexed; the paper's Link n is index n-1).
    pub fn home_link_index(self) -> usize {
        match self {
            PaperHost::S | PaperHost::R1 => 0,
            PaperHost::R2 => 1,
            PaperHost::R3 => 3,
        }
    }
}

/// One scripted link change: at `at`, `host` moves to the paper's
/// `to_link` (1-based, as in the figures).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Move {
    pub at_secs: f64,
    pub host: PaperHost,
    pub to_link: usize,
}

/// Full configuration of a reference-topology scenario.
///
/// `#[non_exhaustive]`: construct through [`ScenarioConfig::builder`]
/// (struct literals would turn every added knob into a breaking change).
/// Cloning an existing config and mutating fields remains fine.
#[derive(Clone)]
#[non_exhaustive]
pub struct ScenarioConfig {
    pub seed: u64,
    pub duration: SimDuration,
    /// The multicast delivery policy (one of [`Policy::all`]).
    pub policy: Policy,
    /// The paper's §4.4 knob.
    pub mld: MldConfig,
    pub pim: PimConfig,
    /// Unsolicited Reports after moving (paper's recommendation).
    pub unsolicited_reports: bool,
    /// CBR source parameters.
    pub data_interval: SimDuration,
    pub payload_size: usize,
    pub traffic_start: SimTime,
    pub moves: Vec<Move>,
    /// Additional mobile receivers homed on Link 4 that follow R3's moves
    /// (used to measure the per-receiver unicast duplication of the tunnel
    /// approaches, paper §4.3.2).
    pub extra_receivers: usize,
    /// Fault schedule (loss, jitter, link flaps, router crashes); the
    /// default injects nothing.
    pub fault: FaultPlan,
    /// Run the network-wide invariant oracle (on by default; every run is
    /// checked for forwarding loops, persistent duplicates, stale state,
    /// binding staleness and unbounded encapsulation).
    pub oracle: bool,
    /// Reconvergence SLO bound in seconds: after the last scheduled
    /// disturbance clears, delivery must return to steady state within
    /// this long. Judged by the oracle whenever the run has a disturbance
    /// with a recovery point (see `OracleSummary::reconverge_ok`).
    pub reconverge_slo_secs: f64,
    /// Control-plane resource budget applied to every router (state-table
    /// caps, shed policy, ingress rate limit). Default: unbounded — no
    /// admission control at all.
    pub budget: ResourceBudget,
    /// Protected-flow delivery floor: during a signaling storm, receivers
    /// subscribed *before* the storm must keep at least this fraction of
    /// the stream (checked by the oracle). `None` disables the check.
    pub protected_floor: Option<f64>,
    /// Optional tracer (None = silent). Mutually exclusive with
    /// `trace_capture` — the builder rejects setting both.
    pub tracer: Option<Tracer>,
    /// Scenario label used in the run-summary line and trace file names.
    /// Borrowed for the common static labels; owned for generated
    /// (per-seed) scenario names.
    pub name: Cow<'static, str>,
    /// Capture typed trace events into a bounded ring buffer of this
    /// capacity and return them as `ScenarioResult.trace_jsonl`.
    pub trace_capture: Option<usize>,
    /// How the event loop executes (sequential, or with the windowed shard
    /// analysis). Never changes what the run produces. Validated by the
    /// builder.
    pub executor: ExecutorConfig,
    /// Profile the event loop (wall-clock; see `ScenarioResult.profile`).
    pub profile: bool,
    /// Print the one-line run summary to stderr when the run finishes.
    pub summary: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            duration: SimDuration::from_secs(600),
            policy: Policy::LOCAL,
            mld: MldConfig::default(),
            pim: PimConfig::default(),
            unsolicited_reports: true,
            data_interval: SimDuration::from_millis(500),
            payload_size: 512,
            traffic_start: SimTime::from_secs(5),
            moves: Vec::new(),
            extra_receivers: 0,
            fault: FaultPlan::default(),
            oracle: true,
            reconverge_slo_secs: 60.0,
            budget: ResourceBudget::default(),
            protected_floor: None,
            tracer: None,
            name: Cow::Borrowed("scenario"),
            trace_capture: None,
            executor: ExecutorConfig::sequential(),
            profile: false,
            summary: false,
        }
    }
}

impl ScenarioConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }
}

impl fmt::Debug for ScenarioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Tracers hold sinks, not data — their presence is the only fact
        // worth printing.
        f.debug_struct("ScenarioConfig")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("duration", &self.duration)
            .field("policy", &self.policy)
            .field("unsolicited_reports", &self.unsolicited_reports)
            .field("data_interval", &self.data_interval)
            .field("payload_size", &self.payload_size)
            .field("moves", &self.moves)
            .field("extra_receivers", &self.extra_receivers)
            .field("oracle", &self.oracle)
            .field("tracer", &self.tracer.is_some())
            .field("trace_capture", &self.trace_capture)
            .field("profile", &self.profile)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

/// A [`ScenarioConfig`] that failed validation, with the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioBuildError(String);

impl fmt::Display for ScenarioBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioBuildError {}

/// Fluent, validating constructor for [`ScenarioConfig`].
///
/// Every setter returns `self`; [`ScenarioBuilder::build`] validates the
/// combination (panicking with the reason) and [`try_build`] returns it
/// as an error instead. Invariants enforced:
///
/// * `moves` are sorted by time and target the paper's links 1–6;
/// * `trace_capture` and `tracer` are mutually exclusive (an explicit
///   tracer would otherwise silently swallow the capture request);
/// * MLD/PIM timer profiles are internally consistent;
/// * the data payload fits its 16-byte header.
///
/// [`try_build`]: ScenarioBuilder::try_build
#[derive(Clone, Default)]
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioBuilder {
    pub fn new() -> Self {
        ScenarioBuilder {
            cfg: ScenarioConfig::default(),
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.cfg.duration = duration;
        self
    }

    /// Execute with this executor configuration (validated at build).
    pub fn executor(mut self, executor: ExecutorConfig) -> Self {
        self.cfg.executor = executor;
        self
    }

    pub fn duration_secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Select the delivery policy (default: [`Policy::LOCAL`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.cfg.policy = policy;
        self
    }

    pub fn mld(mut self, mld: MldConfig) -> Self {
        self.cfg.mld = mld;
        self
    }

    pub fn pim(mut self, pim: PimConfig) -> Self {
        self.cfg.pim = pim;
        self
    }

    pub fn unsolicited_reports(mut self, on: bool) -> Self {
        self.cfg.unsolicited_reports = on;
        self
    }

    pub fn data_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.data_interval = interval;
        self
    }

    pub fn payload_size(mut self, bytes: usize) -> Self {
        self.cfg.payload_size = bytes;
        self
    }

    pub fn traffic_start(mut self, at: SimTime) -> Self {
        self.cfg.traffic_start = at;
        self
    }

    /// Replace the whole mobility script.
    pub fn moves(mut self, moves: Vec<Move>) -> Self {
        self.cfg.moves = moves;
        self
    }

    /// Append one scripted move (`to_link` is the paper's 1-based number).
    pub fn move_at(mut self, at_secs: f64, host: PaperHost, to_link: usize) -> Self {
        self.cfg.moves.push(Move {
            at_secs,
            host,
            to_link,
        });
        self
    }

    pub fn extra_receivers(mut self, n: usize) -> Self {
        self.cfg.extra_receivers = n;
        self
    }

    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    pub fn oracle(mut self, on: bool) -> Self {
        self.cfg.oracle = on;
        self
    }

    /// Tighten or relax the reconvergence SLO bound (default 60 s).
    pub fn reconverge_slo_secs(mut self, secs: f64) -> Self {
        self.cfg.reconverge_slo_secs = secs;
        self
    }

    /// Apply a control-plane resource budget to every router (default:
    /// unbounded).
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Demand that pre-storm receivers keep at least this delivery
    /// fraction during a signaling storm (oracle-checked).
    pub fn protected_floor(mut self, floor: f64) -> Self {
        self.cfg.protected_floor = Some(floor);
        self
    }

    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.cfg.tracer = Some(tracer);
        self
    }

    /// Label the scenario (static or generated — see
    /// [`ScenarioConfig::name`]).
    pub fn name(mut self, name: impl Into<Cow<'static, str>>) -> Self {
        self.cfg.name = name.into();
        self
    }

    pub fn trace_capture(mut self, capacity: usize) -> Self {
        self.cfg.trace_capture = Some(capacity);
        self
    }

    pub fn profile(mut self, on: bool) -> Self {
        self.cfg.profile = on;
        self
    }

    pub fn summary(mut self, on: bool) -> Self {
        self.cfg.summary = on;
        self
    }

    /// Validate and hand out the configuration.
    pub fn try_build(self) -> Result<ScenarioConfig, ScenarioBuildError> {
        let cfg = self.cfg;
        if let Err(e) = cfg.executor.validate() {
            return Err(ScenarioBuildError(format!("executor: {e}")));
        }
        if let Err(e) = cfg.mld.validate() {
            return Err(ScenarioBuildError(format!("MLD profile: {e}")));
        }
        if let Err(e) = cfg.pim.validate() {
            return Err(ScenarioBuildError(format!("PIM profile: {e}")));
        }
        if cfg.payload_size < 16 {
            return Err(ScenarioBuildError(format!(
                "payload_size {} smaller than the 16-byte data header",
                cfg.payload_size
            )));
        }
        for w in cfg.moves.windows(2) {
            if w[1].at_secs < w[0].at_secs {
                return Err(ScenarioBuildError(format!(
                    "moves not sorted by time: {:.3}s after {:.3}s",
                    w[1].at_secs, w[0].at_secs
                )));
            }
        }
        for mv in &cfg.moves {
            if !(1..=6).contains(&mv.to_link) {
                return Err(ScenarioBuildError(format!(
                    "move target link {} outside the reference topology (1-6)",
                    mv.to_link
                )));
            }
        }
        // NaN must be rejected too, hence the non-negated comparison.
        if cfg.reconverge_slo_secs <= 0.0 || cfg.reconverge_slo_secs.is_nan() {
            return Err(ScenarioBuildError(format!(
                "reconverge_slo_secs must be positive, got {}",
                cfg.reconverge_slo_secs
            )));
        }
        if let Err(e) = cfg.budget.validate() {
            return Err(ScenarioBuildError(format!("resource budget: {e}")));
        }
        if let Some(floor) = cfg.protected_floor {
            if !(floor > 0.0 && floor <= 1.0) {
                return Err(ScenarioBuildError(format!(
                    "protected_floor must be in (0, 1], got {floor}"
                )));
            }
            if cfg.fault.storm.is_none() {
                return Err(ScenarioBuildError(
                    "protected_floor set but the fault plan has no storm to \
                     protect against — add one or drop the floor"
                        .into(),
                ));
            }
        }
        if cfg.trace_capture.is_some() && cfg.tracer.is_some() {
            return Err(ScenarioBuildError(
                "trace_capture and tracer are mutually exclusive: an explicit \
                 tracer consumes the event stream, so the capture ring would \
                 stay empty — drop one of the two"
                    .into(),
            ));
        }
        Ok(cfg)
    }

    /// As [`try_build`](Self::try_build), panicking on invalid input —
    /// the right choice for experiment code with hardcoded knobs.
    pub fn build(self) -> ScenarioConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Result of one scenario run.
pub struct ScenarioResult {
    pub report: RunReport,
    /// Packets received (first copies) per paper host.
    pub received: BTreeMap<&'static str, u64>,
    /// Duplicates per paper host.
    pub duplicates: BTreeMap<&'static str, u64>,
    /// Maximum number of (S,G) entries across routers (state load).
    pub max_router_sg_entries: usize,
    /// Home-agent processing totals across routers.
    pub ha_binding_updates: u64,
    pub ha_packets_tunneled: u64,
    /// Final multicast tree: links carrying useful data in the last tenth
    /// of the run.
    pub sent: u64,
    /// Deterministic event count of the run (scheduler dispatches).
    pub events_executed: u64,
    /// Wall-clock profile (only with `ScenarioConfig.profile`; never folded
    /// into the deterministic `report`).
    pub profile: Option<SimProfile>,
    /// Versioned JSONL trace export (only with `ScenarioConfig.trace_capture`).
    pub trace_jsonl: Option<String>,
    /// Trace events evicted from the bounded ring buffer.
    pub trace_dropped: u64,
}

/// The multicast group used by all reference scenarios.
pub fn group() -> GroupAddr {
    GroupAddr::test_group(1)
}

/// Run a reference-topology scenario to completion.
pub fn run(cfg: &ScenarioConfig) -> ScenarioResult {
    run_with_recorder(cfg).0
}

/// As [`run`], additionally handing back the raw recorder (provenance
/// chains, deliveries, moves) for post-run tools like the packet-journey
/// explainer.
pub fn run_with_recorder(cfg: &ScenarioConfig) -> (ScenarioResult, crate::recorder::Recorder) {
    cfg.mld.validate().expect("invalid MLD profile");
    cfg.pim.validate().expect("invalid PIM profile");
    let spec = NetworkSpec::reference();
    let g = group();

    let host_cfg = HostConfig {
        policy: cfg.policy,
        unsolicited_reports: cfg.unsolicited_reports,
        mld: cfg.mld,
    };
    let sender_app = SenderApp {
        group: g,
        interval: cfg.data_interval,
        payload_size: cfg.payload_size,
        start: cfg.traffic_start,
        stop: SimTime::ZERO + cfg.duration,
    };
    let mut hosts: Vec<HostSpec> = PaperHost::ALL
        .iter()
        .map(|h| HostSpec {
            home_link: h.home_link_index(),
            cfg: host_cfg,
            sender: (*h == PaperHost::S).then_some(sender_app),
            receiver_group: (*h != PaperHost::S).then_some(g),
        })
        .collect();
    for _ in 0..cfg.extra_receivers {
        hosts.push(HostSpec {
            home_link: PaperHost::R3.home_link_index(),
            cfg: host_cfg,
            sender: None,
            receiver_group: Some(g),
        });
    }
    // Dedicated storm hosts: stationary subscription flappers homed with
    // R3. `receiver_group: None` keeps them out of all delivery metrics.
    for _ in 0..storm_host_count(cfg) {
        hosts.push(HostSpec {
            home_link: PaperHost::R3.home_link_index(),
            cfg: host_cfg,
            sender: None,
            receiver_group: None,
        });
    }

    let router_cfg = RouterConfig {
        mld: cfg.mld,
        pim: cfg.pim,
        budget: cfg.budget,
        ..RouterConfig::default()
    };
    let mut ring: Option<RingBufferTracer> = None;
    let tracer = match (&cfg.tracer, cfg.trace_capture) {
        (Some(t), _) => t.clone(),
        (None, Some(capacity)) => {
            let (t, r) = RingBufferTracer::new(capacity);
            ring = Some(r);
            t
        }
        (None, None) => Tracer::null(),
    };
    let mut net = build(&spec, &hosts, router_cfg, cfg.seed, tracer);
    if cfg.profile {
        net.world.enable_profiling();
    }
    apply_fault_plan(&mut net, &spec, router_cfg, &cfg.fault, cfg.seed);

    // Script the moves. Extra receivers shadow R3's movements (storm
    // hosts, appended after them, stay put).
    for mv in &cfg.moves {
        let host = net.hosts[PaperHost::ALL.iter().position(|h| *h == mv.host).unwrap()];
        let link = net.links[mv.to_link - 1];
        let at = SimTime::from_nanos((mv.at_secs * 1e9) as u64);
        net.world.at(at, move |w| {
            w.move_iface(host, 0, link);
        });
        if mv.host == PaperHost::R3 {
            for extra in net
                .hosts
                .iter()
                .skip(PaperHost::ALL.len())
                .take(cfg.extra_receivers)
                .copied()
            {
                net.world.at(at, move |w| {
                    w.move_iface(extra, 0, link);
                });
            }
        }
    }

    schedule_storm(&mut net, cfg, g);
    schedule_gauge_sampler(&mut net, cfg);

    let oracle = cfg.oracle.then(|| {
        Oracle::attach(
            &mut net.world,
            net.routers.clone(),
            SimTime::ZERO + cfg.duration,
        )
    });

    let plan = match cfg.executor.plan(|shards| net.shard_plan(shards)) {
        Ok(plan) => plan,
        Err(e) => panic!("scenario {}: invalid executor config: {e}", cfg.name),
    };
    net.world.run(SimTime::ZERO + cfg.duration, &plan);
    let profile = net.world.take_profile();
    let (mut result, rec) = finish_with(cfg, net, oracle);
    result.profile = profile;
    if let Some(ring) = ring {
        result.trace_dropped = ring.dropped();
        result.trace_jsonl = Some(ring.export_jsonl());
    }
    if cfg.summary {
        let verdict = if !result.report.oracle.enabled {
            "off"
        } else if result.report.oracle.violations.is_empty() {
            "clean"
        } else {
            "VIOLATIONS"
        };
        eprintln!(
            "[run] scenario={} approach={} seed={} dur={:.0}s events={} sent={} oracle={}",
            cfg.name,
            cfg.policy.name(),
            cfg.seed,
            cfg.duration.as_secs_f64(),
            result.events_executed,
            result.sent,
            verdict,
        );
    }
    (result, rec)
}

/// Sim-time interval between observability gauge samples.
const GAUGE_SAMPLE_SECS: u64 = 5;

/// Shared state of the gauge sampler ticks.
struct SamplerCtx {
    recorder: crate::recorder::SharedRecorder,
    routers: Vec<mobicast_net::NodeId>,
    links: Vec<mobicast_net::LinkId>,
    end: SimTime,
}

/// Kick off the observability gauge sampler: every [`GAUGE_SAMPLE_SECS`]
/// of sim time a script event snapshots event-queue depth, per-router
/// control-plane table occupancy (MLD listeners, PIM (S,G) entries,
/// binding cache), token-bucket levels, cumulative per-link data bytes
/// and the running overload-shed total into the recorder's timeline.
/// Each tick arms the next one, so only a single sampler event is ever
/// pending (queue-depth readings stay honest). Sampling is read-only
/// with respect to protocol state: the run's protocol trace and metrics
/// are unchanged by it.
fn schedule_gauge_sampler(net: &mut BuiltNetwork, cfg: &ScenarioConfig) {
    let ctx = std::rc::Rc::new(SamplerCtx {
        recorder: net.recorder.clone(),
        routers: net.routers.clone(),
        links: net.links.clone(),
        end: SimTime::ZERO + cfg.duration,
    });
    let first = SimTime::from_secs(GAUGE_SAMPLE_SECS);
    if first <= ctx.end {
        arm_sampler_tick(&mut net.world, first, ctx);
    }
}

fn arm_sampler_tick(world: &mut mobicast_net::World, at: SimTime, ctx: std::rc::Rc<SamplerCtx>) {
    world.at(at, move |w| {
        sample_gauges(w, &ctx);
        let next = at + SimDuration::from_secs(GAUGE_SAMPLE_SECS);
        if next <= ctx.end {
            arm_sampler_tick(w, next, ctx);
        }
    });
}

fn sample_gauges(w: &mut mobicast_net::World, ctx: &SamplerCtx) {
    let now = w.now();
    let rec = &ctx.recorder;
    rec.sample_at("world.queue_depth", now, w.queue_len() as f64);
    for (i, r) in ctx.routers.iter().enumerate() {
        let label = char::from(b'A' + i as u8);
        let Some(router) = w.behavior::<RouterNode>(*r) else {
            continue;
        };
        let mld = router.mld_listener_total() as f64;
        let sg = router.pim().entry_count() as f64;
        let bindings = router.home_agent().binding_count() as f64;
        let tokens = router.bucket_available();
        rec.sample_at(&format!("router.{label}.mld_listeners"), now, mld);
        rec.sample_at(&format!("router.{label}.pim_sg"), now, sg);
        rec.sample_at(&format!("router.{label}.bindings"), now, bindings);
        if let Some(tk) = tokens {
            rec.sample_at(&format!("router.{label}.bucket_tokens"), now, f64::from(tk));
        }
    }
    for (i, l) in ctx.links.iter().enumerate() {
        let bytes: u64 = w.link_stats(*l).bytes.iter().sum();
        rec.sample_at(&format!("link.{}.bytes", i + 1), now, bytes as f64);
    }
    let shed = rec.with(|r| r.counters.sum_prefix("overload."));
    rec.sample_at("overload.shed_total", now, shed as f64);
}

/// Dedicated storm hosts a configuration adds (deterministic in the
/// config alone, so result accounting can exclude them symmetrically).
fn storm_host_count(cfg: &ScenarioConfig) -> usize {
    let storm = &cfg.fault.storm;
    if storm.is_none() || storm.flap_rate == 0.0 {
        0
    } else {
        storm.flap_hosts as usize
    }
}

/// Base of the throwaway group range zapping churns through (distinct
/// from the data group, `GroupAddr::test_group(1)`).
const ZAP_GROUP_BASE: u16 = 100;

/// Schedule the signaling storm described by `cfg.fault.storm`: zapping
/// churn (receivers joining/leaving throwaway groups), Binding Update
/// floods, and subscription flapping by the dedicated storm hosts. All
/// event times come from seeded, labelled RNG streams drawn *now* (before
/// the run starts), so a given seed reproduces the storm exactly and a
/// disabled storm draws nothing at all.
fn schedule_storm(net: &mut BuiltNetwork, cfg: &ScenarioConfig, data_group: GroupAddr) {
    let storm = cfg.fault.storm;
    if storm.is_none() {
        return;
    }
    let rng = RngFactory::new(cfg.seed).subfactory("storm");
    let end = storm.end_secs.min(cfg.duration.as_secs_f64());
    let at_time = |secs: f64| SimTime::from_nanos((secs * 1e9) as u64);
    let storm_n = storm_host_count(cfg);
    // Zap and BU targets: every mobile (non-sender) receiver, extras
    // included, but never the storm hosts themselves.
    let receivers: Vec<_> = net.hosts[1..net.hosts.len() - storm_n].to_vec();

    if storm.zap_rate > 0.0 && !receivers.is_empty() {
        let mut zap = rng.stream("zap");
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut zap, 1.0 / storm.zap_rate);
            if t >= end {
                break;
            }
            let host = receivers[zap.random_range(0..receivers.len())];
            let group = GroupAddr::test_group(
                ZAP_GROUP_BASE + zap.random_range(0..storm.zap_groups) as u16,
            );
            let hold = 1.0 + sample_exponential(&mut zap, 3.0);
            net.world.at(at_time(t), move |w| {
                w.with_node(host, |b, ctx| {
                    if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                        h.app_subscribe(ctx, group);
                    }
                });
            });
            net.world.at(at_time((t + hold).min(end)), move |w| {
                w.with_node(host, |b, ctx| {
                    if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                        h.app_unsubscribe(ctx, group);
                    }
                });
            });
        }
    }

    if storm.bu_rate > 0.0 && !receivers.is_empty() {
        let mut bu = rng.stream("bu");
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut bu, 1.0 / storm.bu_rate);
            if t >= end {
                break;
            }
            let host = receivers[bu.random_range(0..receivers.len())];
            net.world.at(at_time(t), move |w| {
                w.with_node(host, |b, ctx| {
                    if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                        h.app_rebind(ctx);
                    }
                });
            });
        }
    }

    if storm.flap_rate > 0.0 && storm_n > 0 {
        let mut flap = rng.stream("flap");
        let flappers: Vec<_> = net.hosts[net.hosts.len() - storm_n..].to_vec();
        let mut joined = vec![false; flappers.len()];
        let mut t = storm.start_secs;
        loop {
            t += sample_exponential(&mut flap, 1.0 / storm.flap_rate);
            if t >= end {
                break;
            }
            let idx = flap.random_range(0..flappers.len());
            let host = flappers[idx];
            let join = !joined[idx];
            joined[idx] = join;
            net.world.at(at_time(t), move |w| {
                w.with_node(host, |b, ctx| {
                    if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                        if join {
                            h.app_subscribe(ctx, data_group);
                        } else {
                            h.app_unsubscribe(ctx, data_group);
                        }
                    }
                });
            });
        }
        // Leave no storm subscription behind: the reconvergence window
        // after `end` must measure recovery, not residual churn.
        for (idx, host) in flappers.iter().copied().enumerate() {
            if joined[idx] {
                net.world.at(at_time(end), move |w| {
                    w.with_node(host, |b, ctx| {
                        if let Some(h) = b.as_any_mut().downcast_mut::<HostNode>() {
                            h.app_unsubscribe(ctx, data_group);
                        }
                    });
                });
            }
        }
    }
}

/// Reconvergence margin demanded after the last scheduled disturbance
/// before the oracle judges duplicates as persistent.
const SETTLE_MARGIN_SECS: f64 = 30.0;
/// Time granted after traffic start for the initial flood's asserts.
const ASSERT_SETTLE_SECS: f64 = 15.0;

/// The instant after which the run must be disturbance-free: every move,
/// fault window, flap and crash has cleared, plus a margin.
fn settle_time(cfg: &ScenarioConfig) -> SimTime {
    let mut s = cfg.traffic_start.as_secs_f64() + ASSERT_SETTLE_SECS;
    for mv in &cfg.moves {
        s = s.max(mv.at_secs + SETTLE_MARGIN_SECS);
    }
    if let Some(bound) = cfg.fault.recovery_bound_secs() {
        s = s.max(bound + SETTLE_MARGIN_SECS);
    }
    SimTime::from_nanos((s * 1e9) as u64)
}

/// When the run's last scheduled disturbance clears — the instant the
/// reconvergence SLO measures from. `None` when there is nothing to
/// recover from, or when a run-long (unwindowed) fault leaves no recovery
/// point to judge.
fn disturbance_end(cfg: &ScenarioConfig) -> Option<SimTime> {
    let mut latest: Option<f64> = None;
    for mv in &cfg.moves {
        latest = Some(latest.unwrap_or(0.0).max(mv.at_secs));
    }
    if !cfg.fault.is_none() {
        match cfg.fault.recovery_bound_secs() {
            Some(bound) => latest = Some(latest.unwrap_or(0.0).max(bound)),
            None => return None,
        }
    }
    latest.map(|s| SimTime::from_nanos((s * 1e9) as u64))
}

/// Collect results from a finished network.
pub fn finish(cfg: &ScenarioConfig, net: BuiltNetwork) -> ScenarioResult {
    finish_with(cfg, net, None).0
}

/// As [`finish`], folding in the run's oracle verdict when one was attached.
/// Also hands back the taken recorder for provenance-based tooling.
fn finish_with(
    cfg: &ScenarioConfig,
    net: BuiltNetwork,
    oracle: Option<std::rc::Rc<Oracle>>,
) -> (ScenarioResult, crate::recorder::Recorder) {
    let BuiltNetwork {
        world,
        routers,
        hosts,
        links,
        directory,
        recorder,
        ..
    } = net;

    let mut rec = recorder.take();
    let analysis = analyze(&rec, &directory.routing, links.len());

    // Close out the causal timeline at the run horizon (spans still open
    // are flagged `unfinished`) and fold closed durations into the
    // per-phase digests. Everything here is sim-time-derived, so the
    // block is byte-identical across repeated and parallel runs.
    let horizon = SimTime::ZERO + cfg.duration;
    rec.spans.close_open(horizon);
    let observability = crate::observability::finalize_observability(
        rec.spans.clone(),
        rec.timeline.clone(),
        horizon,
    );

    // The oracle's post-run pass: loop-freedom, persistent duplicates,
    // and the leave-delay bound, judged against the recorded ground truth.
    let storm_n = storm_host_count(cfg);
    let tracked_hosts = hosts.len() - storm_n;
    let oracle_summary = match oracle {
        Some(o) => {
            let receivers: Vec<_> = hosts
                .iter()
                .enumerate()
                .take(tracked_hosts) // storm hosts are not receivers
                .skip(1) // index 0 is the sender S
                .map(|(i, id)| {
                    let home = if i < PaperHost::ALL.len() {
                        PaperHost::ALL[i].home_link_index()
                    } else {
                        PaperHost::R3.home_link_index()
                    };
                    (*id, links[home])
                })
                .collect();
            o.finalize(
                &rec,
                &FinalizeParams {
                    settle: settle_time(cfg),
                    t_mli: cfg.mld.multicast_listener_interval(),
                    receivers,
                    end: SimTime::ZERO + cfg.duration,
                    disturbance_end: disturbance_end(cfg),
                    reconverge_bound: SimDuration::from_nanos(
                        (cfg.reconverge_slo_secs * 1e9) as u64,
                    ),
                    protected_floor: cfg.protected_floor,
                    protect_window: cfg.protected_floor.map(|_| {
                        // Builder validation ties the floor to a storm.
                        let storm = &cfg.fault.storm;
                        let until = storm.end_secs.min(cfg.duration.as_secs_f64());
                        (
                            SimTime::from_nanos((storm.start_secs * 1e9) as u64),
                            SimTime::from_nanos((until * 1e9) as u64),
                        )
                    }),
                },
            )
        }
        None => Default::default(),
    };

    let mut counters = rec.counters.clone();
    counters.merge(world.counters());
    let mut series = rec.series.clone();
    series.record("seed", cfg.seed as f64);

    let names = ["S", "R1", "R2", "R3"];
    let mut received = BTreeMap::new();
    let mut duplicates = BTreeMap::new();
    for (i, id) in hosts
        .iter()
        .enumerate()
        .take(tracked_hosts)
        .skip(names.len())
    {
        if let Some(h) = world.behavior::<HostNode>(*id) {
            counters.add("extra_receivers.received", h.received_count());
            let _ = i;
        }
    }
    for (name, id) in names.iter().zip(&hosts) {
        if let Some(h) = world.behavior::<HostNode>(*id) {
            received.insert(*name, h.received_count());
            duplicates.insert(*name, h.duplicate_count());
            counters.add(
                &format!("host.{name}.binding_updates"),
                h.mobile().binding_updates_sent(),
            );
        }
    }

    let mut max_router_sg_entries = 0;
    let mut ha_binding_updates = 0;
    let mut ha_packets_tunneled = 0;
    for r in &routers {
        if let Some(router) = world.behavior::<RouterNode>(*r) {
            max_router_sg_entries = max_router_sg_entries.max(router.max_sg_entries);
            ha_binding_updates += router.home_agent().binding_updates_processed;
            ha_packets_tunneled += router.home_agent().packets_tunneled;
        }
    }

    // Per-node MIB snapshot: counters the behaviors keep themselves merged
    // with world-attributed ones (fault drops), under stable labels.
    let mut node_stats = BTreeMap::new();
    for (i, r) in routers.iter().enumerate() {
        let label = format!("router.{}", char::from(b'A' + i as u8));
        let mut c = world.node_counters(*r).clone();
        if let Some(router) = world.behavior::<RouterNode>(*r) {
            c.merge(router.mib());
        }
        node_stats.insert(label, c);
    }
    for (i, id) in hosts.iter().enumerate() {
        let label = if i < names.len() {
            format!("host.{}", names[i])
        } else if i < tracked_hosts {
            format!("host.extra{}", i - names.len())
        } else {
            format!("host.storm{}", i - tracked_hosts)
        };
        let mut c = world.node_counters(*id).clone();
        if let Some(h) = world.behavior::<HostNode>(*id) {
            c.merge(h.mib());
        }
        node_stats.insert(label, c);
    }

    let link_bytes: Vec<BTreeMap<String, u64>> = links
        .iter()
        .map(|l| {
            let stats = world.link_stats(*l);
            FrameClass::ALL
                .iter()
                .map(|c| (c.name().to_string(), stats.bytes[c.index()]))
                .collect()
        })
        .collect();
    let link_drops: Vec<BTreeMap<String, u64>> = links
        .iter()
        .map(|l| {
            let stats = world.link_stats(*l);
            FrameClass::ALL
                .iter()
                .map(|c| (c.name().to_string(), stats.dropped_frames[c.index()]))
                .collect()
        })
        .collect();

    for d in &analysis.leave_delays {
        series.record("leave_delay", *d);
    }

    // Re-join recovery: for every move of a subscribed receiver, the time
    // until its first post-move data delivery — the end-to-end measure of
    // the soft-state recovery machinery (MLD robustness reports, PIM
    // grafts, binding-update retransmissions).
    for mv in rec.moves.iter().filter(|m| m.subscribed) {
        let first = rec
            .deliveries
            .iter()
            .filter(|d| d.host == mv.host && d.time >= mv.time)
            .map(|d| d.time)
            .min();
        if let Some(t) = first {
            series.record("rejoin_recovery", (t - mv.time).as_secs_f64());
        }
    }

    // Steady-state delivery after fault recovery: once every scheduled
    // fault has cleared (plus a reconvergence margin), each data packet
    // must reach every receiver. Unwindowed (run-long) faults have no
    // recovery point, so no steady-state claim is made for them.
    if !cfg.fault.is_none() {
        if let Some(bound) = cfg.fault.recovery_bound_secs() {
            const RECOVERY_MARGIN_SECS: f64 = 20.0;
            let cutoff = SimTime::from_nanos(((bound + RECOVERY_MARGIN_SECS) * 1e9) as u64);
            // Exclude the final second: those packets may still be in
            // flight when the run ends.
            let horizon = SimTime::ZERO + cfg.duration - SimDuration::from_secs(1);
            let steady: BTreeSet<u64> = rec
                .packets
                .iter()
                .filter(|p| p.sent_at >= cutoff && p.sent_at < horizon)
                .map(|p| p.pkt)
                .collect();
            let n_receivers = (tracked_hosts - 1) as u64;
            let expected = steady.len() as u64 * n_receivers;
            let observed = rec
                .deliveries
                .iter()
                .filter(|d| d.first && steady.contains(&d.pkt))
                .count() as u64;
            counters.add("steady.deliveries_expected", expected);
            counters.add("steady.deliveries_observed", observed);
            if expected > 0 {
                series.record("steady_delivery_ratio", observed as f64 / expected as f64);
            }
        }
    }

    let sent = analysis.packets_sent;
    let result = ScenarioResult {
        report: RunReport {
            analysis,
            counters,
            series,
            link_bytes,
            link_drops,
            oracle: oracle_summary,
            node_stats,
            observability,
        },
        received,
        duplicates,
        max_router_sg_entries,
        ha_binding_updates,
        ha_packets_tunneled,
        sent,
        events_executed: world.events_executed(),
        profile: None,
        trace_jsonl: None,
        trace_dropped: 0,
    };
    (result, rec)
}

/// Convenience: identify the paper's 1-based link numbers with link ids.
pub fn paper_link(n: usize) -> mobicast_net::LinkId {
    assert!((1..=6).contains(&n));
    mobicast_net::LinkId(n as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_net::{CorruptionModel, FaultWindow, LinkFault, LinkFlap, LossModel, RouterCrash};

    fn faulty_cfg(policy: Policy, fault: FaultPlan) -> ScenarioConfig {
        ScenarioConfig::builder()
            .duration_secs(150)
            .policy(policy)
            .move_at(30.0, PaperHost::R3, 6)
            .fault(fault)
            .build()
    }

    /// The PR's acceptance criterion: with 10 % i.i.d. loss on every link
    /// during [10 s, 60 s], all four Table-1 approaches recover to >= 99 %
    /// steady-state delivery once the loss window has cleared — the
    /// soft-state machinery (MLD robustness reports, PIM graft retries,
    /// BU retransmission) repairs whatever the loss broke.
    #[test]
    fn windowed_loss_recovers_to_full_steady_state() {
        for policy in Policy::PAPER {
            let plan = FaultPlan {
                link: LinkFault {
                    loss: LossModel::iid(0.10),
                    jitter: SimDuration::ZERO,
                    corruption: CorruptionModel::none(),
                },
                window: Some(FaultWindow {
                    start_secs: 10.0,
                    end_secs: 60.0,
                }),
                ..FaultPlan::default()
            };
            let r = run(&faulty_cfg(policy, plan));
            let ratio = r.report.mean("steady_delivery_ratio");
            assert!(
                ratio >= 0.99,
                "{}: steady-state delivery {ratio} < 0.99",
                policy.name()
            );
            // The loss window must actually have destroyed traffic.
            assert!(
                r.report.counters.get("faults.frames_dropped_loss") > 50,
                "{}: loss injection inactive",
                policy.name()
            );
            // The invariant oracle watched the whole run and found nothing.
            assert!(r.report.oracle.enabled);
            assert!(
                r.report.oracle.violations.is_empty(),
                "{}: oracle violations {:?}",
                policy.name(),
                r.report.oracle.violations
            );
        }
    }

    /// Drop-first-transmission test for PIM-DM Graft: Link 5 (between D
    /// and E) is down when R3 arrives on Link 6, so router E's first Graft
    /// toward D is destroyed. The graft-retry timer (3 s) must retransmit
    /// it once the link is back, and forwarding to R3 must resume.
    #[test]
    fn graft_drop_first_retransmission_resumes_forwarding() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 4, // 0-based: the paper's Link 5
                down_at_secs: 29.5,
                up_at_secs: 32.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::LOCAL, plan));
        // The first graft (and anything else on Link 5 in the window) died.
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // Forwarding resumed: R3 keeps receiving after the move.
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        // Recovery took at least one graft-retry period (the retry fired
        // after the link came back), but not a flood/prune epoch.
        let rejoin = r.report.mean("rejoin_recovery");
        assert!(
            (2.5..20.0).contains(&rejoin),
            "rejoin recovery {rejoin}s not in graft-retry range"
        );
        assert_eq!(r.report.counters.get("steady.deliveries_observed"), {
            r.report.counters.get("steady.deliveries_expected")
        });
    }

    /// Drop-first-transmission test for the Binding Update: R3 moves to
    /// Link 6 while Link 5 (its only path to the home agent D) is down, so
    /// the first BU is destroyed in transit. The 1 s-backoff retransmission
    /// must establish the binding once the link returns, after which the
    /// home agent tunnels the stream to R3 (bi-directional strategy).
    #[test]
    fn bu_drop_first_retransmission_restores_tunnel_delivery() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 4,
                down_at_secs: 29.5,
                up_at_secs: 32.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::BIDIRECTIONAL_TUNNEL, plan));
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // The BU was retransmitted at least once before getting through.
        assert!(
            r.report.counters.get("host.R3.binding_updates") >= 2,
            "no BU retransmission recorded"
        );
        // The binding was eventually accepted and the tunnel works.
        assert!(r.ha_binding_updates >= 1);
        assert!(r.ha_packets_tunneled > 0);
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
    }

    /// Router D crashes with full protocol-state loss and restarts blank.
    /// Its MLD querier and PIM machinery must rebuild membership and tree
    /// state from the wire alone, restoring delivery to the hosts behind it.
    #[test]
    fn router_crash_restart_rebuilds_soft_state() {
        let plan = FaultPlan {
            crashes: vec![RouterCrash {
                router: 3, // D: serves R3's home link (Link 4)
                crash_at_secs: 40.0,
                restart_at_secs: 50.0,
            }],
            ..FaultPlan::default()
        };
        let cfg = ScenarioConfig::builder()
            .duration_secs(150)
            .fault(plan)
            .build();
        let r = run(&cfg);
        assert_eq!(r.report.counters.get("faults.node_crashes"), 1);
        assert_eq!(r.report.counters.get("faults.node_restarts"), 1);
        // Data kept arriving at the dead router and died there.
        assert!(r.report.counters.get("faults.frames_dropped_node_crashed") > 0);
        // After restart + margin every packet reaches every receiver again.
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
        assert!(r.report.counters.get("steady.deliveries_expected") > 0);
        assert!(
            r.report.oracle.violations.is_empty(),
            "oracle violations {:?}",
            r.report.oracle.violations
        );
    }

    /// Drop-first-transmission test for the unsolicited MLD Report: R3's
    /// arrival link (the paper's Link 6) is down when it gets there, so
    /// the Report it sends on arrival is destroyed. RFC 2710's robustness
    /// retransmission (a second unsolicited Report one Unsolicited Report
    /// Interval, 10 s, later) must re-establish membership — far sooner
    /// than the 125 s general-Query interval would.
    #[test]
    fn mld_report_drop_first_retransmission_rejoins() {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: 5, // 0-based: the paper's Link 6, R3's arrival link
                down_at_secs: 29.5,
                up_at_secs: 31.5,
            }],
            ..FaultPlan::default()
        };
        let r = run(&faulty_cfg(Policy::LOCAL, plan));
        // The arrival-time Report (and the window's data) died on the
        // downed link.
        assert!(r.report.counters.get("faults.frames_dropped_link_down") > 0);
        // Membership came back via the retransmitted Report: recovery sits
        // in the unsolicited-retransmission range, nowhere near the 125 s
        // Query interval fallback.
        let rejoin = r.report.mean("rejoin_recovery");
        assert!(
            (5.0..30.0).contains(&rejoin),
            "rejoin recovery {rejoin}s not in unsolicited-report range"
        );
        assert!(r.received["R3"] > 100, "R3 got {}", r.received["R3"]);
        assert_eq!(
            r.report.counters.get("steady.deliveries_observed"),
            r.report.counters.get("steady.deliveries_expected")
        );
        assert!(
            r.report.oracle.violations.is_empty(),
            "oracle violations {:?}",
            r.report.oracle.violations
        );
    }

    /// Router crash in the middle of an active PIM-DM assert: routers B
    /// and C sit in parallel between Links 2 and 3, so the initial flood
    /// triggers an assert that C (higher address) wins. Crashing the
    /// assert *loser* B and restarting it blank makes it reflood onto the
    /// shared link — duplicating datagrams until the re-run assert elects
    /// C again. The oracle checks the duplicates are transient and the
    /// steady state returns to exactly-once delivery.
    #[test]
    fn crash_during_assert_reelects_winner_without_persistent_duplicates() {
        let crashed = ScenarioConfig::builder()
            .duration_secs(150)
            .fault(FaultPlan {
                crashes: vec![RouterCrash {
                    router: 1, // B: the assert loser on the shared link
                    crash_at_secs: 40.0,
                    restart_at_secs: 50.0,
                }],
                ..FaultPlan::default()
            })
            .build();
        let baseline = ScenarioConfig::builder().duration_secs(150).build();
        let rc = run(&crashed);
        let rb = run(&baseline);
        assert_eq!(rc.report.counters.get("faults.node_crashes"), 1);
        assert_eq!(rc.report.counters.get("faults.node_restarts"), 1);
        // The restart re-ran the assert election (extra Assert messages
        // beyond the baseline's initial exchange) ...
        assert!(
            rc.report.counters.get("pim.sent.assert") > rb.report.counters.get("pim.sent.assert"),
            "no assert re-election after restart"
        );
        // ... and the blank router's reflood duplicated datagrams on the
        // shared link until the election resolved.
        assert!(
            rc.report.oracle.duplicates_observed > rb.report.oracle.duplicates_observed,
            "restart reflood produced no duplicates ({} vs baseline {})",
            rc.report.oracle.duplicates_observed,
            rb.report.oracle.duplicates_observed
        );
        // Duplicates were transient: once the assert settled, delivery is
        // exactly-once again and the oracle saw no persistent duplication,
        // loops, or stale state.
        assert_eq!(
            rc.report.counters.get("steady.deliveries_observed"),
            rc.report.counters.get("steady.deliveries_expected")
        );
        assert!(rc.report.counters.get("steady.deliveries_expected") > 0);
        for r in [&rc, &rb] {
            assert!(
                r.report.oracle.violations.is_empty(),
                "oracle violations {:?}",
                r.report.oracle.violations
            );
        }
    }

    /// Same seed, same faults: the entire report (drop counts, delivery
    /// series, per-link accounting) must be bit-identical across runs, and
    /// a different seed must produce a different loss realization.
    #[test]
    fn faulty_runs_are_deterministic_in_seed() {
        let mk = |seed: u64| {
            ScenarioConfig::builder()
                .seed(seed)
                .duration_secs(80)
                .fault(FaultPlan::iid_loss(0.15))
                .move_at(30.0, PaperHost::R3, 6)
                .build()
        };
        let a = run(&mk(7));
        let b = run(&mk(7));
        let c = run(&mk(8));
        let ja = serde_json::to_value(&a.report);
        let jb = serde_json::to_value(&b.report);
        assert_eq!(ja, jb, "same seed must reproduce the identical report");
        assert_eq!(a.received, b.received);
        assert_ne!(
            a.report.counters.get("faults.frames_dropped_loss"),
            c.report.counters.get("faults.frames_dropped_loss"),
            "different seed should realize a different loss sequence"
        );
    }

    /// Telemetry: the per-node MIB snapshot must agree with the recorder
    /// and world ground truth, the JSONL trace export must be schema-valid,
    /// and the wall-clock profile must cover every executed event.
    #[test]
    fn node_stats_trace_and_profile_are_consistent() {
        let cfg = ScenarioConfig::builder()
            .duration_secs(80)
            .policy(Policy::BIDIRECTIONAL_TUNNEL)
            .move_at(30.0, PaperHost::R3, 6)
            .fault(FaultPlan::iid_loss(0.05))
            .trace_capture(200_000)
            .profile(true)
            .build();
        let r = run(&cfg);

        // MIB counters vs recorder/world ground truth.
        let sum = |name: &str| {
            r.report
                .node_stats
                .values()
                .map(|c| c.get(name))
                .sum::<u64>()
        };
        assert_eq!(sum("dataSent"), r.report.counters.get("host.data_sent"));
        assert_eq!(
            sum("buSent"),
            r.report.counters.get("host.binding_updates_sent")
        );
        assert_eq!(
            sum("haBindingUpdatesRx"),
            r.report.counters.get("ha.binding_updates_rx")
        );
        assert_eq!(
            sum("haBindingAcksSent"),
            r.report.counters.get("ha.binding_acks_sent")
        );
        assert_eq!(
            sum("framesDroppedByFault"),
            r.report.counters.get("faults.frames_dropped_loss")
                + r.report.counters.get("faults.frames_dropped_link_down")
                + r.report.counters.get("faults.frames_dropped_node_crashed")
        );
        assert!(sum("framesDroppedByFault") > 0, "loss plan was inactive");
        assert!(sum("mldInReports") > 0);
        assert!(sum("pimHellosSent") > 0);
        assert_eq!(r.report.node_stats.len(), 5 + 4, "5 routers + 4 hosts");

        // Trace export: header plus schema-valid typed events.
        let jsonl = r.trace_jsonl.as_ref().expect("trace capture enabled");
        let mut lines = 0;
        for line in jsonl.lines() {
            mobicast_sim::trace::validate_jsonl_line(line)
                .unwrap_or_else(|e| panic!("invalid trace line: {e}\n{line}"));
            lines += 1;
        }
        assert!(lines > 100, "only {lines} trace lines");
        assert!(
            jsonl.contains("\"kind\":\"bu_rx\"") && jsonl.contains("\"kind\":\"tunnel_encap\""),
            "typed MIPv6 events missing from trace"
        );

        // Profile covers the whole run and is kept out of the report.
        let profile = r.profile.expect("profiling enabled");
        assert_eq!(profile.events_executed, r.events_executed);
        assert!(r.events_executed > 0);
        assert!(profile.queue_depth_high_water > 0);
        let json = serde_json::to_value(&r.report);
        assert!(
            json.get("profile").is_none(),
            "wall-clock data must not enter the deterministic report"
        );
    }

    /// Unwindowed loss: delivery degrades but the run completes, drops are
    /// accounted per class, and no steady-state claim is made.
    #[test]
    fn run_long_loss_degrades_delivery_and_accounts_drops() {
        let cfg = ScenarioConfig::builder()
            .duration_secs(80)
            .fault(FaultPlan::iid_loss(0.2))
            .build();
        let r = run(&cfg);
        let total_drops: u64 = (1..=6)
            .map(|n| {
                FrameClass::ALL
                    .iter()
                    .map(|c| r.report.link_drops[n - 1][c.name()])
                    .sum::<u64>()
            })
            .sum();
        assert!(total_drops > 0);
        assert!(
            r.report.class_drops("mcast_data") > 0,
            "data frames dropped"
        );
        assert_eq!(
            r.report.counters.get("steady.deliveries_expected"),
            0,
            "no steady-state claim without a recovery point"
        );
        // Delivery suffers visibly at 20% per-link loss but is not zero.
        let delivered = r.received["R1"] + r.received["R2"] + r.received["R3"];
        assert!(delivered > 0);
        assert!(
            (delivered as f64) < 3.0 * 0.98 * r.sent as f64,
            "loss had no visible effect"
        );
    }

    /// The builder's validation contract: every inconsistent knob
    /// combination is rejected with a descriptive reason, and the
    /// defaults build cleanly.
    #[test]
    fn builder_rejects_inconsistent_knobs() {
        // The PR 3 gap: an explicit tracer used to silently swallow
        // trace_capture; now the combination is an error.
        let err = ScenarioConfig::builder()
            .trace_capture(1000)
            .tracer(Tracer::null())
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        let err = ScenarioConfig::builder()
            .move_at(40.0, PaperHost::R3, 6)
            .move_at(30.0, PaperHost::R2, 3)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");

        let err = ScenarioConfig::builder()
            .move_at(10.0, PaperHost::R3, 7)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("1-6"), "{err}");

        let err = ScenarioConfig::builder()
            .payload_size(8)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("16-byte"), "{err}");

        assert!(ScenarioConfig::builder().try_build().is_ok());
    }

    /// Generated names thread through as owned strings; static labels stay
    /// borrowed — both land in the config verbatim.
    #[test]
    fn names_may_be_borrowed_or_generated() {
        let cfg = ScenarioConfig::builder().name("static-label").build();
        assert_eq!(cfg.name, "static-label");
        let seed = 42;
        let cfg = ScenarioConfig::builder()
            .name(format!("stress-seed{seed}"))
            .build();
        assert_eq!(cfg.name, "stress-seed42");
    }
}
