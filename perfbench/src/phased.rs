//! The stress run rebuilt from public calls, one phase at a time:
//! setup (spec, `builder::build`, move script, `Oracle::attach`),
//! dispatch (`World::run`), finalize (`Oracle::finalize` and report
//! assembly) and export (report serialization). It mirrors
//! `mobicast_core::stress::run_stress_with` step for step, so its
//! `StressReport` is byte-identical to `stress::run_stress` (pinned by
//! `tests/phased.rs`), while each phase can be timed and its allocations
//! counted from outside.

use crate::alloc::{self, AllocCount};
use mobicast_core::builder::{build, BuiltNetwork, HostSpec, NetworkSpec};
use mobicast_core::host_node::{HostConfig, HostNode, SenderApp};
use mobicast_core::oracle::{FinalizeParams, Oracle};
use mobicast_core::router_node::{RouterConfig, RouterNode};
use mobicast_core::scenario::group;
use mobicast_core::strategy::Policy;
use mobicast_core::stress::{StressReport, StressSpec};
use mobicast_mld::MldConfig;
use mobicast_net::{
    ExecPlan, ExecutorConfig, Frame, IfIndex, LinkId, NodeId, WorldProbe, FRAME_CLASS_COUNT,
};
use mobicast_sim::{RngFactory, SimDuration, SimProfile, SimTime, Tracer};
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

// The move-window constants of `mobicast_core::stress` (private there).
const TRAFFIC_START_SECS: u64 = 5;
const FIRST_MOVE_SECS: u64 = 20;
const MOVE_QUIET_TAIL_SECS: u64 = 60;
const SETTLE_MARGIN_SECS: u64 = 30;

/// Sampling stride of the traced run's frame sample: every 8th transmission.
pub const SAMPLE_STRIDE: u64 = 8;

/// Dispatch runs as this many calls of `World::run`, each to the end of
/// the next equal share of the simulated duration. That dispatches the
/// same events in the same order as one call to the end, and times each
/// slice on its own.
pub const DISPATCH_SLICES: u64 = 100;

/// `metro_flood`: 529 links and 1,012 routers under `LOCAL`, 400
/// receivers of which 8 roam twice, 90 s with CBR every 2 s.
pub fn metro_flood_spec(seed: u64) -> StressSpec {
    mobicast_core::scale::metro_spec(1000, 400, seed)
}

/// `roam_tunnel`: the 8×8 grid (64 links, 112 routers) under the
/// bidirectional tunnel, 100 receivers of which 50 roam 10 times each,
/// 300 s with CBR every 100 ms.
pub fn roam_tunnel_spec(seed: u64) -> StressSpec {
    let topology = NetworkSpec::grid(8, 8);
    let policy = Policy::BIDIRECTIONAL_TUNNEL;
    StressSpec {
        name: format!(
            "grid{}x{}/{}/seed{seed}",
            topology.n_links,
            topology.routers.len(),
            policy.id()
        ),
        topology,
        policy,
        seed,
        duration: SimDuration::from_secs(300),
        receivers: 100,
        movers: 50,
        moves_per_mover: 10,
        data_interval: SimDuration::from_millis(100),
    }
}

/// Link the `i`-th receiver is homed on (`StressSpec::receiver_home`).
fn receiver_home(spec: &StressSpec, i: usize) -> usize {
    1 + (i * 7919) % (spec.topology.n_links - 1)
}

/// Forwards every transmission to the oracle and counts frames. In a
/// traced run it also times the oracle and keeps every
/// [`SAMPLE_STRIDE`]-th transmitted frame for the wire-codec sample.
struct BenchProbe {
    oracle: Rc<Oracle>,
    traced: bool,
    tx: Cell<u64>,
    rx: Cell<u64>,
    oracle_ns: Cell<u64>,
    sample: RefCell<Vec<Frame>>,
}

impl WorldProbe for BenchProbe {
    fn on_transmit(&self, now: SimTime, node: NodeId, ifx: IfIndex, link: LinkId, frame: &Frame) {
        let n = self.tx.get();
        self.tx.set(n + 1);
        if !self.traced {
            self.oracle.on_transmit(now, node, ifx, link, frame);
            return;
        }
        if n.is_multiple_of(SAMPLE_STRIDE) {
            self.sample.borrow_mut().push(frame.clone());
        }
        let t = Instant::now();
        self.oracle.on_transmit(now, node, ifx, link, frame);
        self.oracle_ns
            .set(self.oracle_ns.get() + t.elapsed().as_nanos() as u64);
    }

    fn on_deliver(&self, now: SimTime, node: NodeId, ifx: IfIndex, link: LinkId, frame: &Frame) {
        self.rx.set(self.rx.get() + 1);
        self.oracle.on_deliver(now, node, ifx, link, frame);
    }
}

/// Wall-clock seconds, CPU seconds and allocations of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub secs: f64,
    pub cpu_secs: f64,
    pub alloc: AllocCount,
}

/// A point between two phases.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu: f64,
    alloc: AllocCount,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu: crate::host::cpu_secs(),
            alloc: alloc::snapshot(),
        }
    }

    /// The phase from this mark to now, and now as the next mark.
    fn phase(self) -> (Phase, Mark) {
        let now = Mark::now();
        let p = Phase {
            secs: now.at.duration_since(self.at).as_secs_f64(),
            cpu_secs: now.cpu - self.cpu,
            alloc: now.alloc.since(self.alloc),
        };
        (p, now)
    }
}

/// Deterministic per-layer counts of one stress run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub events: u64,
    pub events_scheduled: u64,
    pub queue_high_water: u64,
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub link_bytes: [u64; FRAME_CLASS_COUNT],
    pub mld_reports_in: u64,
    pub mld_queries_in: u64,
    pub pim_messages_in: u64,
    pub pim_oif_prunes: u64,
    pub pim_grafts_acked: u64,
    pub sg_high_water: u64,
    pub bu_rx: u64,
    pub tunnel_encaps: u64,
    pub tunnel_decaps: u64,
    pub bindings_high_water: u64,
    pub frames_malformed: u64,
    pub oracle_polls: u64,
    pub sg_walked: u64,
    pub recorder_rows: u64,
}

/// Extra observations of a traced run.
pub struct Traced {
    pub profile: SimProfile,
    pub oracle_probe_secs: f64,
    pub sample: Vec<Frame>,
}

/// One phased stress run.
pub struct StressRun {
    pub report: StressReport,
    /// The serialized report (the export phase's output).
    pub json: String,
    /// Phase boundaries: start, end of setup, dispatch, finalize, export.
    pub marks: [Instant; 5],
    pub setup: Phase,
    pub dispatch: Phase,
    /// The [`DISPATCH_SLICES`] slices of dispatch, in order.
    pub dispatch_slices: Vec<Phase>,
    pub finalize: Phase,
    pub export: Phase,
    /// The `builder::build` call inside setup.
    pub build: Phase,
    /// The `Oracle::finalize` call inside finalize.
    pub oracle_finalize_secs: f64,
    pub counts: LayerCounts,
    pub traced: Option<Traced>,
}

/// Run `make_spec(seed)` through the phases. `traced` turns on the
/// simulator's profiler, the timed oracle probe and the frame sample.
pub fn run_phased(make_spec: fn(u64) -> StressSpec, seed: u64, traced: bool) -> StressRun {
    setup(make_spec, seed, traced).run()
}

/// A world set up and ready to dispatch.
pub struct Prepared {
    spec: StressSpec,
    net: BuiltNetwork,
    oracle: Rc<Oracle>,
    probe: Rc<BenchProbe>,
    plan: ExecPlan,
    end: SimTime,
    last_move_secs: u64,
    traced: bool,
    t0: Instant,
    m1: Mark,
    /// The whole setup phase.
    pub setup: Phase,
    /// The `builder::build` call inside setup.
    pub build: Phase,
}

/// The setup phase: spec, `builder::build`, move script, `Oracle::attach`.
pub fn setup(make_spec: fn(u64) -> StressSpec, seed: u64, traced: bool) -> Prepared {
    let m0 = Mark::now();

    // ---- setup (spec generation included)
    let spec = make_spec(seed);
    assert!(
        spec.receivers >= spec.movers,
        "movers are a subset of receivers"
    );
    assert!(spec.topology.n_links >= 2, "need somewhere to roam");
    let dur_secs = spec.duration.as_secs_f64() as u64;
    assert!(
        dur_secs >= FIRST_MOVE_SECS + MOVE_QUIET_TAIL_SECS,
        "run too short for the move window"
    );
    let g = group();
    let end = SimTime::ZERO + spec.duration;
    let host_cfg = HostConfig {
        policy: spec.policy,
        unsolicited_reports: true,
        mld: MldConfig::default(),
    };
    let mut hosts = vec![HostSpec {
        home_link: 0,
        cfg: host_cfg,
        sender: Some(SenderApp {
            group: g,
            interval: spec.data_interval,
            payload_size: 256,
            start: SimTime::from_secs(TRAFFIC_START_SECS),
            stop: end,
        }),
        receiver_group: None,
    }];
    for i in 0..spec.receivers {
        hosts.push(HostSpec {
            home_link: receiver_home(&spec, i),
            cfg: host_cfg,
            sender: None,
            receiver_group: Some(g),
        });
    }

    let mb = Mark::now();
    let mut net = build(
        &spec.topology,
        &hosts,
        RouterConfig::default(),
        spec.seed,
        Tracer::null(),
    );
    let (build_phase, _) = mb.phase();

    let move_rng = RngFactory::new(spec.seed).subfactory("stress.moves");
    let move_window = FIRST_MOVE_SECS..(dur_secs - MOVE_QUIET_TAIL_SECS);
    let mut last_move_secs = 0u64;
    for m in 0..spec.movers {
        let mut rng = move_rng.indexed_stream("mover", m as u64);
        let mut times: Vec<u64> = (0..spec.moves_per_mover)
            .map(|_| rng.random_range(move_window.clone()))
            .collect();
        times.sort_unstable();
        let host = net.hosts[1 + m];
        let mut current = receiver_home(&spec, m);
        for at_secs in times {
            let mut to = rng.random_range(0..spec.topology.n_links);
            if to == current {
                to = (to + 1) % spec.topology.n_links;
            }
            current = to;
            let link = net.links[to];
            net.world.at(SimTime::from_secs(at_secs), move |w| {
                w.move_iface(host, 0, link);
            });
            last_move_secs = last_move_secs.max(at_secs);
        }
    }

    let oracle = Oracle::attach(&mut net.world, net.routers.clone(), end);
    let probe = Rc::new(BenchProbe {
        oracle: oracle.clone(),
        traced,
        tx: Cell::new(0),
        rx: Cell::new(0),
        oracle_ns: Cell::new(0),
        sample: RefCell::new(Vec::new()),
    });
    net.world.set_probe(probe.clone());
    let plan = match ExecutorConfig::sequential().plan(|shards| net.shard_plan(shards)) {
        Ok(plan) => plan,
        Err(e) => panic!("{}: invalid executor config: {e}", spec.name),
    };
    if traced {
        net.world.enable_profiling();
    }
    let (setup, m1) = m0.phase();
    Prepared {
        spec,
        net,
        oracle,
        probe,
        plan,
        end,
        last_move_secs,
        traced,
        t0: m0.at,
        m1,
        setup,
        build: build_phase,
    }
}

impl Prepared {
    /// Dispatch, finalize and export.
    pub fn run(self) -> StressRun {
        let Prepared {
            spec,
            mut net,
            oracle,
            probe,
            plan,
            end,
            last_move_secs,
            traced,
            t0,
            m1,
            setup,
            build,
        } = self;
        let n_moves = spec.movers * spec.moves_per_mover;
        let mut dispatch_slices = Vec::with_capacity(DISPATCH_SLICES as usize);
        let mut mark = m1;
        for k in 1..=DISPATCH_SLICES {
            let slice_end = SimTime::from_nanos(end.as_nanos() * k / DISPATCH_SLICES);
            net.world.run(slice_end, &plan);
            let (slice, next) = mark.phase();
            dispatch_slices.push(slice);
            mark = next;
        }
        let m2 = mark;
        let dispatch = Phase {
            secs: m2.at.duration_since(m1.at).as_secs_f64(),
            cpu_secs: m2.cpu - m1.cpu,
            alloc: m2.alloc.since(m1.alloc),
        };

        // ---- finalize
        let BuiltNetwork {
            mut world,
            routers,
            hosts: host_ids,
            links,
            recorder,
            ..
        } = net;
        let rec = recorder.take();
        let receivers: Vec<_> = host_ids
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, id)| (*id, links[receiver_home(&spec, i - 1)]))
            .collect();
        let settle_secs = (TRAFFIC_START_SECS + 15).max(last_move_secs + SETTLE_MARGIN_SECS);
        let tf = Instant::now();
        let summary = oracle.finalize(
            &rec,
            &FinalizeParams {
                settle: SimTime::from_secs(settle_secs),
                t_mli: MldConfig::default().multicast_listener_interval(),
                receivers,
                end,
                disturbance_end: Some(SimTime::from_secs(last_move_secs)),
                reconverge_bound: SimDuration::from_secs(60),
                protected_floor: None,
                protect_window: None,
            },
        );
        let oracle_finalize_secs = tf.elapsed().as_secs_f64();
        let first = rec.deliveries.iter().filter(|d| d.first).count() as u64;
        let dup = rec.deliveries.len() as u64 - first;
        let max_sg = routers
            .iter()
            .filter_map(|r| world.behavior::<RouterNode>(*r))
            .map(|r| r.max_sg_entries)
            .max()
            .unwrap_or(0);
        let report = StressReport {
            name: spec.name.clone(),
            routers: routers.len(),
            links: links.len(),
            hosts: host_ids.len(),
            moves: n_moves,
            events_executed: world.events_executed(),
            packets_sent: rec.packets.len() as u64,
            first_copy_deliveries: first,
            duplicate_deliveries: dup,
            max_router_sg_entries: max_sg,
            oracle_violations: summary.violation_count,
            violations: summary.violations,
            poll: oracle.poll_stats(),
        };
        let (finalize, m3) = m2.phase();

        // ---- export
        let json = serde_json::to_string(&report).expect("StressReport serializes");
        let (export, m4) = m3.phase();

        // Untimed: read the per-layer counts the run left behind.
        let mut counts = LayerCounts {
            events: world.events_executed(),
            events_scheduled: world.events_scheduled(),
            queue_high_water: world.queue_depth_high_water() as u64,
            frames_tx: probe.tx.get(),
            frames_rx: probe.rx.get(),
            oracle_polls: report.poll.router_polls,
            sg_walked: report.poll.sg_entries_walked,
            recorder_rows: (rec.packets.len() + rec.deliveries.len() + rec.data_events.len())
                as u64,
            sg_high_water: max_sg as u64,
            ..LayerCounts::default()
        };
        for &l in &links {
            let stats = world.link_stats(l);
            for (sum, b) in counts.link_bytes.iter_mut().zip(stats.bytes) {
                *sum += b;
            }
        }
        for &r in &routers {
            if let Some(router) = world.behavior::<RouterNode>(r) {
                add_mib(&mut counts, router.mib());
            }
        }
        for &h in &host_ids {
            if let Some(host) = world.behavior::<HostNode>(h) {
                add_mib(&mut counts, host.mib());
            }
        }
        let traced = traced.then(|| Traced {
            profile: world
                .take_profile()
                .expect("profiling was enabled for the traced run"),
            oracle_probe_secs: probe.oracle_ns.get() as f64 / 1e9,
            sample: probe.sample.take(),
        });

        StressRun {
            report,
            json,
            marks: [t0, m1.at, m2.at, m3.at, m4.at],
            setup,
            dispatch,
            dispatch_slices,
            finalize,
            export,
            build,
            oracle_finalize_secs,
            counts,
            traced,
        }
    }
}

fn add_mib(c: &mut LayerCounts, mib: &mobicast_sim::Counters) {
    c.mld_reports_in += mib.get("mldInReports");
    c.mld_queries_in += mib.get("mldInQueries");
    c.pim_messages_in += mib.get("pimInMessages");
    c.pim_oif_prunes += mib.get("pimOifPrunes");
    c.pim_grafts_acked += mib.get("pimGraftsAcked");
    c.bu_rx += mib.get("haBindingUpdatesRx");
    c.tunnel_encaps += mib.get("tunnelEncaps");
    c.tunnel_decaps += mib.get("tunnelDecaps");
    c.frames_malformed += mib.get("framesMalformed");
    c.bindings_high_water = c.bindings_high_water.max(mib.get("bindingCacheHighWater"));
}
