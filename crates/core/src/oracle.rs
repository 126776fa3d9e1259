//! The network-wide protocol invariant oracle.
//!
//! A passive observer wired into the event loop (via [`WorldProbe`]) plus a
//! periodic state poll and a post-run pass over the recorder, asserting the
//! interoperation invariants the paper's hazards revolve around:
//!
//! * **Loop-freedom** — no causal forwarding chain re-enters a link
//!   natively (tunnel detours legally revisit links; a native revisit is a
//!   multicast forwarding loop).
//! * **At-most-once delivery** — once asserts have resolved and every
//!   scheduled disturbance (move, fault window, crash) has cleared,
//!   duplicate delivery of the same datagram to the same receiver must not
//!   persist. Short bursts are legal — PIM-DM re-runs its assert election
//!   whenever flooding resumes — so the invariant bounds the *run length*
//!   of consecutively duplicated datagrams, which a stuck dual-forwarder
//!   LAN violates within seconds.
//! * **(S,G) expiry** — no router holds an (S,G) entry past its
//!   data-timeout deadline (the paper's 210 s default) plus a timer-
//!   granularity margin.
//! * **Prune/graft legality** — an entry's incoming interface never
//!   appears in its own outgoing forwarding set.
//! * **Binding-cache freshness** — no home agent keeps (and therefore
//!   forwards to) a care-of binding past its lifetime.
//! * **Bounded encapsulation** — RFC 2473 nesting depth never exceeds the
//!   tunnel encapsulation limit budget ([`MAX_ENCAP_DEPTH`]).
//! * **Leave delay** — after the last member leaves a link, data stops
//!   flowing onto it within T_MLI (260 s with RFC 2710 defaults) plus a
//!   margin.
//!
//! The oracle is on by default in every scenario run; its summary (and any
//! violations, rendered as strings) lands in the JSON report.

use crate::netplan;
use crate::recorder::Recorder;
use crate::router_node::RouterNode;
use mobicast_ipv6::packet::Packet;
use mobicast_ipv6::DEFAULT_ENCAP_LIMIT;
use mobicast_net::{Frame, IfIndex, LinkId, NodeId, World, WorldProbe};
use mobicast_sim::{SimDuration, SimTime};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Hard ceiling on RFC 2473 nesting depth: one plain packet, one
/// unlimited first-level tunnel, then [`DEFAULT_ENCAP_LIMIT`] counted
/// levels. Anything deeper escaped the encapsulation-limit machinery.
pub const MAX_ENCAP_DEPTH: u32 = DEFAULT_ENCAP_LIMIT as u32 + 2;

/// Period of the router-state poll.
pub const EPOCH: SimDuration = SimDuration::from_secs(5);

/// Longest tolerated run of consecutively duplicated datagrams (per
/// receiver, per delivery kind) after the settle point. An assert
/// re-election duplicates a handful of datagrams; a permanent dual
/// forwarder duplicates every one.
pub const MAX_DUP_RUN: usize = 40;

/// Timer-granularity slack for the (S,G) data-timeout check.
const SG_EXPIRY_MARGIN: SimDuration = SimDuration::from_secs(5);
/// Timer-granularity slack for the binding-lifetime check.
const BINDING_MARGIN: SimDuration = SimDuration::from_secs(5);
/// Slack on the leave-delay bound (query jitter + one data interval).
const LEAVE_MARGIN_SECS: f64 = 15.0;
/// Violations kept verbatim (the count keeps climbing past the cap).
const MAX_VIOLATIONS: usize = 32;

/// Everything the oracle measured and every invariant it saw broken,
/// serialized into the run report.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OracleSummary {
    /// False when the scenario ran with the oracle disabled.
    pub enabled: bool,
    /// Human-readable invariant violations (empty on a legal run).
    pub violations: Vec<String>,
    /// Total violations detected (may exceed `violations.len()`).
    pub violation_count: u64,
    /// Duplicate deliveries over the whole run (a measured phenomenon of
    /// the tunnel approaches and assert races, not by itself a violation).
    pub duplicates_observed: u64,
    /// Deepest RFC 2473 nesting seen on any wire frame.
    pub max_tunnel_depth: u32,
    /// Largest stale-traffic window after a last member left a link (s).
    pub worst_leave_delay_secs: f64,
    /// Largest observed (S,G) overstay past its data-timeout deadline (s).
    pub worst_stale_sg_secs: f64,
    /// Largest observed binding-cache overstay past its lifetime (s).
    pub worst_binding_overstay_secs: f64,
    /// Multicast data frames observed on the wire.
    pub data_frames_seen: u64,
    /// Reconvergence SLO: seconds from the end of the last scheduled
    /// disturbance until first-copy delivery returned to full coverage of
    /// every subscribed receiver — and stayed there for the rest of the
    /// run. `None` when the check was not armed (no disturbance, or a
    /// run-long fault with no recovery point) or delivery never recovered.
    pub reconverge_secs: Option<f64>,
    /// The configured SLO bound, echoed for the report (`None` = unarmed).
    pub reconverge_bound_secs: Option<f64>,
    /// SLO verdict: `Some(false)` when recovery took longer than the bound
    /// or never happened; `None` when the check was not armed.
    pub reconverge_ok: Option<bool>,
    /// Protected-flow invariant: the worst per-receiver first-copy delivery
    /// ratio over the disturbance window among the pre-existing receivers.
    /// `None` when no floor was configured.
    pub protected_flow_min: Option<f64>,
    /// The configured delivery floor, echoed (`None` = unarmed).
    pub protected_flow_floor: Option<f64>,
    /// `Some(false)` when any protected receiver fell below the floor
    /// while the storm raged.
    pub protected_flow_ok: Option<bool>,
}

/// Cost accounting of the periodic state poll. With the SoA tables'
/// O(1) watermarks (`min_expires`) and mutation epochs in place, the
/// per-entry walks only run when a table may actually have something to
/// report — on a quiescent network every poll is O(routers), not
/// O(routers × entries). `exp_profile` asserts the walk counters stay
/// flat as listener counts grow.
#[derive(Clone, Debug, Default, Serialize, serde::Deserialize)]
pub struct PollStats {
    /// Router inspections performed (polled routers × epochs).
    pub router_polls: u64,
    /// Inspections where the per-(S,G) walk actually ran.
    pub sg_walks: u64,
    /// Total (S,G) entries visited across all walks.
    pub sg_entries_walked: u64,
    /// Inspections where the binding-cache walk actually ran.
    pub binding_walks: u64,
    /// Total binding-cache entries visited across all walks.
    pub binding_entries_walked: u64,
}

#[derive(Default)]
struct OracleState {
    violations: Vec<String>,
    violation_count: u64,
    max_tunnel_depth: u32,
    data_frames_seen: u64,
    worst_stale_sg_secs: f64,
    worst_binding_overstay_secs: f64,
    /// The event-queue high-water is monotone, so its budget breach is
    /// reported once instead of on every subsequent poll.
    queue_depth_reported: bool,
    poll_stats: PollStats,
    /// Last PIM mutation epoch inspected per router: an unchanged epoch
    /// means the legality walk would reproduce its previous verdict.
    pim_epoch_seen: BTreeMap<NodeId, u64>,
}

fn push_violation(st: &mut OracleState, msg: String) {
    st.violation_count += 1;
    if st.violations.len() < MAX_VIOLATIONS {
        st.violations.push(msg);
    }
}

/// Inputs of the post-run pass (see [`Oracle::finalize`]).
pub struct FinalizeParams {
    /// Instant after which asserts must stay resolved and duplicates must
    /// not persist (last disturbance + reconvergence margin).
    pub settle: SimTime,
    /// The MLD Multicast Listener Interval bounding the leave delay.
    pub t_mli: SimDuration,
    /// Subscribed receivers with their initial link (for reconstructing
    /// who lived where when judging stale traffic).
    pub receivers: Vec<(NodeId, LinkId)>,
    /// End of the run.
    pub end: SimTime,
    /// When the last scheduled disturbance (move, fault window, flap,
    /// crash) cleared — the reconvergence SLO measures from here. `None`
    /// leaves the SLO unarmed (no disturbance, or a run-long fault).
    pub disturbance_end: Option<SimTime>,
    /// The reconvergence SLO bound: delivery must return to steady state
    /// within this long after `disturbance_end`.
    pub reconverge_bound: SimDuration,
    /// Protected-flow floor: each receiver in `receivers` must keep at
    /// least this fraction of first-copy deliveries for datagrams sent
    /// inside `protect_window`. `None` leaves the check unarmed.
    pub protected_floor: Option<f64>,
    /// The window (usually the signalling storm) the floor applies to.
    pub protect_window: Option<(SimTime, SimTime)>,
}

/// The invariant oracle. Shared as `Rc` between the world's probe slot and
/// the scheduled polls; all state behind a `RefCell` (single-threaded sim).
#[derive(Default)]
pub struct Oracle {
    state: RefCell<OracleState>,
}

impl Oracle {
    /// Attach a fresh oracle to a world: installs the frame probe and
    /// schedules the periodic router-state poll until `end`.
    pub fn attach(world: &mut World, routers: Vec<NodeId>, end: SimTime) -> Rc<Oracle> {
        let oracle = Rc::new(Oracle::default());
        world.set_probe(oracle.clone());
        schedule_poll(
            world,
            oracle.clone(),
            Rc::new(routers),
            SimTime::ZERO + EPOCH,
            end,
        );
        oracle
    }

    /// Violations recorded so far (real-time checks only until
    /// [`Oracle::finalize`] has run).
    pub fn violations(&self) -> Vec<String> {
        self.state.borrow().violations.clone()
    }

    /// Cost accounting of the polls performed so far.
    pub fn poll_stats(&self) -> PollStats {
        self.state.borrow().poll_stats.clone()
    }

    /// Per-epoch router-state inspection: (S,G) data-timeout compliance,
    /// oif-list legality, and binding-cache freshness. Crashed routers are
    /// skipped — their state is frozen, not held.
    ///
    /// The per-entry walks are guarded by the SoA tables' O(1) reads: the
    /// (S,G) walk runs only when the expiry watermark says something may
    /// be overdue or the router's mutation epoch moved since the last
    /// inspection (an unchanged epoch reproduces the previous legality
    /// verdict); the binding walk runs only when the cache's watermark is
    /// in the past. Quiescent routers therefore cost O(1) per poll no
    /// matter how much state they hold.
    pub fn poll(&self, world: &World, routers: &[NodeId]) {
        let now = world.now();
        let st = &mut *self.state.borrow_mut();
        for &r in routers {
            if world.node_crashed(r) {
                continue;
            }
            let Some(router) = world.behavior::<RouterNode>(r) else {
                continue;
            };
            st.poll_stats.router_polls += 1;
            let epoch = router.pim().mutation_epoch();
            let maybe_overdue = now > router.pim().min_entry_expiry();
            let dirty = st.pim_epoch_seen.get(&r) != Some(&epoch);
            if maybe_overdue || dirty {
                st.pim_epoch_seen.insert(r, epoch);
                st.poll_stats.sg_walks += 1;
                for (s, g) in router.pim().entry_keys() {
                    st.poll_stats.sg_entries_walked += 1;
                    let Some(snap) = router.pim().snapshot(s, g) else {
                        continue;
                    };
                    if now > snap.expires {
                        let over = (now - snap.expires).as_secs_f64();
                        if over > st.worst_stale_sg_secs {
                            st.worst_stale_sg_secs = over;
                        }
                        if now > snap.expires + SG_EXPIRY_MARGIN {
                            push_violation(
                                st,
                                format!(
                                    "t={:.0}s: {r} holds ({s}, {g}) {over:.1}s past its \
                                     data-timeout deadline",
                                    now.as_secs_f64()
                                ),
                            );
                        }
                    }
                    if snap.forwarding.contains(&snap.iif) {
                        push_violation(
                            st,
                            format!(
                                "t={:.0}s: {r} ({s}, {g}) forwards onto its own incoming \
                                 interface {}",
                                now.as_secs_f64(),
                                snap.iif
                            ),
                        );
                    }
                }
            }
            // Bounded memory: with a ResourceBudget configured, no state
            // table may ever exceed its cap — admission control must shed
            // or evict *before* insertion, so even a momentary overshoot
            // is a leak in the enforcement path.
            let budget = *router.budget();
            if let Some(cap) = budget.mld_listeners {
                let have = router.mld_listener_port_max();
                if have > cap as usize {
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: {r} holds {have} MLD listeners on one port, \
                             budget {cap} (admission control leak)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if let Some(cap) = budget.pim_sg_entries {
                let have = router.pim().entry_count();
                if have > cap as usize {
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: {r} holds {have} PIM (S,G) entries, budget {cap} \
                             (admission control leak)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if let Some(cap) = budget.binding_cache {
                let have = router.home_agent().binding_count();
                if have > cap as usize {
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: {r} holds {have} binding-cache entries, \
                             budget {cap} (admission control leak)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if let Some(cap) = budget.event_queue_depth {
                let depth = world.queue_depth_high_water() as u64;
                if depth > cap && !st.queue_depth_reported {
                    st.queue_depth_reported = true;
                    push_violation(
                        st,
                        format!(
                            "t={:.0}s: event-queue depth high-water {depth} exceeds \
                             budget {cap} (unbounded backlog)",
                            now.as_secs_f64()
                        ),
                    );
                }
            }
            if now > router.home_agent().cache().min_expires() {
                st.poll_stats.binding_walks += 1;
                for (home, e) in router.home_agent().cache().entries() {
                    st.poll_stats.binding_entries_walked += 1;
                    if now > e.expires {
                        let over = (now - e.expires).as_secs_f64();
                        if over > st.worst_binding_overstay_secs {
                            st.worst_binding_overstay_secs = over;
                        }
                        if now > e.expires + BINDING_MARGIN {
                            push_violation(
                                st,
                                format!(
                                    "t={:.0}s: {r} still caches binding {home} -> {} \
                                     {over:.1}s past its lifetime",
                                    now.as_secs_f64(),
                                    e.care_of
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Post-run pass over the recorded ground truth: loop-freedom,
    /// at-most-once delivery after the settle point, and the leave-delay
    /// bound. Returns the full summary.
    pub fn finalize(&self, rec: &Recorder, p: &FinalizeParams) -> OracleSummary {
        let st = &mut *self.state.borrow_mut();

        // Tag → position in `data_events`, with every parent resolved to a
        // position once, so the ancestry walks chase indices instead of
        // searching the map at each step.
        let events = &rec.data_events;
        let by_tag: HashMap<u64, usize> = events
            .iter()
            .enumerate()
            .map(|(i, ev)| (ev.id, i))
            .collect();
        let parent_of: Vec<Option<usize>> = events
            .iter()
            .map(|ev| {
                ev.parent
                    .filter(|t| *t != 0)
                    .and_then(|t| by_tag.get(&t).copied())
            })
            .collect();

        // Loop-freedom: walk every native emission's causal ancestry; a
        // native ancestor on the same link means the datagram re-entered
        // the link it already crossed.
        for (ev, parent) in events.iter().zip(&parent_of) {
            if ev.tunneled {
                continue;
            }
            let mut at = *parent;
            let mut guard = 0;
            while let Some(i) = at.filter(|_| guard < 64) {
                let anc = &events[i];
                if !anc.tunneled && anc.link == ev.link {
                    push_violation(
                        st,
                        format!(
                            "t={:.1}s: datagram {} re-entered {:?} natively \
                             (forwarding loop)",
                            ev.time.as_secs_f64(),
                            ev.pkt,
                            ev.link
                        ),
                    );
                    break;
                }
                at = parent_of[i];
                guard += 1;
            }
        }

        // At-most-once after settle: per (receiver, datagram), count the
        // deliveries whose final hop was native vs tunneled. A run of more
        // than MAX_DUP_RUN consecutively duplicated datagrams of one kind
        // is a stuck duplicate-delivery path (e.g. an unresolved assert).
        let horizon = p.end - SimDuration::from_secs(1);
        let settled: std::collections::BTreeSet<u64> = rec
            .packets
            .iter()
            .filter(|m| m.sent_at >= p.settle && m.sent_at < horizon)
            .map(|m| m.pkt)
            .collect();
        // (host, pkt) -> (native deliveries, tunneled deliveries)
        let mut per_copy: BTreeMap<(NodeId, u64), (u32, u32)> = BTreeMap::new();
        for d in &rec.deliveries {
            if !settled.contains(&d.pkt) {
                continue;
            }
            let tunneled = by_tag.get(&d.via).is_some_and(|&i| events[i].tunneled);
            let slot = per_copy.entry((d.host, d.pkt)).or_default();
            if tunneled {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
        let hosts: std::collections::BTreeSet<NodeId> = per_copy.keys().map(|(h, _)| *h).collect();
        for host in hosts {
            for (kind, pick) in [("native", 0usize), ("tunneled", 1usize)] {
                let mut run = 0usize;
                let mut worst = 0usize;
                for &pkt in &settled {
                    let n = per_copy
                        .get(&(host, pkt))
                        .map(|c| if pick == 0 { c.0 } else { c.1 })
                        .unwrap_or(0);
                    if n >= 2 {
                        run += 1;
                        worst = worst.max(run);
                    } else {
                        run = 0;
                    }
                }
                if worst > MAX_DUP_RUN {
                    push_violation(
                        st,
                        format!(
                            "{host}: {worst} consecutive datagrams delivered more than \
                             once via {kind} forwarding after settle (persistent \
                             duplicate delivery)"
                        ),
                    );
                }
            }
        }

        // Leave delay: when the last subscribed receiver leaves a link,
        // data must stop flowing onto it within T_MLI (+ margin). Each
        // receiver's position over time is reconstructed from its initial
        // link and the recorded moves.
        let mut timeline: BTreeMap<NodeId, Vec<(SimTime, LinkId)>> = p
            .receivers
            .iter()
            .map(|(h, l)| (*h, vec![(SimTime::ZERO, *l)]))
            .collect();
        for m in &rec.moves {
            if let Some(tl) = timeline.get_mut(&m.host) {
                tl.push((m.time, m.to));
            }
        }
        let locate = |h: NodeId, t: SimTime| -> Option<LinkId> {
            timeline
                .get(&h)?
                .iter()
                .rev()
                .find(|(at, _)| *at <= t)
                .map(|(_, l)| *l)
        };
        let mut worst_leave = 0.0f64;
        for mv in rec.moves.iter().filter(|m| m.subscribed) {
            let Some(left) = mv.from else { continue };
            // Anyone (including the mover, post-move) still on the link?
            let occupied = timeline.keys().any(|h| locate(*h, mv.time) == Some(left));
            if occupied {
                continue;
            }
            // Stale window ends when any subscribed receiver re-arrives.
            let window_end = timeline
                .values()
                .flatten()
                .filter(|(at, l)| *l == left && *at > mv.time)
                .map(|(at, _)| *at)
                .min()
                .unwrap_or(p.end);
            let last = rec
                .data_events
                .iter()
                .filter(|ev| ev.link == left && ev.time > mv.time && ev.time < window_end)
                .map(|ev| ev.time)
                .max();
            if let Some(last) = last {
                let delay = (last - mv.time).as_secs_f64();
                if delay > worst_leave {
                    worst_leave = delay;
                }
                if delay > p.t_mli.as_secs_f64() + LEAVE_MARGIN_SECS {
                    push_violation(
                        st,
                        format!(
                            "stale data on {left:?} {delay:.1}s after the last member \
                             left at t={:.0}s (T_MLI={:.0}s)",
                            mv.time.as_secs_f64(),
                            p.t_mli.as_secs_f64()
                        ),
                    );
                }
            }
        }

        // Reconvergence SLO: once the last disturbance has cleared, the
        // first-copy delivery stream must return to full coverage of every
        // subscribed receiver within the bound — and not relapse. The
        // recovery point is the first datagram after the latest
        // under-delivered one; a lossy tail means delivery never recovered.
        let mut reconverge_secs = None;
        let mut reconverge_bound_secs = None;
        let mut reconverge_ok = None;
        let n_receivers = p.receivers.len() as u32;
        if let (Some(from), 1..) = (p.disturbance_end, n_receivers) {
            reconverge_bound_secs = Some(p.reconverge_bound.as_secs_f64());
            let horizon = p.end - SimDuration::from_secs(1);
            let mut first_copies: BTreeMap<u64, u32> = BTreeMap::new();
            for d in rec.deliveries.iter().filter(|d| d.first) {
                *first_copies.entry(d.pkt).or_default() += 1;
            }
            let mut sent: Vec<(SimTime, u64)> = rec
                .packets
                .iter()
                .filter(|m| m.sent_at >= from && m.sent_at < horizon)
                .map(|m| (m.sent_at, m.pkt))
                .collect();
            sent.sort();
            let last_bad = sent
                .iter()
                .rev()
                .find(|(_, pkt)| first_copies.get(pkt).copied().unwrap_or(0) < n_receivers)
                .copied();
            let recovered_at = match last_bad {
                None => Some(from),
                Some((bad_at, _)) => sent.iter().map(|&(at, _)| at).find(|at| *at > bad_at),
            };
            reconverge_secs = recovered_at.map(|at| (at - from).as_secs_f64());
            reconverge_ok = Some(match reconverge_secs {
                Some(s) => s <= p.reconverge_bound.as_secs_f64(),
                None => false,
            });
        }

        // Protected flow: receivers that were up before the storm must keep
        // at least the configured fraction of first-copy deliveries for
        // datagrams sent while the storm raged — graceful degradation means
        // shedding the attacker's churn, not the established flows.
        let mut protected_flow_min = None;
        let mut protected_flow_floor = None;
        let mut protected_flow_ok = None;
        if let (Some(floor), Some((from, until))) = (p.protected_floor, p.protect_window) {
            protected_flow_floor = Some(floor);
            let window: std::collections::BTreeSet<u64> = rec
                .packets
                .iter()
                .filter(|m| m.sent_at >= from && m.sent_at < until)
                .map(|m| m.pkt)
                .collect();
            if window.is_empty() || p.receivers.is_empty() {
                protected_flow_ok = Some(true);
            } else {
                let mut per_host: BTreeMap<NodeId, u64> =
                    p.receivers.iter().map(|(h, _)| (*h, 0)).collect();
                for d in rec.deliveries.iter().filter(|d| d.first) {
                    if window.contains(&d.pkt) {
                        if let Some(got) = per_host.get_mut(&d.host) {
                            *got += 1;
                        }
                    }
                }
                let total = window.len() as f64;
                let mut min_ratio = f64::INFINITY;
                for (host, got) in &per_host {
                    let ratio = *got as f64 / total;
                    if ratio < min_ratio {
                        min_ratio = ratio;
                    }
                    if ratio < floor {
                        push_violation(
                            st,
                            format!(
                                "protected flow: {host} received {:.1}% of datagrams \
                                 sent during the storm window, below the {:.1}% floor",
                                ratio * 100.0,
                                floor * 100.0
                            ),
                        );
                    }
                }
                protected_flow_min = Some(min_ratio);
                protected_flow_ok = Some(min_ratio >= floor);
            }
        }

        OracleSummary {
            enabled: true,
            violations: st.violations.clone(),
            violation_count: st.violation_count,
            duplicates_observed: rec.deliveries.iter().filter(|d| !d.first).count() as u64,
            max_tunnel_depth: st.max_tunnel_depth,
            worst_leave_delay_secs: worst_leave,
            worst_stale_sg_secs: st.worst_stale_sg_secs,
            worst_binding_overstay_secs: st.worst_binding_overstay_secs,
            data_frames_seen: st.data_frames_seen,
            reconverge_secs,
            reconverge_bound_secs,
            reconverge_ok,
            protected_flow_min,
            protected_flow_floor,
            protected_flow_ok,
        }
    }

    fn inspect_frame(&self, now: SimTime, node: NodeId, link: LinkId, frame: &Frame) {
        let st = &mut *self.state.borrow_mut();
        let Ok(p) = Packet::decode(&frame.bytes) else {
            push_violation(
                st,
                format!(
                    "t={:.1}s: undecodable frame from {node} on {link:?}",
                    now.as_secs_f64()
                ),
            );
            return;
        };
        if let Some(info) = netplan::extract_data_info(&p) {
            st.data_frames_seen += 1;
            if info.tunnel_depth > st.max_tunnel_depth {
                st.max_tunnel_depth = info.tunnel_depth;
            }
            if info.tunnel_depth > MAX_ENCAP_DEPTH {
                push_violation(
                    st,
                    format!(
                        "t={:.1}s: frame from {node} on {link:?} carries tunnel depth \
                         {} > {MAX_ENCAP_DEPTH} (unbounded re-encapsulation)",
                        now.as_secs_f64(),
                        info.tunnel_depth
                    ),
                );
            }
        }
    }
}

impl WorldProbe for Oracle {
    fn on_transmit(
        &self,
        now: SimTime,
        node: NodeId,
        _ifindex: IfIndex,
        link: LinkId,
        frame: &Frame,
    ) {
        self.inspect_frame(now, node, link, frame);
    }
}

fn schedule_poll(
    world: &mut World,
    oracle: Rc<Oracle>,
    routers: Rc<Vec<NodeId>>,
    t: SimTime,
    end: SimTime,
) {
    if t > end {
        return;
    }
    world.at(t, move |w| {
        oracle.poll(w, &routers);
        schedule_poll(w, oracle, routers, t + EPOCH, end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{DataEvent, Delivery, MoveEvent, PacketMeta, Recorder};
    use mobicast_ipv6::addr::GroupAddr;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn params(receivers: Vec<(NodeId, LinkId)>) -> FinalizeParams {
        FinalizeParams {
            settle: t(10),
            t_mli: SimDuration::from_secs(260),
            receivers,
            end: t(600),
            disturbance_end: None,
            reconverge_bound: SimDuration::from_secs(60),
            protected_floor: None,
            protect_window: None,
        }
    }

    fn meta(pkt: u64, sent: u64) -> PacketMeta {
        PacketMeta {
            pkt,
            group: GroupAddr::test_group(1),
            sender: NodeId(9),
            sent_at: t(sent),
            origin_link: LinkId(0),
            src_addr: "2001:db8:1::1".parse().unwrap(),
        }
    }

    fn ev(pkt: u64, id: u64, parent: Option<u64>, link: u32, tunneled: bool) -> DataEvent {
        DataEvent {
            pkt,
            id,
            parent,
            link: LinkId(link),
            time: t(20),
            size: 100,
            tunneled,
        }
    }

    #[test]
    fn native_link_revisit_is_a_loop_violation() {
        let mut rec = Recorder::default();
        rec.packets.push(meta(1, 20));
        rec.data_events.push(ev(1, 1, None, 0, false));
        rec.data_events.push(ev(1, 2, Some(1), 1, false));
        rec.data_events.push(ev(1, 3, Some(2), 0, false)); // back onto link 0
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("forwarding loop"));
    }

    #[test]
    fn tunnel_detour_revisit_is_legal() {
        let mut rec = Recorder::default();
        rec.packets.push(meta(1, 20));
        rec.data_events.push(ev(1, 1, None, 0, false));
        rec.data_events.push(ev(1, 2, Some(1), 1, true)); // tunneled hop out
        rec.data_events.push(ev(1, 3, Some(2), 0, true)); // tunnel crosses link 0
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![]));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn persistent_native_duplicates_flagged_and_short_bursts_tolerated() {
        let host = NodeId(7);
        let mk = |n_dup: usize| {
            let mut rec = Recorder::default();
            for i in 0..(MAX_DUP_RUN + 10) as u64 {
                rec.packets.push(meta(i, 20 + i));
                rec.data_events.push(ev(i, 2 * i + 1, None, 0, false));
                let copies = if (i as usize) < n_dup { 2 } else { 1 };
                for c in 0..copies {
                    rec.deliveries.push(Delivery {
                        pkt: i,
                        host,
                        link: LinkId(0),
                        time: t(21 + i),
                        first: c == 0,
                        via: 2 * i + 1,
                    });
                }
            }
            rec
        };
        let o = Oracle::default();
        let s = o.finalize(&mk(5), &params(vec![]));
        assert_eq!(
            s.violation_count, 0,
            "assert-race burst: {:?}",
            s.violations
        );
        assert_eq!(s.duplicates_observed, 5);
        let o = Oracle::default();
        let s = o.finalize(&mk(MAX_DUP_RUN + 5), &params(vec![]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("persistent duplicate delivery"));
    }

    /// Recorder with one receiver: packets every 10 s from t=100, each
    /// delivered except those in `missed`.
    fn slo_recorder(missed: &[u64]) -> Recorder {
        let host = NodeId(7);
        let mut rec = Recorder::default();
        for i in 0..20u64 {
            let at = 100 + 10 * i;
            rec.packets.push(PacketMeta {
                sent_at: t(at),
                ..meta(i, at)
            });
            if !missed.contains(&i) {
                rec.deliveries.push(Delivery {
                    pkt: i,
                    host,
                    link: LinkId(0),
                    time: t(at + 1),
                    first: true,
                    via: 0,
                });
            }
        }
        rec
    }

    fn slo_params(bound: u64) -> FinalizeParams {
        FinalizeParams {
            disturbance_end: Some(t(100)),
            reconverge_bound: SimDuration::from_secs(bound),
            receivers: vec![(NodeId(7), LinkId(0))],
            ..params(vec![])
        }
    }

    #[test]
    fn reconvergence_within_bound_passes() {
        // Packets 0..3 lost during recovery; the stream is whole from the
        // packet sent at t=130, i.e. 30 s after the disturbance cleared.
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[0, 1, 2]), &slo_params(60));
        assert_eq!(s.reconverge_secs, Some(30.0));
        assert_eq!(s.reconverge_bound_secs, Some(60.0));
        assert_eq!(s.reconverge_ok, Some(true));
    }

    #[test]
    fn reconvergence_beyond_bound_fails() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[0, 1, 2]), &slo_params(20));
        assert_eq!(s.reconverge_secs, Some(30.0));
        assert_eq!(s.reconverge_ok, Some(false));
        // An SLO miss is a verdict, not an oracle violation: chaos and the
        // tier-1 gates key on violations, the adversarial gate on both.
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn lossy_tail_never_reconverges() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[19]), &slo_params(600));
        assert_eq!(s.reconverge_secs, None);
        assert_eq!(s.reconverge_ok, Some(false));
    }

    #[test]
    fn clean_recovery_is_instant() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &slo_params(60));
        assert_eq!(s.reconverge_secs, Some(0.0));
        assert_eq!(s.reconverge_ok, Some(true));
    }

    #[test]
    fn slo_unarmed_without_disturbance() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &params(vec![(NodeId(7), LinkId(0))]));
        assert_eq!(s.reconverge_secs, None);
        assert_eq!(s.reconverge_bound_secs, None);
        assert_eq!(s.reconverge_ok, None);
    }

    #[test]
    fn protected_flow_floor_verdicts() {
        // 20 datagrams sent from t=100; receiver misses 0..3 of them.
        let armed = |missed: &[u64], floor: f64| {
            let o = Oracle::default();
            o.finalize(
                &slo_recorder(missed),
                &FinalizeParams {
                    protected_floor: Some(floor),
                    protect_window: Some((t(100), t(300))),
                    receivers: vec![(NodeId(7), LinkId(0))],
                    ..params(vec![])
                },
            )
        };
        let s = armed(&[], 0.9);
        assert_eq!(s.protected_flow_min, Some(1.0));
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);

        let s = armed(&[0, 1, 2, 3], 0.9);
        assert_eq!(s.protected_flow_min, Some(0.8));
        assert_eq!(s.protected_flow_floor, Some(0.9));
        assert_eq!(s.protected_flow_ok, Some(false));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!(s.violations[0].contains("protected flow"));

        let s = armed(&[0, 1, 2, 3], 0.75);
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn protected_flow_unarmed_without_floor() {
        let o = Oracle::default();
        let s = o.finalize(&slo_recorder(&[]), &params(vec![(NodeId(7), LinkId(0))]));
        assert_eq!(s.protected_flow_min, None);
        assert_eq!(s.protected_flow_floor, None);
        assert_eq!(s.protected_flow_ok, None);
    }

    #[test]
    fn protected_flow_vacuous_window_passes() {
        // Window before any traffic: nothing to protect, nothing violated.
        let o = Oracle::default();
        let s = o.finalize(
            &slo_recorder(&[]),
            &FinalizeParams {
                protected_floor: Some(0.9),
                protect_window: Some((t(0), t(50))),
                receivers: vec![(NodeId(7), LinkId(0))],
                ..params(vec![])
            },
        );
        assert_eq!(s.protected_flow_min, None);
        assert_eq!(s.protected_flow_ok, Some(true));
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
    }

    #[test]
    fn leave_delay_beyond_t_mli_is_a_violation() {
        let mover = NodeId(7);
        let mut rec = Recorder::default();
        rec.moves.push(MoveEvent {
            host: mover,
            time: t(100),
            from: Some(LinkId(3)),
            to: LinkId(5),
            subscribed: true,
            sending: false,
        });
        // Stale data keeps hitting the abandoned link for 300 s > T_MLI.
        for (i, at) in [(1u64, 150u64), (2, 250), (3, 400)] {
            rec.packets.push(meta(i, at - 1));
            rec.data_events.push(DataEvent {
                time: t(at),
                link: LinkId(3),
                ..ev(i, 10 + i, None, 3, false)
            });
        }
        let o = Oracle::default();
        let s = o.finalize(&rec, &params(vec![(mover, LinkId(3))]));
        assert_eq!(s.violation_count, 1, "{:?}", s.violations);
        assert!((s.worst_leave_delay_secs - 300.0).abs() < 1e-9);
    }

    #[test]
    fn leave_delay_ignored_while_another_member_remains() {
        let mover = NodeId(7);
        let resident = NodeId(8);
        let mut rec = Recorder::default();
        rec.moves.push(MoveEvent {
            host: mover,
            time: t(100),
            from: Some(LinkId(3)),
            to: LinkId(5),
            subscribed: true,
            sending: false,
        });
        for (i, at) in [(1u64, 150u64), (2, 400)] {
            rec.packets.push(meta(i, at - 1));
            rec.data_events.push(DataEvent {
                time: t(at),
                link: LinkId(3),
                ..ev(i, 10 + i, None, 3, false)
            });
        }
        // `resident` still lives on link 3: the traffic is for them.
        let o = Oracle::default();
        let s = o.finalize(
            &rec,
            &params(vec![(mover, LinkId(3)), (resident, LinkId(3))]),
        );
        assert_eq!(s.violation_count, 0, "{:?}", s.violations);
        assert_eq!(s.worst_leave_delay_secs, 0.0);
    }
}
