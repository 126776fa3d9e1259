//! The composed router node: IPv6 forwarding + MLD router + PIM-DM +
//! home agent, wired to the simulated network.
//!
//! This is the paper's "router" — every router is simultaneously a PIM-DM
//! router and a home agent (paper §4.2: "The five routers act as PIM-DM
//! routers and home agents"). The home-agent proxy membership is realised
//! with an embedded MLD *host* port per interface, so proxy subscriptions
//! behave exactly like a listener on the home link: they answer queries,
//! are suppressed by other listeners' reports, and send Done when the
//! binding (and thus the proxied membership) goes away.

use crate::interners::WorldInterners;
use crate::netplan::{self, frame_for, RouteView, SharedDirectory};
use crate::recorder::{DataEvent, SharedRecorder};
use mobicast_ipv6::addr::{self, GroupAddr, Prefix};
use mobicast_ipv6::exthdr::{ExtHeader, Option6};
use mobicast_ipv6::icmpv6::{
    AdvertisedPrefix, Icmpv6, PARAM_PROBLEM_ERRONEOUS_FIELD, PARAM_PROBLEM_UNRECOGNIZED_OPTION,
};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::tunnel;
use mobicast_mipv6::{packets as mip_packets, HaNote, HaOutput, HomeAgent};
use mobicast_mld::{
    HostOutput, MldConfig, MldHostPort, MldMessage, MldNote, MldRouterPort, RouterOutput,
};
use mobicast_net::{Ctx, Frame, IfIndex, LinkId, NodeBehavior, NodeId, TimerKey};
use mobicast_pimdm::{PimConfig, PimDest, PimMessage, PimNote, PimRouter, PimSend, RpfLookup};
use mobicast_sim::{
    Counters, EventId, RateLimit, RngFactory, ShedPolicy, SimDuration, SimTime, SpanId,
    TokenBucket, TraceCategory,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Timer keys used by router nodes.
const TIMER_MLD: u64 = 1;
const TIMER_PIM: u64 = 2;
const TIMER_HA: u64 = 3;
const TIMER_RA: u64 = 4;
/// RA responses are `TIMER_RA_RESPONSE + ifindex`.
const TIMER_RA_RESPONSE: u64 = 0x100;

/// Per-node control-plane resource budget: capacities for every state
/// table a router keeps, the shedding policy applied when a table is full,
/// and an optional token-bucket rate limit on control-plane ingress.
///
/// The default budget is unbounded (every field `None`): behaviour is then
/// bit-for-bit identical to a router without admission control — no RNG
/// draws, no counters, no trace events.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceBudget {
    /// Cap on MLD listener entries *per interface port*.
    pub mld_listeners: Option<u32>,
    /// Cap on PIM (S,G) entries.
    pub pim_sg_entries: Option<u32>,
    /// Cap on home-agent binding-cache entries.
    pub binding_cache: Option<u32>,
    /// What to do with a new entry when its table is full.
    pub shed_policy: ShedPolicy,
    /// Token-bucket limit on control-plane ingress (MLD Report/Done,
    /// PIM Join/Prune/Graft/Assert, Binding Updates) — one shared bucket
    /// per router.
    pub control_rate: Option<RateLimit>,
    /// Bound the simulator event-queue high-water mark (checked by the
    /// oracle, not enforced by the router).
    pub event_queue_depth: Option<u64>,
}

impl ResourceBudget {
    /// A budget with no limits at all (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// True when no limit is configured (admission control fully inert).
    pub fn is_unbounded(&self) -> bool {
        self.mld_listeners.is_none()
            && self.pim_sg_entries.is_none()
            && self.binding_cache.is_none()
            && self.control_rate.is_none()
            && self.event_queue_depth.is_none()
    }

    pub fn validate(&self) -> Result<(), String> {
        if let Some(rl) = &self.control_rate {
            rl.validate()?;
        }
        if self.event_queue_depth == Some(0) {
            return Err("event_queue_depth must be at least 1".into());
        }
        Ok(())
    }
}

/// Router behaviour configuration.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    pub mld: MldConfig,
    pub pim: PimConfig,
    /// Period of unsolicited Router Advertisements.
    pub ra_interval: SimDuration,
    /// Delay before answering a Router Solicitation.
    pub ra_response_delay: SimDuration,
    /// Control-plane resource budget (default: unbounded).
    pub budget: ResourceBudget,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            mld: MldConfig::default(),
            pim: PimConfig::default(),
            ra_interval: SimDuration::from_secs(1),
            ra_response_delay: SimDuration::from_millis(20),
            budget: ResourceBudget::default(),
        }
    }
}

/// Static interface facts.
#[derive(Clone, Copy, Debug)]
pub struct RouterIfaceInfo {
    pub link: LinkId,
    pub prefix: Prefix,
    pub ll: Ipv6Addr,
    pub global: Ipv6Addr,
}

/// Control-plane ingress classes that share the rate limiter.
#[derive(Clone, Copy)]
enum Ingress {
    /// Binding Updates.
    Bu,
    /// PIM Join/Prune, Graft and Assert.
    Pim,
    /// MLD Report and Done.
    Mld,
}

struct TimerSlot {
    scheduled: Option<(SimTime, EventId)>,
}

impl TimerSlot {
    fn new() -> Self {
        TimerSlot { scheduled: None }
    }

    /// Ensure a timer fires at `want` (None cancels).
    fn arm(&mut self, ctx: &mut Ctx<'_>, key: u64, want: Option<SimTime>) {
        match (self.scheduled, want) {
            (Some((t, _)), Some(w)) if t == w => {}
            (prev, Some(w)) => {
                if let Some((_, id)) = prev {
                    ctx.cancel_timer(id);
                }
                let id = ctx.set_timer_at(w, TimerKey(key));
                self.scheduled = Some((w, id));
            }
            (Some((_, id)), None) => {
                ctx.cancel_timer(id);
                self.scheduled = None;
            }
            (None, None) => {}
        }
    }
}

/// The composed router node behaviour.
pub struct RouterNode {
    pub id: NodeId,
    cfg: RouterConfig,
    ifaces: Vec<RouterIfaceInfo>,
    routes: RouteView,
    pim: PimRouter,
    mld: BTreeMap<IfIndex, MldRouterPort>,
    /// HA proxy listener state per interface.
    proxy: BTreeMap<IfIndex, MldHostPort>,
    ha: HomeAgent,
    /// Shared control-plane ingress rate limiter (None = unlimited).
    bucket: Option<TokenBucket>,
    recorder: SharedRecorder,
    mld_timer: TimerSlot,
    pim_timer: TimerSlot,
    ha_timer: TimerSlot,
    ra_pending: Vec<bool>,
    /// High-water mark of (S,G) entries (paper: router storage load).
    pub max_sg_entries: usize,
    /// Open `graft` spans keyed by (S,G): opened when the upstream graft
    /// goes pending, closed by the matching ack. Linear search — routers
    /// hold at most a handful of simultaneous pending grafts.
    graft_spans: Vec<(mobicast_pimdm::Sg, SpanId)>,
    /// RFC-MIB-flavoured per-node counters (camelCase names), snapshotted
    /// into `RunReport.node_stats` at the end of a run.
    mib: Counters,
}

impl RouterNode {
    pub fn new(
        id: NodeId,
        cfg: RouterConfig,
        ifaces: Vec<RouterIfaceInfo>,
        directory: SharedDirectory,
        rng: &RngFactory,
        recorder: SharedRecorder,
        interners: &WorldInterners,
    ) -> Self {
        let mut pim = PimRouter::with_interners(
            cfg.pim,
            rng.indexed_stream("pim-router", u64::from(id.0)),
            interners.addrs.clone(),
            interners.groups.clone(),
        );
        pim.set_budget(cfg.budget.pim_sg_entries, cfg.budget.shed_policy);
        let mut mld = BTreeMap::new();
        let mut proxy = BTreeMap::new();
        for (i, info) in ifaces.iter().enumerate() {
            let ifx = i as IfIndex;
            pim.add_iface(ifx, info.ll);
            let mut port = MldRouterPort::with_interner(cfg.mld, info.ll, interners.groups.clone());
            port.set_budget(cfg.budget.mld_listeners, cfg.budget.shed_policy);
            mld.insert(ifx, port);
            proxy.insert(
                ifx,
                MldHostPort::new(
                    cfg.mld,
                    rng.indexed_stream("ha-proxy", u64::from(id.0) * 16 + u64::from(ifx)),
                ),
            );
        }
        let mut ha = HomeAgent::with_interners(interners.addrs.clone(), interners.groups.clone());
        ha.set_budget(cfg.budget.binding_cache, cfg.budget.shed_policy);
        let bucket = cfg.budget.control_rate.map(TokenBucket::new);
        let n = ifaces.len();
        RouterNode {
            id,
            cfg,
            ifaces,
            routes: RouteView::new(directory, id),
            pim,
            mld,
            proxy,
            ha,
            bucket,
            recorder,
            mld_timer: TimerSlot::new(),
            pim_timer: TimerSlot::new(),
            ha_timer: TimerSlot::new(),
            ra_pending: vec![false; n],
            max_sg_entries: 0,
            graft_spans: Vec::new(),
            mib: Counters::new(),
        }
    }

    /// Per-node MIB-style counters maintained by this behavior.
    pub fn mib(&self) -> &Counters {
        &self.mib
    }

    /// Immutable access to the home-agent state (metrics).
    pub fn home_agent(&self) -> &HomeAgent {
        &self.ha
    }

    /// Immutable access to the PIM instance (assertions in tests).
    pub fn pim(&self) -> &PimRouter {
        &self.pim
    }

    /// The configured control-plane resource budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.cfg.budget
    }

    /// Tokens left in the control-plane rate limiter right now (`None`
    /// when the router runs unlimited). Gauge samplers poll this.
    pub fn bucket_available(&self) -> Option<u32> {
        self.bucket.as_ref().map(|b| b.available())
    }

    /// Total MLD listener entries across all router ports (the
    /// bounded-memory oracle polls this against the budget).
    pub fn mld_listener_total(&self) -> usize {
        self.mld.values().map(|p| p.membership_count()).sum()
    }

    /// Largest single-port MLD listener table (the per-port cap applies
    /// per interface, so the oracle bound is on the max, not the sum).
    pub fn mld_listener_port_max(&self) -> usize {
        self.mld
            .values()
            .map(|p| p.membership_count())
            .max()
            .unwrap_or(0)
    }

    /// Admit one control-plane message through the shared token bucket.
    /// Returns false when the message must be shed; the drop is counted
    /// (MIB + recorder ground truth) and traced.
    fn admit_control(&mut self, ctx: &mut Ctx<'_>, class: Ingress) -> bool {
        let Some(bucket) = self.bucket.as_mut() else {
            return true;
        };
        if bucket.try_take(ctx.now()) {
            return true;
        }
        let (kind, counter, mib) = match class {
            Ingress::Bu => ("bu", "overload.rate_limited.bu", "buRateLimited"),
            Ingress::Pim => ("pim", "overload.rate_limited.pim", "pimRateLimited"),
            Ingress::Mld => ("mld", "overload.rate_limited.mld", "mldRateLimited"),
        };
        self.recorder.count(counter, 1);
        self.mib.inc(mib);
        ctx.trace_event(TraceCategory::Overload, "rate_limited", || {
            vec![("kind", kind.into())]
        });
        false
    }

    /// Update the per-table high-water gauges (snapshotted into
    /// `RunReport.node_stats` and reconciled against the budget).
    fn record_high_waters(&mut self) {
        self.mib
            .record_max("mldListenersHighWater", self.mld_listener_port_max() as u64);
        self.mib
            .record_max("pimSgHighWater", self.pim.entry_count() as u64);
        self.mib
            .record_max("bindingCacheHighWater", self.ha.binding_count() as u64);
    }

    /// Turn buffered home-agent admission notes into typed trace events
    /// and MIB counters. Called after every interaction with the HA.
    fn drain_ha_notes(&mut self, ctx: &mut Ctx<'_>) {
        for note in self.ha.take_notes() {
            let (mib, recorder_key, event, home) = match note {
                HaNote::BindingShed { home } => (
                    "haBindingsShed",
                    "overload.ha_bindings_shed",
                    "binding_shed",
                    home,
                ),
                HaNote::BindingEvicted { home } => (
                    "haBindingsEvicted",
                    "overload.ha_bindings_evicted",
                    "binding_evicted",
                    home,
                ),
                HaNote::BindingStaleSeq { home } => {
                    // Anti-replay, not admission control: keep it out of the
                    // overload ground truth but visible in the same places.
                    self.mib.inc("buStaleSeqDropped");
                    self.recorder.count("ha.bu_stale_seq", 1);
                    ctx.trace_event(TraceCategory::MobileIp, "bu_stale_seq", || {
                        vec![("home", home.into())]
                    });
                    continue;
                }
            };
            self.mib.inc(mib);
            self.recorder.count(recorder_key, 1);
            ctx.trace_event(TraceCategory::Overload, event, || {
                vec![("home", home.into())]
            });
        }
    }

    pub fn iface_info(&self, ifx: IfIndex) -> &RouterIfaceInfo {
        &self.ifaces[usize::from(ifx)]
    }

    fn iface_containing(&self, a: Ipv6Addr) -> Option<IfIndex> {
        self.ifaces
            .iter()
            .position(|i| i.prefix.contains(a))
            .map(|i| i as IfIndex)
    }

    fn is_my_addr(&self, a: Ipv6Addr) -> bool {
        self.ifaces.iter().any(|i| i.ll == a || i.global == a)
    }

    /// Transmit `packet` on `ifx`, recording a data event if it carries the
    /// multicast application stream. `parent` is the provenance tag of the
    /// frame whose processing caused this emission (None at an origin).
    fn emit(
        &self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        packet: &Packet,
        l2_to: Option<NodeId>,
        parent: Option<u64>,
    ) {
        let mut frame = frame_for(packet, l2_to);
        if let Some(info) = netplan::extract_data_info(packet) {
            if let Some(link) = ctx.link_on(ifx) {
                let id = self.recorder.next_tag(self.id);
                frame.tag = id;
                self.recorder.record_data(DataEvent {
                    pkt: info.payload.pkt,
                    id,
                    parent,
                    link,
                    time: ctx.now(),
                    size: frame.len() as u32,
                    tunneled: info.tunnel_depth > 0,
                });
            }
        }
        ctx.send(ifx, frame);
    }

    fn emit_pim(&mut self, ctx: &mut Ctx<'_>, send: &PimSend) {
        let src = self.ifaces[usize::from(send.iface)].ll;
        let (dst, _l2) = match send.dest {
            PimDest::AllRouters => (addr::ALL_PIM_ROUTERS, None),
            PimDest::Unicast(a) => (a, netplan::node_of_addr(a)),
        };
        let body = send.msg.encode(src, dst);
        let packet = Packet::new(src, dst, proto::PIM, body).with_hop_limit(1);
        let (kind, counter, mib) = match send.msg {
            PimMessage::Hello { .. } => ("hello", "pim.sent.hello", "pimHellosSent"),
            PimMessage::JoinPrune { ref joins, .. } if joins.is_empty() => {
                ("prune", "pim.sent.prune", "pimPrunesSent")
            }
            PimMessage::JoinPrune { .. } => ("join", "pim.sent.join", "pimJoinsSent"),
            PimMessage::Assert { .. } => ("assert", "pim.sent.assert", "pimAssertsSent"),
            PimMessage::Graft { .. } => ("graft", "pim.sent.graft", "pimGraftsSent"),
            PimMessage::GraftAck { .. } => ("graft_ack", "pim.sent.graft_ack", "pimGraftAcksSent"),
        };
        self.recorder.count(counter, 1);
        self.mib.inc(mib);
        ctx.trace_event(TraceCategory::Pim, "pim_tx", || {
            vec![
                ("kind", kind.into()),
                ("iface", u64::from(send.iface).into()),
            ]
        });
        self.emit(ctx, send.iface, &packet, l2_to(&packet), None);

        fn l2_to(p: &Packet) -> Option<NodeId> {
            if addr::is_multicast(p.dst) {
                None
            } else {
                netplan::node_of_addr(p.dst)
            }
        }
    }

    fn emit_mld(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, src: Ipv6Addr, msg: MldMessage) {
        let dst = msg.ip_destination();
        let body = msg.to_icmp().encode(src, dst);
        let packet = Packet::new(src, dst, proto::ICMPV6, body)
            .with_hop_limit(1)
            .with_ext(ExtHeader::HopByHop(vec![Option6::RouterAlert(0)]));
        let (counter, mib) = match msg {
            MldMessage::Query { .. } => ("mld.sent.query", "mldOutQueries"),
            MldMessage::Report { .. } => ("mld.sent.report", "mldOutReports"),
            MldMessage::Done { .. } => ("mld.sent.done", "mldOutDones"),
        };
        self.recorder.count(counter, 1);
        self.mib.inc(mib);
        self.emit(ctx, ifx, &packet, None, None);
    }

    fn pim_sends(&mut self, ctx: &mut Ctx<'_>, sends: Vec<PimSend>) {
        for s in &sends {
            self.emit_pim(ctx, s);
        }
        self.max_sg_entries = self.max_sg_entries.max(self.pim.entry_count());
        self.drain_pim_notes(ctx);
    }

    /// Turn buffered PIM state-transition notes into typed trace events and
    /// MIB counters. Called after every interaction with the PIM machine.
    fn drain_pim_notes(&mut self, ctx: &mut Ctx<'_>) {
        for note in self.pim.take_notes() {
            match note {
                PimNote::AssertResolved {
                    sg,
                    iface,
                    won,
                    peer,
                } => {
                    self.mib.inc(if won {
                        "pimAssertsWon"
                    } else {
                        "pimAssertsLost"
                    });
                    ctx.trace_event(TraceCategory::Pim, "pim_assert_resolved", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("iface", u64::from(iface).into()),
                            ("won", won.into()),
                            ("peer", peer.into()),
                        ]
                    });
                }
                PimNote::AssertWinnerAdopted { sg, iface, winner } => {
                    self.mib.inc("pimAssertWinnersAdopted");
                    ctx.trace_event(TraceCategory::Pim, "pim_assert_winner_adopted", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("iface", u64::from(iface).into()),
                            ("winner", winner.into()),
                        ]
                    });
                }
                PimNote::UpstreamPruned { sg, until } => {
                    self.mib.inc("pimUpstreamPrunes");
                    ctx.trace_event(TraceCategory::Pim, "pim_upstream_pruned", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("until_ns", until.as_nanos().into()),
                        ]
                    });
                }
                PimNote::UpstreamResumed { sg } => {
                    self.mib.inc("pimUpstreamResumes");
                    ctx.trace_event(TraceCategory::Pim, "pim_upstream_resumed", || {
                        vec![("src", sg.0.into()), ("group", sg.1.addr().into())]
                    });
                }
                PimNote::UpstreamGraftPending { sg } => {
                    self.mib.inc("pimGraftsPending");
                    ctx.trace_event(TraceCategory::Pim, "pim_graft_pending", || {
                        vec![("src", sg.0.into()), ("group", sg.1.addr().into())]
                    });
                    // One span per pending (S,G) graft; retransmissions of
                    // the same graft stay inside the original span.
                    if !self.graft_spans.iter().any(|(k, _)| *k == sg) {
                        let id = self.recorder.span_open("graft", self.id, ctx.now(), None);
                        self.recorder.span_annotate(id, "src", sg.0.to_string());
                        self.recorder
                            .span_annotate(id, "group", sg.1.addr().to_string());
                        crate::observability::trace_span_open(ctx, id, "graft", None);
                        self.graft_spans.push((sg, id));
                    }
                }
                PimNote::GraftAcked { sg, from } => {
                    self.mib.inc("pimGraftsAcked");
                    ctx.trace_event(TraceCategory::Pim, "pim_graft_acked", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("from", from.into()),
                        ]
                    });
                    if let Some(pos) = self.graft_spans.iter().position(|(k, _)| *k == sg) {
                        let (_, id) = self.graft_spans.remove(pos);
                        self.recorder.span_close(id, ctx.now());
                        crate::observability::trace_span_close(ctx, id, "graft");
                    }
                }
                PimNote::OifPruned { sg, iface, until } => {
                    self.mib.inc("pimOifPrunes");
                    ctx.trace_event(TraceCategory::Pim, "pim_oif_pruned", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("iface", u64::from(iface).into()),
                            ("until_ns", until.as_nanos().into()),
                        ]
                    });
                }
                PimNote::OifResumed { sg, iface } => {
                    self.mib.inc("pimOifResumes");
                    ctx.trace_event(TraceCategory::Pim, "pim_oif_resumed", || {
                        vec![
                            ("src", sg.0.into()),
                            ("group", sg.1.addr().into()),
                            ("iface", u64::from(iface).into()),
                        ]
                    });
                }
                PimNote::EntryExpired { sg } => {
                    self.mib.inc("pimEntriesExpired");
                    ctx.trace_event(TraceCategory::Pim, "pim_entry_expired", || {
                        vec![("src", sg.0.into()), ("group", sg.1.addr().into())]
                    });
                }
                PimNote::SgShed { sg } => {
                    self.mib.inc("pimSgShed");
                    self.recorder.count("overload.pim_sg_shed", 1);
                    ctx.trace_event(TraceCategory::Overload, "pim_sg_shed", || {
                        vec![("src", sg.0.into()), ("group", sg.1.addr().into())]
                    });
                }
                PimNote::SgEvicted { sg } => {
                    self.mib.inc("pimSgEvicted");
                    self.recorder.count("overload.pim_sg_evicted", 1);
                    ctx.trace_event(TraceCategory::Overload, "pim_sg_evicted", || {
                        vec![("src", sg.0.into()), ("group", sg.1.addr().into())]
                    });
                }
            }
        }
    }

    /// Turn buffered MLD querier-election notes for `ifx` into typed trace
    /// events and MIB counters.
    fn drain_mld_notes(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex) {
        let Some(port) = self.mld.get_mut(&ifx) else {
            return;
        };
        for note in port.take_notes() {
            match note {
                MldNote::QuerierElected => {
                    self.mib.inc("mldQuerierElections");
                    ctx.trace_event(TraceCategory::Mld, "mld_querier_elected", || {
                        vec![("iface", u64::from(ifx).into())]
                    });
                }
                MldNote::QuerierResigned { other } => {
                    self.mib.inc("mldQuerierResignations");
                    ctx.trace_event(TraceCategory::Mld, "mld_querier_resigned", || {
                        vec![("iface", u64::from(ifx).into()), ("other", other.into())]
                    });
                }
                MldNote::ListenerShed { group } => {
                    self.mib.inc("mldReportsShed");
                    self.recorder.count("overload.mld_listeners_shed", 1);
                    ctx.trace_event(TraceCategory::Overload, "mld_listener_shed", || {
                        vec![
                            ("iface", u64::from(ifx).into()),
                            ("group", group.addr().into()),
                        ]
                    });
                }
                MldNote::ListenerEvicted { group } => {
                    self.mib.inc("mldListenersEvicted");
                    self.recorder.count("overload.mld_listeners_evicted", 1);
                    ctx.trace_event(TraceCategory::Overload, "mld_listener_evicted", || {
                        vec![
                            ("iface", u64::from(ifx).into()),
                            ("group", group.addr().into()),
                        ]
                    });
                }
            }
        }
    }

    /// Apply MLD router-port outputs for `ifx`.
    fn apply_mld_outputs(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, outs: Vec<RouterOutput>) {
        self.drain_mld_notes(ctx, ifx);
        for o in outs {
            match o {
                RouterOutput::Send(msg) => {
                    let src = self.ifaces[usize::from(ifx)].ll;
                    self.emit_mld(ctx, ifx, src, msg);
                    // Our own HA proxy listener must hear our own queries
                    // (a node does not receive its own frames) — on a
                    // single-router home link the proxy membership would
                    // otherwise expire after T_MLI and collapse the tree.
                    if let MldMessage::Query {
                        max_response_delay,
                        group,
                    } = msg
                    {
                        let proxy_outs = self.proxy.get_mut(&ifx).expect("proxy port").on_query(
                            group,
                            max_response_delay,
                            ctx.now(),
                        );
                        self.apply_proxy_outputs(ctx, ifx, proxy_outs);
                    }
                }
                RouterOutput::ListenerAdded(g) => {
                    ctx.trace(TraceCategory::Mld, || {
                        format!("listener for {g} appeared on if{ifx}")
                    });
                    self.recorder.count("mld.listener_added", 1);
                    let sends = self
                        .pim
                        .set_membership(ifx, g, true, ctx.now(), &self.routes);
                    self.pim_sends(ctx, sends);
                }
                RouterOutput::ListenerRemoved(g) => {
                    ctx.trace(TraceCategory::Mld, || {
                        format!("listener for {g} gone from if{ifx}")
                    });
                    self.recorder.count("mld.listener_removed", 1);
                    let sends = self
                        .pim
                        .set_membership(ifx, g, false, ctx.now(), &self.routes);
                    self.pim_sends(ctx, sends);
                }
            }
        }
    }

    /// Apply MLD host-port (HA proxy) outputs: transmit on the link and
    /// loop back into our own router port (a node does not hear its own
    /// frames).
    fn apply_proxy_outputs(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, outs: Vec<HostOutput>) {
        for HostOutput::Send(msg) in outs {
            let src = self.ifaces[usize::from(ifx)].global;
            self.emit_mld(ctx, ifx, src, msg);
            self.recorder.count("ha.proxy_mld_sent", 1);
            let router_outs =
                self.mld
                    .get_mut(&ifx)
                    .expect("router port")
                    .on_message(src, &msg, ctx.now());
            self.apply_mld_outputs(ctx, ifx, router_outs);
        }
    }

    /// Is this router the *home* agent for `home` (the address is on one of
    /// our links), as opposed to a regional MAP serving a visiting mobile?
    fn is_home_for(&self, home: Ipv6Addr) -> bool {
        self.iface_containing(home).is_some()
    }

    /// Apply home-agent machine outputs for a Binding Update from
    /// `care_of` covering `home`. Proxy membership anchors on the home
    /// interface when we are the home agent; a regional MAP has no home
    /// interface for the mobile, so the join anchors on the interface its
    /// care-of route leaves through — pulling the PIM-DM tree toward the
    /// visited region.
    fn apply_ha_outputs(
        &mut self,
        ctx: &mut Ctx<'_>,
        home: Ipv6Addr,
        care_of: Ipv6Addr,
        outs: Vec<HaOutput>,
    ) {
        let role = if self.is_home_for(home) { "HA" } else { "MAP" };
        for o in outs {
            match o {
                HaOutput::SendBindingAck { care_of, home, ack } => {
                    // Source the ack from the global address of the
                    // interface the care-of route leaves on.
                    let Some(route) = self.routes.lookup(care_of) else {
                        continue;
                    };
                    let src = self.ifaces[usize::from(route.iface)].global;
                    let packet = mip_packets::binding_ack_packet(src, care_of, ack);
                    self.recorder.count("ha.binding_acks_sent", 1);
                    self.mib.inc("haBindingAcksSent");
                    ctx.trace_event(TraceCategory::MobileIp, "back_tx", || {
                        vec![("home", home.into()), ("care_of", care_of.into())]
                    });
                    self.route_unicast(ctx, packet, None);
                }
                HaOutput::ProxyJoin(g) => {
                    let anchor = self
                        .iface_containing(home)
                        .or_else(|| self.routes.lookup(care_of).map(|r| r.iface));
                    let Some(ifx) = anchor else {
                        continue;
                    };
                    ctx.trace(TraceCategory::MobileIp, || {
                        format!("{role} proxy-joins {g} on if{ifx}")
                    });
                    let outs = self
                        .proxy
                        .get_mut(&ifx)
                        .expect("proxy port")
                        .join(g, ctx.now());
                    self.apply_proxy_outputs(ctx, ifx, outs);
                }
                HaOutput::ProxyLeave(g) => {
                    match self.iface_containing(home) {
                        Some(ifx) => {
                            ctx.trace(TraceCategory::MobileIp, || {
                                format!("{role} proxy-leaves {g} on if{ifx}")
                            });
                            let outs = self
                                .proxy
                                .get_mut(&ifx)
                                .expect("proxy port")
                                .leave(g, ctx.now());
                            self.apply_proxy_outputs(ctx, ifx, outs);
                        }
                        None => {
                            // Regional bindings: the join anchor may have
                            // drifted with the care-of address, so release
                            // the membership wherever it is held.
                            let keys: Vec<IfIndex> = self.proxy.keys().copied().collect();
                            for ifx in keys {
                                if self.proxy[&ifx].is_joined(g) {
                                    ctx.trace(TraceCategory::MobileIp, || {
                                        format!("{role} proxy-leaves {g} on if{ifx}")
                                    });
                                    let outs = self
                                        .proxy
                                        .get_mut(&ifx)
                                        .expect("proxy port")
                                        .leave(g, ctx.now());
                                    self.apply_proxy_outputs(ctx, ifx, outs);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Account a frame whose bytes failed to decode at protocol layer
    /// `layer`: MIB counter for the oracle/fuzz reconciliation, typed trace
    /// event for `explain`.
    fn note_malformed(
        &mut self,
        ctx: &mut Ctx<'_>,
        layer: &'static str,
        frame: &Frame,
        err: &mobicast_ipv6::DecodeError,
    ) {
        self.mib.inc("framesMalformed");
        ctx.trace_event(TraceCategory::Fault, "malformed", || {
            vec![
                ("layer", layer.into()),
                ("class", frame.class.name().into()),
                ("len", frame.bytes.len().into()),
                ("error", err.to_string().into()),
            ]
        });
    }

    /// RFC 8200 §4.2: discard a packet carrying an unrecognized option whose
    /// high-order type bits demand it, sending ICMPv6 Parameter Problem
    /// code 2 when required. Returns true if the packet was discarded.
    fn drop_for_unknown_option(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        packet: &Packet,
    ) -> bool {
        let Some((action, pointer)) = packet.unknown_option_problem() else {
            return false;
        };
        self.recorder.count("router.unknown_option_drops", 1);
        self.mib.inc("unknownOptionDrops");
        ctx.trace_event(TraceCategory::Fault, "unknown_option", || {
            vec![
                ("src", packet.src.into()),
                ("pointer", u64::from(pointer).into()),
                ("action", format!("{action:?}").into()),
            ]
        });
        // RFC 4443 §2.4: never answer a packet whose source cannot be a
        // valid destination for the error report.
        if action.sends_icmp(packet.is_multicast())
            && !packet.src.is_unspecified()
            && !addr::is_multicast(packet.src)
        {
            let src = self.ifaces[usize::from(ifx)].global;
            let body = Icmpv6::ParamProblem {
                code: PARAM_PROBLEM_UNRECOGNIZED_OPTION,
                pointer,
            }
            .encode(src, packet.src);
            let report = Packet::new(src, packet.src, proto::ICMPV6, body);
            self.recorder.count("router.param_problem_sent", 1);
            self.mib.inc("paramProblemsSent");
            self.route_unicast(ctx, report, None);
        }
        true
    }

    /// Encapsulate `inner` toward `dst`, enforcing the RFC 2473 Tunnel
    /// Encapsulation Limit. On refusal the packet is discarded and an ICMPv6
    /// Parameter Problem (code 0, pointer at the exhausted limit option,
    /// RFC 2473 §6.7) is sent to the inner source.
    fn encap_checked(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        inner: &Packet,
    ) -> Option<Packet> {
        match tunnel::encapsulate_limited(src, dst, inner) {
            Ok(outer) => {
                self.mib.inc("tunnelEncaps");
                ctx.trace_event(TraceCategory::MobileIp, "tunnel_encap", || {
                    vec![("dst", dst.into()), ("inner_src", inner.src.into())]
                });
                Some(outer)
            }
            Err(tunnel::EncapLimitExceeded) => {
                self.recorder.count("tunnel.encap_limit_exceeded", 1);
                ctx.trace(TraceCategory::MobileIp, || {
                    format!("encap limit exhausted tunnelling {} to {dst}", inner.src)
                });
                // Pointer: fixed header (40) + destination-options header
                // (2) = offset of the Tunnel Encapsulation Limit option.
                let body = Icmpv6::ParamProblem {
                    code: PARAM_PROBLEM_ERRONEOUS_FIELD,
                    pointer: 42,
                }
                .encode(src, inner.src);
                let report = Packet::new(src, inner.src, proto::ICMPV6, body);
                self.recorder.count("tunnel.param_problem_sent", 1);
                self.route_unicast(ctx, report, None);
                None
            }
        }
    }

    /// Forward a unicast packet along the routing plane, applying
    /// home-agent interception for destinations on attached (home) links.
    fn route_unicast(&mut self, ctx: &mut Ctx<'_>, mut packet: Packet, parent: Option<u64>) {
        if packet.hop_limit <= 1 {
            self.recorder.count("router.hop_limit_drops", 1);
            return;
        }
        let Some(route) = self.routes.lookup(packet.dst) else {
            self.recorder.count("router.no_route_drops", 1);
            return;
        };
        // Home-agent interception: destination is on an attached link and
        // has a binding — tunnel to the care-of address instead.
        if route.next_hop.is_none() && !tunnel::is_tunnel(&packet) {
            if let Some(coa) = self.ha.intercept(packet.dst) {
                if coa != packet.dst {
                    let Some(out_route) = self.routes.lookup(coa) else {
                        return;
                    };
                    let src = self.ifaces[usize::from(out_route.iface)].global;
                    let Some(outer) = self.encap_checked(ctx, src, coa, &packet) else {
                        return;
                    };
                    self.recorder.count("ha.unicast_tunnel_encap", 1);
                    self.route_unicast(ctx, outer, parent);
                    return;
                }
            }
        }
        packet.hop_limit -= 1;
        let l2 = route
            .next_hop_node
            .or_else(|| netplan::node_of_addr(packet.dst));
        self.emit(ctx, route.iface, &packet, l2, parent);
    }

    /// Handle an accepted or flooded multicast data packet. `tag` is the
    /// provenance tag of the arriving frame.
    fn handle_multicast_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        ifx: IfIndex,
        packet: &Packet,
        tag: u64,
    ) {
        let Some(group) = GroupAddr::try_new(packet.dst) else {
            return;
        };
        // Link-scope multicast is never routed.
        if addr::multicast_scope(packet.dst) <= Some(2) {
            return;
        }
        let s = packet.src;
        let now = ctx.now();
        let accepted = self.routes.rpf(s).map(|i| i.iif == ifx).unwrap_or(false);
        let (fwd, sends) = self.pim.on_data(ifx, s, group, now, &self.routes);
        self.recorder.count("router.mcast_data_processed", 1);
        self.pim_sends(ctx, sends);
        let parent = (tag != 0).then_some(tag);
        if !fwd.is_empty() {
            let mut forwarded = packet.clone();
            if forwarded.hop_limit <= 1 {
                self.recorder.count("router.hop_limit_drops", 1);
                return;
            }
            forwarded.hop_limit -= 1;
            for out in fwd {
                self.emit(ctx, out, &forwarded, None, parent);
            }
        }
        // Home-agent multicast tunnelling: one unicast copy per subscribed
        // mobile host (paper §4.3.2 — this is where the "same datagrams
        // sent via unicast to each group member" cost comes from).
        if accepted && self.ha.has_group_subscribers(group) {
            let targets = self.ha.multicast_tunnel_targets(group);
            for (home, coa) in targets {
                let Some(out_route) = self.routes.lookup(coa) else {
                    continue;
                };
                let src = self.ifaces[usize::from(out_route.iface)].global;
                let Some(outer) = self.encap_checked(ctx, src, coa, packet) else {
                    continue;
                };
                if self.is_home_for(home) {
                    self.recorder.count("ha.mcast_tunnel_encap", 1);
                } else {
                    self.recorder.count("map.mcast_tunnel_encap", 1);
                    self.mib.inc("mapTunnelEncaps");
                }
                self.route_unicast(ctx, outer, parent);
            }
        }
    }

    /// A packet addressed to this router itself. `tag` is the provenance
    /// tag of the arriving frame.
    fn handle_local(&mut self, ctx: &mut Ctx<'_>, _ifx: IfIndex, packet: &Packet, tag: u64) {
        let now = ctx.now();
        // Reverse tunnel endpoint: decapsulate and forward on the home link.
        if tunnel::is_tunnel(packet) {
            let inner = match tunnel::decapsulate(packet) {
                Ok(inner) => inner,
                Err(err) => {
                    self.recorder.count("ha.decap_errors", 1);
                    self.mib.inc("tunnelDecapErrors");
                    self.mib.inc("framesMalformed");
                    ctx.trace_event(TraceCategory::Fault, "malformed", || {
                        vec![
                            ("layer", "tunnel".into()),
                            ("outer_src", packet.src.into()),
                            ("error", err.to_string().into()),
                        ]
                    });
                    return;
                }
            };
            self.recorder.count("ha.tunnel_decap", 1);
            self.mib.inc("tunnelDecaps");
            ctx.trace_event(TraceCategory::MobileIp, "tunnel_decap", || {
                vec![
                    ("outer_src", packet.src.into()),
                    ("inner_src", inner.src.into()),
                    ("inner_dst", inner.dst.into()),
                ]
            });
            let parent = (tag != 0).then_some(tag);
            if inner.is_multicast() {
                // Paper §4.2.2 B: "The home agent then decapsulates the
                // inner datagram and forwards it on the home link. From
                // there, the datagram is distributed … over the usual
                // multicast distribution tree."
                let Some(home_ifx) = self.iface_containing(inner.src) else {
                    self.recorder.count("ha.decap_no_home_link", 1);
                    return;
                };
                let mut onto_link = inner.clone();
                if onto_link.hop_limit > 1 {
                    onto_link.hop_limit -= 1;
                    self.emit(ctx, home_ifx, &onto_link, None, parent);
                }
                // Process it ourselves as the origin router on the home
                // link (our own transmission is not looped back to us).
                self.handle_multicast_data_from_decap(ctx, home_ifx, &inner, parent);
            } else {
                self.route_unicast(ctx, inner, parent);
            }
            return;
        }
        // Binding updates.
        if let Some((home, bu)) = mip_packets::parse_binding_update(packet) {
            ctx.trace_event(TraceCategory::MobileIp, "bu_rx", || {
                vec![
                    ("home", home.into()),
                    ("care_of", packet.src.into()),
                    ("seq", u64::from(bu.sequence).into()),
                ]
            });
            if self.is_home_for(home) {
                self.recorder.count("ha.binding_updates_rx", 1);
                self.mib.inc("haBindingUpdatesRx");
            } else {
                self.recorder.count("map.binding_updates_rx", 1);
                self.mib.inc("mapBindingUpdatesRx");
            }
            if !self.admit_control(ctx, Ingress::Bu) {
                return;
            }
            let outs = self.ha.on_binding_update(home, packet.src, &bu, now);
            self.drain_ha_notes(ctx);
            self.apply_ha_outputs(ctx, home, packet.src, outs);
            self.arm_ha(ctx);
        }
    }

    /// Multicast data entering via our own decapsulation: like
    /// `handle_multicast_data`, but the logical ingress is the home link.
    fn handle_multicast_data_from_decap(
        &mut self,
        ctx: &mut Ctx<'_>,
        home_ifx: IfIndex,
        packet: &Packet,
        parent: Option<u64>,
    ) {
        let Some(group) = GroupAddr::try_new(packet.dst) else {
            return;
        };
        let now = ctx.now();
        let (fwd, sends) = self
            .pim
            .on_data(home_ifx, packet.src, group, now, &self.routes);
        self.pim_sends(ctx, sends);
        if !fwd.is_empty() {
            let mut forwarded = packet.clone();
            if forwarded.hop_limit <= 1 {
                return;
            }
            forwarded.hop_limit -= 1;
            for out in fwd {
                self.emit(ctx, out, &forwarded, None, parent);
            }
        }
        if self.ha.has_group_subscribers(group) {
            let targets = self.ha.multicast_tunnel_targets(group);
            for (home, coa) in targets {
                let Some(out_route) = self.routes.lookup(coa) else {
                    continue;
                };
                let src = self.ifaces[usize::from(out_route.iface)].global;
                let Some(outer) = self.encap_checked(ctx, src, coa, packet) else {
                    continue;
                };
                if self.is_home_for(home) {
                    self.recorder.count("ha.mcast_tunnel_encap", 1);
                } else {
                    self.recorder.count("map.mcast_tunnel_encap", 1);
                    self.mib.inc("mapTunnelEncaps");
                }
                self.route_unicast(ctx, outer, parent);
            }
        }
    }

    fn send_router_advert(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex) {
        let info = self.ifaces[usize::from(ifx)];
        let ra = Icmpv6::RouterAdvert {
            router_lifetime_secs: 1800,
            prefixes: vec![AdvertisedPrefix {
                prefix: info.prefix,
                autonomous: true,
                valid_lifetime_secs: 86_400,
                preferred_lifetime_secs: 14_400,
            }],
        };
        let body = ra.encode(info.ll, addr::ALL_NODES);
        let packet = Packet::new(info.ll, addr::ALL_NODES, proto::ICMPV6, body).with_hop_limit(255);
        self.recorder.count("nd.ra_sent", 1);
        self.emit(ctx, ifx, &packet, None, None);
    }

    fn arm_mld(&mut self, ctx: &mut Ctx<'_>) {
        let next = self
            .mld
            .values()
            .filter_map(|p| p.next_deadline())
            .chain(self.proxy.values().filter_map(|p| p.next_deadline()))
            .min();
        self.mld_timer.arm(ctx, TIMER_MLD, next);
    }

    fn arm_pim(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.pim.next_deadline();
        self.pim_timer.arm(ctx, TIMER_PIM, next);
    }

    fn arm_ha(&mut self, ctx: &mut Ctx<'_>) {
        let next = self.ha.next_deadline();
        self.ha_timer.arm(ctx, TIMER_HA, next);
    }
}

impl NodeBehavior for RouterNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let sends = self.pim.start(now);
        self.pim_sends(ctx, sends);
        let keys: Vec<IfIndex> = self.mld.keys().copied().collect();
        for ifx in keys {
            let outs = self.mld.get_mut(&ifx).expect("port").start(now);
            self.apply_mld_outputs(ctx, ifx, outs);
        }
        // Stagger the first RA slightly per router so LANs with several
        // routers do not advertise in lockstep.
        let stagger = SimDuration::from_millis(u64::from(self.id.0) * 7 + 3);
        ctx.set_timer_at(now + stagger, TimerKey(TIMER_RA));
        self.arm_mld(ctx);
        self.arm_pim(ctx);
        self.arm_ha(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, ifx: IfIndex, frame: &Frame) {
        let packet = match Packet::decode(&frame.bytes) {
            Ok(p) => p,
            Err(err) => {
                self.recorder.count("router.decode_errors", 1);
                self.note_malformed(ctx, "ipv6", frame, &err);
                return;
            }
        };
        // Binding Updates and Acknowledgements carry a mandatory
        // authenticator (draft-ietf-mobileip-ipv6-10 §4.4); any in-flight
        // mutation fails verification, so a damaged copy must never install
        // or acknowledge binding state. Dropped at the first receiving node
        // — forwarding would re-encode the bytes and lose the marker. The
        // sender's BU retransmission machinery recovers the lost update.
        if frame.damaged
            && (mip_packets::parse_binding_update(&packet).is_some()
                || mip_packets::parse_binding_ack(&packet).is_some())
        {
            self.recorder.count("ha.bu_auth_failed", 1);
            self.mib.inc("buAuthFailures");
            ctx.trace_event(TraceCategory::MobileIp, "bu_auth_failed", || {
                vec![("src", packet.src.into()), ("dst", packet.dst.into())]
            });
            return;
        }
        if self.drop_for_unknown_option(ctx, ifx, &packet) {
            return;
        }
        let now = ctx.now();
        match packet.payload_proto {
            proto::PIM => {
                if packet.dst == addr::ALL_PIM_ROUTERS || self.is_my_addr(packet.dst) {
                    match PimMessage::decode(packet.src, packet.dst, &packet.payload) {
                        Ok(msg) => {
                            self.mib.inc("pimInMessages");
                            // Hellos and Graft-Acks keep neighbor and
                            // retransmit state sane; only the state-building
                            // messages compete for the ingress budget.
                            let limited = matches!(
                                msg,
                                PimMessage::JoinPrune { .. }
                                    | PimMessage::Graft { .. }
                                    | PimMessage::Assert { .. }
                            );
                            if limited && !self.admit_control(ctx, Ingress::Pim) {
                                return;
                            }
                            let sends =
                                self.pim
                                    .on_message(ifx, packet.src, &msg, now, &self.routes);
                            self.pim_sends(ctx, sends);
                            self.arm_pim(ctx);
                        }
                        Err(err) => {
                            self.recorder.count("router.pim_decode_errors", 1);
                            self.note_malformed(ctx, "pim", frame, &err);
                        }
                    }
                }
            }
            proto::ICMPV6 => {
                let icmp = match Icmpv6::decode(packet.src, packet.dst, &packet.payload) {
                    Ok(i) => i,
                    Err(err) => {
                        self.recorder.count("router.icmp_decode_errors", 1);
                        self.note_malformed(ctx, "icmpv6", frame, &err);
                        return;
                    }
                };
                if let Some(msg) = MldMessage::from_icmp(&icmp) {
                    self.mib.inc(match msg {
                        MldMessage::Query { .. } => "mldInQueries",
                        MldMessage::Report { .. } => "mldInReports",
                        MldMessage::Done { .. } => "mldInDones",
                    });
                    // Queries drive the querier election and must never be
                    // shed; listener-state traffic (Report/Done) competes
                    // for the ingress budget.
                    let limited = !matches!(msg, MldMessage::Query { .. });
                    if limited && !self.admit_control(ctx, Ingress::Mld) {
                        return;
                    }
                    let outs = self
                        .mld
                        .get_mut(&ifx)
                        .expect("port")
                        .on_message(packet.src, &msg, now);
                    self.apply_mld_outputs(ctx, ifx, outs);
                    // The HA proxy listener also hears link traffic.
                    let proxy_outs = {
                        let proxy = self.proxy.get_mut(&ifx).expect("proxy");
                        match msg {
                            MldMessage::Query {
                                max_response_delay,
                                group,
                            } => proxy.on_query(group, max_response_delay, now),
                            MldMessage::Report { group } => {
                                proxy.on_report_heard(group);
                                Vec::new()
                            }
                            MldMessage::Done { .. } => Vec::new(),
                        }
                    };
                    self.apply_proxy_outputs(ctx, ifx, proxy_outs);
                    self.arm_mld(ctx);
                    self.arm_pim(ctx);
                } else if matches!(icmp, Icmpv6::RouterSolicit) {
                    let slot = usize::from(ifx);
                    if !self.ra_pending[slot] {
                        self.ra_pending[slot] = true;
                        ctx.set_timer_after(
                            self.cfg.ra_response_delay,
                            TimerKey(TIMER_RA_RESPONSE + u64::from(ifx)),
                        );
                    }
                }
            }
            _ if packet.is_multicast() => {
                self.handle_multicast_data(ctx, ifx, &packet, frame.tag);
                self.arm_pim(ctx);
            }
            _ if self.is_my_addr(packet.dst) => {
                self.handle_local(ctx, ifx, &packet, frame.tag);
                self.arm_pim(ctx);
                self.arm_mld(ctx);
            }
            _ => {
                let parent = (frame.tag != 0).then_some(frame.tag);
                self.route_unicast(ctx, packet, parent);
            }
        }
        self.record_high_waters();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        let now = ctx.now();
        match key.0 {
            TIMER_MLD => {
                self.mld_timer.scheduled = None;
                let keys: Vec<IfIndex> = self.mld.keys().copied().collect();
                for ifx in keys {
                    loop {
                        let due = self
                            .mld
                            .get(&ifx)
                            .and_then(|p| p.next_deadline())
                            .is_some_and(|t| t <= now);
                        if !due {
                            break;
                        }
                        let outs = self.mld.get_mut(&ifx).expect("port").on_deadline(now);
                        self.apply_mld_outputs(ctx, ifx, outs);
                    }
                    loop {
                        let due = self
                            .proxy
                            .get(&ifx)
                            .and_then(|p| p.next_deadline())
                            .is_some_and(|t| t <= now);
                        if !due {
                            break;
                        }
                        let outs = self.proxy.get_mut(&ifx).expect("proxy").on_deadline(now);
                        self.apply_proxy_outputs(ctx, ifx, outs);
                    }
                }
                self.arm_mld(ctx);
                self.arm_pim(ctx);
            }
            TIMER_PIM => {
                self.pim_timer.scheduled = None;
                let sends = self.pim.on_deadline(now, &self.routes);
                self.pim_sends(ctx, sends);
                self.arm_pim(ctx);
            }
            TIMER_HA => {
                self.ha_timer.scheduled = None;
                // Expiry may release proxy memberships; we need the homes,
                // so collect the subscribed groups before/after.
                let outs = self.ha.on_deadline(now);
                self.drain_ha_notes(ctx);
                // `on_deadline` outputs lack the home address; proxy state
                // is keyed per interface, so apply leaves on every iface
                // that has the group joined.
                for o in outs {
                    if let HaOutput::ProxyLeave(g) = o {
                        let keys: Vec<IfIndex> = self.proxy.keys().copied().collect();
                        for ifx in keys {
                            if self.proxy[&ifx].is_joined(g) {
                                let outs = self.proxy.get_mut(&ifx).expect("proxy").leave(g, now);
                                self.apply_proxy_outputs(ctx, ifx, outs);
                            }
                        }
                    }
                }
                self.arm_ha(ctx);
                self.arm_mld(ctx);
            }
            TIMER_RA => {
                for ifx in 0..self.ifaces.len() as u8 {
                    self.send_router_advert(ctx, ifx);
                }
                ctx.set_timer_after(self.cfg.ra_interval, TimerKey(TIMER_RA));
            }
            k if k >= TIMER_RA_RESPONSE => {
                let ifx = (k - TIMER_RA_RESPONSE) as IfIndex;
                self.ra_pending[usize::from(ifx)] = false;
                self.send_router_advert(ctx, ifx);
            }
            _ => {}
        }
        self.record_high_waters();
    }

    fn on_link_change(&mut self, _ctx: &mut Ctx<'_>, _ifx: IfIndex, _link: Option<LinkId>) {
        // Routers are stationary in all scenarios.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
