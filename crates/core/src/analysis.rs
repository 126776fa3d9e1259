//! Post-run analysis: turns the recorded ground truth into the paper's
//! evaluation quantities.
//!
//! * **Wasted bandwidth** — every appearance of a data frame on a link is
//!   classified *useful* if it lies on the (time-respecting) path of some
//!   delivery, else *wasted*: flood traffic onto pruned branches, stale
//!   forwarding onto links whose receiver left (leave delay), and tunnel
//!   copies that never reached anyone.
//! * **Routing stretch** — actual path length of each first delivery
//!   divided by the shortest possible link distance between origin and
//!   delivery link.
//! * **Leave delay** — for each move of a subscribed receiver off a link,
//!   how long data kept flowing onto the abandoned link.

use crate::netplan::RoutingPlane;
use crate::recorder::Recorder;
use mobicast_sim::{Counters, QuantileDigest, SeriesSet, SimTime, SpanRecord, TimeSeriesSet};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-link byte usage of application data, split useful/wasted.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LinkDataUsage {
    pub useful_bytes: u64,
    pub wasted_bytes: u64,
    pub useful_frames: u64,
    pub wasted_frames: u64,
}

/// Output of the analysis pass.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Analysis {
    /// Data usage per link (indexed by link id).
    pub link_usage: Vec<LinkDataUsage>,
    /// Datagrams originated.
    pub packets_sent: u64,
    /// First deliveries (across all receivers).
    pub packets_delivered: u64,
    /// Duplicate deliveries.
    pub duplicates: u64,
    /// Mean routing stretch over first deliveries (1.0 = optimal).
    pub mean_stretch: f64,
    /// Mean path length (links) of first deliveries.
    pub mean_path_links: f64,
    /// Leave-delay samples in seconds (one per departure that left a stale
    /// forwarding state behind).
    pub leave_delays: Vec<f64>,
    /// Total wasted data bytes across all links.
    pub total_wasted_bytes: u64,
    /// Total useful data bytes across all links.
    pub total_useful_bytes: u64,
}

/// Reconstruct per-delivery paths and classify link usage.
pub fn analyze(rec: &Recorder, routing: &RoutingPlane, n_links: usize) -> Analysis {
    let mut a = Analysis {
        link_usage: vec![LinkDataUsage::default(); n_links],
        packets_sent: rec.packets.len() as u64,
        ..Analysis::default()
    };

    // Index events by provenance tag; every delivered copy identifies the
    // exact emission that delivered it, and parent pointers give the full
    // causal chain back to the origin — no heuristics.
    let mut by_tag: HashMap<u64, usize> = HashMap::new();
    for (i, ev) in rec.data_events.iter().enumerate() {
        by_tag.insert(ev.id, i);
    }
    let meta: HashMap<u64, &crate::recorder::PacketMeta> =
        rec.packets.iter().map(|m| (m.pkt, m)).collect();

    let mut useful_events: HashSet<usize> = HashSet::new();
    let mut stretch_sum = 0.0f64;
    let mut path_sum = 0.0f64;
    let mut stretch_n = 0u64;

    for d in &rec.deliveries {
        if d.first {
            a.packets_delivered += 1;
        } else {
            a.duplicates += 1;
            continue;
        }
        let Some(m) = meta.get(&d.pkt) else { continue };
        // Walk the provenance chain of the delivered copy.
        let mut path_links = 0u32;
        let mut tag = d.via;
        let mut ok = tag != 0;
        let mut guard = 0;
        while tag != 0 {
            let Some(&idx) = by_tag.get(&tag) else {
                ok = false;
                break;
            };
            useful_events.insert(idx);
            path_links += 1;
            tag = rec.data_events[idx].parent.unwrap_or(0);
            guard += 1;
            if guard > 64 {
                ok = false;
                break;
            }
        }
        if ok {
            if let Some(optimal) = routing.link_hop_distance(m.origin_link, d.link) {
                if optimal > 0 {
                    stretch_sum += f64::from(path_links) / f64::from(optimal);
                    path_sum += f64::from(path_links);
                    stretch_n += 1;
                }
            }
        }
    }
    if stretch_n > 0 {
        a.mean_stretch = stretch_sum / stretch_n as f64;
        a.mean_path_links = path_sum / stretch_n as f64;
    }

    // Classify every event.
    for (i, ev) in rec.data_events.iter().enumerate() {
        let usage = &mut a.link_usage[ev.link.index()];
        if useful_events.contains(&i) {
            usage.useful_bytes += u64::from(ev.size);
            usage.useful_frames += 1;
            a.total_useful_bytes += u64::from(ev.size);
        } else {
            usage.wasted_bytes += u64::from(ev.size);
            usage.wasted_frames += 1;
            a.total_wasted_bytes += u64::from(ev.size);
        }
    }

    // Leave delays: subscribed receiver leaves link L at time t; data for
    // its group keeps arriving on L until the routers notice (MLD expiry).
    for mv in &rec.moves {
        if !mv.subscribed {
            continue;
        }
        let Some(left) = mv.from else { continue };
        // Bound the window at the next time any subscribed host attaches
        // to the same link (traffic after that is useful again).
        let window_end = rec
            .moves
            .iter()
            .filter(|m2| m2.subscribed && m2.to == left && m2.time > mv.time)
            .map(|m2| m2.time)
            .min()
            .unwrap_or(SimTime::MAX);
        let last = rec
            .data_events
            .iter()
            .filter(|ev| ev.link == left && ev.time > mv.time && ev.time < window_end)
            .map(|ev| ev.time)
            .max();
        if let Some(last) = last {
            a.leave_delays.push((last - mv.time).as_secs_f64());
        }
    }

    a
}

/// Merge node-level counters and series into one report bundle.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RunReport {
    pub analysis: Analysis,
    pub counters: Counters,
    pub series: SeriesSet,
    /// Per-link total bytes by frame class name.
    pub link_bytes: Vec<BTreeMap<String, u64>>,
    /// Per-link frame copies destroyed by fault injection, by class name.
    pub link_drops: Vec<BTreeMap<String, u64>>,
    /// Invariant-oracle verdict and counters (duplicates observed, max
    /// tunnel depth, worst leave delay, stale-state lifetimes).
    pub oracle: crate::oracle::OracleSummary,
    /// Per-node MIB-style counter snapshot, keyed by a stable node label
    /// (`router.N` / `host.NAME`). Event-driven and therefore fully
    /// deterministic; merges behavior-kept counters with world-attributed
    /// ones (e.g. `framesDroppedByFault`).
    pub node_stats: BTreeMap<String, Counters>,
    /// Causal spans, gauge timelines and quantile digests for the run.
    /// Sim-time only — wall-clock measurements stay side-band in
    /// `SimProfile` — so this block is byte-identical across repeated
    /// same-seed runs, serial or parallel.
    pub observability: Observability,
}

/// The observability block of a [`RunReport`]: the causal span timeline,
/// the sampled gauge series and per-phase latency digests, all derived
/// exclusively from sim time and deterministic simulation state.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Observability {
    /// Every span opened during the run, in id (= open) order. Spans
    /// still open at teardown are force-closed at the run horizon and
    /// carry an `unfinished` attribute.
    pub spans: Vec<SpanRecord>,
    /// Sampled gauge timelines (table occupancy, event-queue depth,
    /// per-link inflight frames, token-bucket levels).
    pub timeline: TimeSeriesSet,
    /// Mergeable quantile digests of span durations, keyed
    /// `span.<name>`, plus latency series recorded by receivers.
    pub digests: BTreeMap<String, QuantileDigest>,
}

impl Observability {
    /// Digest for spans named `name` (`span.<name>` key), if any closed.
    pub fn span_digest(&self, name: &str) -> Option<&QuantileDigest> {
        self.digests.get(&format!("span.{name}"))
    }

    /// Spans with the given name, in id order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Children of `parent`, in id order.
    pub fn children_of(&self, parent: mobicast_sim::SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }
}

impl RunReport {
    /// Mean of a recorded series (0 if absent).
    pub fn mean(&self, series: &str) -> f64 {
        self.series.summary(series).mean
    }

    /// Total bytes of one frame-class across all links.
    pub fn class_bytes(&self, class: &str) -> u64 {
        self.link_bytes
            .iter()
            .map(|m| m.get(class).copied().unwrap_or(0))
            .sum()
    }

    /// Total fault-injected drops of one frame-class across all links.
    pub fn class_drops(&self, class: &str) -> u64 {
        self.link_drops
            .iter()
            .map(|m| m.get(class).copied().unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{DataEvent, Delivery, MoveEvent, PacketMeta, Recorder};
    use mobicast_ipv6::addr::GroupAddr;
    use mobicast_net::{LinkGraph, LinkId, NodeId};
    use mobicast_sim::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    /// String graph L0-R0-L1-R1-L2.
    fn graph() -> RoutingPlane {
        RoutingPlane::new(LinkGraph::new(
            3,
            &[(NodeId(0), vec![l(0), l(1)]), (NodeId(1), vec![l(1), l(2)])],
        ))
    }

    fn pkt_meta(pkt: u64) -> PacketMeta {
        PacketMeta {
            pkt,
            group: GroupAddr::test_group(1),
            sender: NodeId(9),
            sent_at: t(1),
            origin_link: l(0),
            src_addr: "2001:db8:1::1".parse().unwrap(),
        }
    }

    fn ev(pkt: u64, id: u64, parent: Option<u64>, link: u32, at: u64, size: u32) -> DataEvent {
        DataEvent {
            pkt,
            id,
            parent,
            link: l(link),
            time: t(at),
            size,
            tunneled: false,
        }
    }

    fn deliver(pkt: u64, link: u32, at: u64, via: u64, first: bool) -> Delivery {
        Delivery {
            pkt,
            host: NodeId(5),
            link: l(link),
            time: t(at),
            first,
            via,
        }
    }

    #[test]
    fn useful_path_and_waste_classification() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        // Origin on L0 (tag 1), forwarded to L1 (tag 2, parent 1) and on
        // to L2 (tag 3, parent 2); delivery happens via tag 2 on L1, so
        // the L2 copy is waste.
        rec.data_events.push(ev(1, 1, None, 0, 1, 100));
        rec.data_events.push(ev(1, 2, Some(1), 1, 2, 100));
        rec.data_events.push(ev(1, 3, Some(2), 2, 3, 100));
        rec.deliveries.push(deliver(1, 1, 2, 2, true));
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.packets_sent, 1);
        assert_eq!(a.packets_delivered, 1);
        assert_eq!(a.total_useful_bytes, 200, "origin + L1 hop");
        assert_eq!(a.total_wasted_bytes, 100, "L2 copy wasted");
        assert_eq!(a.link_usage[2].wasted_frames, 1);
        // Path = 2 links, optimal = 2 links -> stretch 1.
        assert!((a.mean_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detour_paths_have_stretch_above_one() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        // A tunnel detour: L0 -> L1 -> L2 -> back to L1 (4 link entries),
        // delivered on L1 where the optimal distance from L0 is 2.
        rec.data_events.push(ev(1, 1, None, 0, 1, 100));
        rec.data_events.push(ev(1, 2, Some(1), 1, 2, 100));
        rec.data_events.push(ev(1, 3, Some(2), 2, 3, 100));
        rec.data_events.push(ev(1, 4, Some(3), 1, 4, 100));
        rec.deliveries.push(deliver(1, 1, 4, 4, true));
        let a = analyze(&rec, &graph(), 3);
        // Path 4 links vs optimal 2 -> stretch 2.
        assert!((a.mean_stretch - 2.0).abs() < 1e-9, "{}", a.mean_stretch);
        assert_eq!(a.total_wasted_bytes, 0, "whole chain was used");
    }

    #[test]
    fn duplicates_counted_separately() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        rec.data_events.push(ev(1, 1, None, 0, 1, 100));
        rec.deliveries.push(deliver(1, 0, 1, 1, true));
        rec.deliveries.push(deliver(1, 0, 2, 1, false));
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.packets_delivered, 1);
        assert_eq!(a.duplicates, 1);
    }

    #[test]
    fn unknown_via_tag_is_tolerated() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        rec.data_events.push(ev(1, 1, None, 0, 1, 100));
        rec.deliveries.push(deliver(1, 0, 1, 999, true));
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.packets_delivered, 1);
        assert_eq!(a.mean_stretch, 0.0, "no stretch sample from broken chain");
        assert_eq!(a.total_wasted_bytes, 100, "unattributed copy is waste");
    }

    #[test]
    fn leave_delay_measured_from_stale_traffic() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        rec.moves.push(MoveEvent {
            host: NodeId(5),
            time: t(10),
            from: Some(l(2)),
            to: l(0),
            subscribed: true,
            sending: false,
        });
        // Stale traffic keeps hitting L2 until t=70.
        for (i, at) in [(2u64, 20u64), (3, 40), (4, 70)] {
            rec.packets.push(PacketMeta {
                pkt: i,
                ..pkt_meta(i)
            });
            rec.data_events.push(ev(i, 10 + i, None, 2, at, 50));
        }
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.leave_delays, vec![60.0]);
        // All that stale traffic is waste.
        assert_eq!(a.link_usage[2].wasted_bytes, 150);
    }

    #[test]
    fn leave_delay_window_bounded_by_rejoin() {
        let mut rec = Recorder::default();
        rec.moves.push(MoveEvent {
            host: NodeId(5),
            time: t(10),
            from: Some(l(2)),
            to: l(0),
            subscribed: true,
            sending: false,
        });
        // Another subscribed host arrives on L2 at t=50; traffic at t=60
        // is for them, not stale.
        rec.moves.push(MoveEvent {
            host: NodeId(6),
            time: t(50),
            from: Some(l(0)),
            to: l(2),
            subscribed: true,
            sending: false,
        });
        rec.packets.push(pkt_meta(1));
        rec.data_events.push(ev(1, 1, None, 2, 30, 50));
        rec.packets.push(PacketMeta {
            pkt: 2,
            ..pkt_meta(2)
        });
        rec.data_events.push(ev(2, 2, None, 2, 60, 50));
        let a = analyze(&rec, &graph(), 3);
        // Host 5's stale window ends at t=50: last stale event at t=30.
        assert!(a.leave_delays.contains(&20.0), "{:?}", a.leave_delays);
    }

    #[test]
    fn unsubscribed_moves_produce_no_leave_delay() {
        let mut rec = Recorder::default();
        rec.moves.push(MoveEvent {
            host: NodeId(5),
            time: t(10),
            from: Some(l(2)),
            to: l(0),
            subscribed: false,
            sending: true,
        });
        rec.data_events.push(ev(1, 1, None, 2, 20, 50));
        rec.packets.push(pkt_meta(1));
        let a = analyze(&rec, &graph(), 3);
        assert!(a.leave_delays.is_empty());
    }

    #[test]
    fn empty_recorder_analyzes_cleanly() {
        let rec = Recorder::default();
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.packets_sent, 0);
        assert_eq!(a.total_wasted_bytes, 0);
        assert_eq!(a.mean_stretch, 0.0);
    }

    #[test]
    fn shared_chain_marks_events_once() {
        let mut rec = Recorder::default();
        rec.packets.push(pkt_meta(1));
        rec.data_events.push(ev(1, 1, None, 0, 1, 100));
        rec.data_events.push(ev(1, 2, Some(1), 1, 2, 100));
        // Two receivers deliver via the same chain.
        rec.deliveries.push(deliver(1, 1, 2, 2, true));
        rec.deliveries.push(Delivery {
            host: NodeId(6),
            ..deliver(1, 1, 2, 2, true)
        });
        let a = analyze(&rec, &graph(), 3);
        assert_eq!(a.packets_delivered, 2);
        assert_eq!(a.total_useful_bytes, 200, "events counted once");
    }
}
