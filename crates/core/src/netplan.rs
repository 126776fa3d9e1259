//! Static network-plan data shared by the composed nodes: the routing
//! plane, the link directory, data-payload framing and frame
//! classification.

use crate::addressing;
use bytes::{BufMut, Bytes, BytesMut};
use mobicast_ipv6::addr::{self, GroupAddr};
use mobicast_ipv6::packet::{proto, Packet};
use mobicast_ipv6::udp::UdpDatagram;
use mobicast_net::{Frame, FrameClass, IfIndex, LinkGraph, LinkId, NodeId};
use mobicast_pimdm::{RpfInfo, RpfLookup};
use std::cell::OnceCell;
use std::net::Ipv6Addr;
use std::rc::Rc;

/// UDP port carrying the simulated multicast application stream.
pub const MCAST_UDP_PORT: u16 = 5001;

/// A router's route toward one destination link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    pub iface: IfIndex,
    /// Link-local address of the next-hop router (None: directly attached).
    pub next_hop: Option<Ipv6Addr>,
    /// Node id of the next hop (for L2 addressing).
    pub next_hop_node: Option<NodeId>,
    /// Link hops to the destination link.
    pub metric: u32,
}

/// One router's cell of a next-hop column: a [`RouteEntry`] packed into
/// 12 bytes (the next hop's link-local address is rebuilt from its node
/// id and interface index on lookup).
#[derive(Clone, Copy, Debug)]
struct Hop {
    /// Link hops to the destination; 0 = no route.
    metric: u32,
    /// Next-hop router id; `u32::MAX` = directly attached.
    next: u32,
    iface: IfIndex,
    next_iface: IfIndex,
}

impl Hop {
    const NONE: Hop = Hop {
        metric: 0,
        next: u32::MAX,
        iface: 0,
        next_iface: 0,
    };

    fn entry(self) -> Option<RouteEntry> {
        if self.metric == 0 {
            return None;
        }
        let next = (self.next != u32::MAX).then_some(NodeId(self.next));
        Some(RouteEntry {
            iface: self.iface,
            next_hop: next.map(|n| addressing::link_local_addr(n, self.next_iface)),
            next_hop_node: next,
            metric: self.metric,
        })
    }
}

/// Everything the plane knows about one destination link, built from a
/// single BFS the first time any router routes toward that link.
#[derive(Debug)]
struct Column {
    /// Link hops from every link to the destination (`u32::MAX`:
    /// unreachable), indexed by link.
    dist: Box<[u32]>,
    /// Each router's route toward the destination, indexed by node id.
    hops: Box<[Hop]>,
}

/// The network's one unicast routing plane, shared by every router.
///
/// Routes are static (link flaps never re-route; a restarted router reads
/// the same plane). A lookup decodes the destination link from the address
/// plan ([`addressing::link_of_addr`]) and reads the router's cell of that
/// link's next-hop column: two O(1) steps. Columns are filled lazily, one
/// per destination link actually used, so memory is O(routers ×
/// destinations used) rather than O(routers × links).
#[derive(Debug, Default)]
pub struct RoutingPlane {
    graph: LinkGraph,
    /// Next-hop column per destination link, built on first use.
    columns: Box<[OnceCell<Column>]>,
}

impl RoutingPlane {
    pub(crate) fn new(graph: LinkGraph) -> Self {
        let columns = (0..graph.n_links()).map(|_| OnceCell::new()).collect();
        RoutingPlane { graph, columns }
    }

    fn column(&self, target: LinkId) -> Option<&Column> {
        let cell = self.columns.get(target.index())?;
        Some(cell.get_or_init(|| self.build_column(target)))
    }

    fn build_column(&self, target: LinkId) -> Column {
        let g = &self.graph;
        let dist = g.link_distances(target);
        let iface_on = |r: NodeId, link: LinkId| {
            g.links_of_router(r)
                .iter()
                .position(|l| *l == link)
                .expect("route leaves on an attached link") as IfIndex
        };
        let hops = (0..g.node_bound() as u32)
            .map(NodeId)
            .map(|r| match g.route(r, &dist) {
                None => Hop::NONE,
                Some(route) => Hop {
                    metric: route.link_hops,
                    next: route.next_router.map_or(u32::MAX, |n| n.0),
                    iface: iface_on(r, route.first_link),
                    next_iface: route
                        .next_router
                        .map_or(0, |n| iface_on(n, route.first_link)),
                },
            })
            .collect();
        Column {
            dist: dist.into(),
            hops,
        }
    }

    /// `router`'s route toward `dst` (`None`: off-plan address, unknown
    /// link, or unreachable).
    pub fn lookup(&self, router: NodeId, dst: Ipv6Addr) -> Option<RouteEntry> {
        let link = addressing::link_of_addr(dst)?;
        self.column(link)?.hops.get(router.index())?.entry()
    }

    /// `router`'s reverse-path (RPF) information toward `src`.
    pub fn rpf(&self, router: NodeId, src: Ipv6Addr) -> Option<RpfInfo> {
        let r = self.lookup(router, src)?;
        Some(RpfInfo {
            iif: r.iface,
            upstream: r.next_hop,
            metric_pref: 101, // static unicast routing preference
            metric: r.metric,
        })
    }

    /// Shortest distance in link hops between two links (1 = same link).
    pub fn link_hop_distance(&self, from: LinkId, to: LinkId) -> Option<u32> {
        let d = *self.column(to)?.dist.get(from.index())?;
        (d != u32::MAX).then(|| d + 1)
    }
}

/// World-wide facts every node may consult (built once per scenario).
#[derive(Debug, Default)]
pub struct Directory {
    /// Default router per link (lowest router id attached), used by hosts
    /// as the L2 next hop for off-link unicast.
    pub default_router: Vec<Option<NodeId>>,
    /// Regional (MAP-style) mobility agent per link: the address hosts
    /// roaming under a hierarchical delivery policy register with while
    /// attached to the link; `None` outside any MAP domain. Stands in for
    /// the MAP discovery a real deployment would do via Router
    /// Advertisement options.
    pub map_agent: Vec<Option<Ipv6Addr>>,
    /// The routing plane every router forwards and RPF-checks by.
    pub routing: RoutingPlane,
}

pub type SharedDirectory = Rc<Directory>;

/// One router's view of the shared [`RoutingPlane`].
#[derive(Clone, Debug)]
pub(crate) struct RouteView {
    directory: SharedDirectory,
    router: NodeId,
}

impl RouteView {
    pub(crate) fn new(directory: SharedDirectory, router: NodeId) -> Self {
        RouteView { directory, router }
    }

    pub(crate) fn lookup(&self, dst: Ipv6Addr) -> Option<RouteEntry> {
        self.directory.routing.lookup(self.router, dst)
    }
}

impl RpfLookup for RouteView {
    fn rpf(&self, src: Ipv6Addr) -> Option<RpfInfo> {
        self.directory.routing.rpf(self.router, src)
    }
}

/// Derive the node that owns an address under the simulation address plan
/// (the interface identifier encodes the node id).
pub fn node_of_addr(a: Ipv6Addr) -> Option<NodeId> {
    if addr::is_multicast(a) {
        return None;
    }
    let iid = (u128::from(a) & 0xffff_ffff_ffff_ffff) as u64;
    let n = iid / 0x100;
    if n == 0 {
        return None;
    }
    Some(NodeId((n - 1) as u32))
}

/// The 16-byte application payload header: packet id + send timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataPayload {
    pub pkt: u64,
    pub sent_nanos: u64,
}

impl DataPayload {
    /// Encode, padding with zeros up to `total_len` bytes (min 16).
    pub fn encode(&self, total_len: usize) -> Bytes {
        let len = total_len.max(16);
        let mut out = BytesMut::with_capacity(len);
        out.put_u64(self.pkt);
        out.put_u64(self.sent_nanos);
        out.put_bytes(0, len - 16);
        out.freeze()
    }

    pub fn decode(buf: &[u8]) -> Option<DataPayload> {
        if buf.len() < 16 {
            return None;
        }
        Some(DataPayload {
            pkt: u64::from_be_bytes(buf[0..8].try_into().ok()?),
            sent_nanos: u64::from_be_bytes(buf[8..16].try_into().ok()?),
        })
    }
}

/// What a packet carries, after unwrapping any levels of encapsulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataInfo {
    pub payload: DataPayload,
    pub group: GroupAddr,
    /// Source address of the innermost packet.
    pub src: Ipv6Addr,
    /// Number of tunnel levels that wrapped it.
    pub tunnel_depth: u32,
}

/// Recursively unwrap tunnels and return the application data inside, if
/// this packet carries the simulated multicast stream.
pub fn extract_data_info(p: &Packet) -> Option<DataInfo> {
    let mut depth = 0u32;
    let mut current = p.clone();
    while current.payload_proto == proto::IPV6 {
        current = mobicast_ipv6::tunnel::decapsulate(&current).ok()?;
        depth += 1;
        if depth > 8 {
            return None; // malformed nesting
        }
    }
    if current.payload_proto != proto::UDP {
        return None;
    }
    let udp = UdpDatagram::decode(current.src, current.dst, &current.payload).ok()?;
    if udp.dst_port != MCAST_UDP_PORT {
        return None;
    }
    let payload = DataPayload::decode(&udp.payload)?;
    let group = GroupAddr::try_new(current.dst)?;
    Some(DataInfo {
        payload,
        group,
        src: current.src,
        tunnel_depth: depth,
    })
}

/// Accounting class for a packet about to go on the wire.
pub fn classify(p: &Packet) -> FrameClass {
    match p.payload_proto {
        proto::PIM => FrameClass::PimControl,
        proto::IPV6 => FrameClass::TunnelData,
        proto::ICMPV6 => {
            // MLD message types 130-132; ND 133/134.
            match p.payload.first() {
                Some(130..=132) => FrameClass::MldControl,
                Some(133..=137) => FrameClass::MobilityControl,
                _ => FrameClass::Other,
            }
        }
        proto::UDP if p.is_multicast() => FrameClass::MulticastData,
        proto::UDP => FrameClass::UnicastData,
        proto::NONE if p.dest_options().is_some() => FrameClass::MobilityControl,
        _ => FrameClass::Other,
    }
}

/// Build a wire frame from a packet, choosing L2 destination from the IPv6
/// destination (multicast → broadcast; unicast → the owner node derived
/// from the address plan, unless an explicit `l2_to` next hop is given).
pub fn frame_for(p: &Packet, l2_to: Option<NodeId>) -> Frame {
    let class = classify(p);
    let bytes = p.encode();
    if addr::is_multicast(p.dst) {
        Frame::new(bytes, class)
    } else {
        match l2_to.or_else(|| node_of_addr(p.dst)) {
            Some(n) => Frame::unicast(bytes, class, n),
            None => Frame::new(bytes, class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_ipv6::tunnel::encapsulate;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn data_packet(src: &str, group: GroupAddr, pkt: u64, size: usize) -> Packet {
        let payload = DataPayload { pkt, sent_nanos: 5 }.encode(size);
        let udp = UdpDatagram::new(4000, MCAST_UDP_PORT, payload);
        let body = udp.encode(a(src), group.addr());
        Packet::new(a(src), group.addr(), proto::UDP, body)
    }

    /// L0 - R0 - L1 - {R1, R2} - L2 - R3 - L3, with R1/R2 parallel and
    /// R2 listing its links in reverse interface order.
    fn plane() -> RoutingPlane {
        let (n, l) = (NodeId, LinkId);
        RoutingPlane::new(LinkGraph::new(
            4,
            &[
                (n(0), vec![l(0), l(1)]),
                (n(1), vec![l(1), l(2)]),
                (n(2), vec![l(2), l(1)]),
                (n(3), vec![l(2), l(3)]),
            ],
        ))
    }

    #[test]
    fn lookup_decodes_the_destination_link() {
        let p = plane();
        let far = addressing::global_addr(NodeId(9), 0, LinkId(3));
        let r = p.lookup(NodeId(0), far).unwrap();
        assert_eq!(r.iface, 1);
        assert_eq!(
            r.next_hop_node,
            Some(NodeId(1)),
            "lowest-id parallel router"
        );
        assert_eq!(r.next_hop, Some(addressing::link_local_addr(NodeId(1), 0)));
        assert_eq!(r.metric, 3);
        // Directly attached: no next hop.
        let r = p.lookup(NodeId(2), far).unwrap();
        assert_eq!((r.iface, r.next_hop_node), (0, Some(NodeId(3))));
        let near = addressing::global_addr(NodeId(9), 0, LinkId(1));
        let r = p.lookup(NodeId(2), near).unwrap();
        assert_eq!((r.iface, r.next_hop, r.metric), (1, None, 1));
        // Off-plan, beyond the last link, and non-routers have no route.
        assert!(p.lookup(NodeId(0), a("fe80::400")).is_none());
        assert!(p.lookup(NodeId(0), a("2001:db8:5::1")).is_none());
        assert!(p.lookup(NodeId(7), far).is_none());
    }

    #[test]
    fn rpf_and_hop_distance_read_the_same_column() {
        let p = plane();
        let src = addressing::global_addr(NodeId(9), 0, LinkId(0));
        let info = p.rpf(NodeId(3), src).unwrap();
        assert_eq!(info.iif, 0);
        assert_eq!(
            info.upstream,
            Some(addressing::link_local_addr(NodeId(1), 1))
        );
        assert_eq!((info.metric_pref, info.metric), (101, 3));
        assert_eq!(p.link_hop_distance(LinkId(3), LinkId(0)), Some(4));
        assert_eq!(p.link_hop_distance(LinkId(0), LinkId(0)), Some(1));
        assert_eq!(p.link_hop_distance(LinkId(0), LinkId(9)), None);
    }

    #[test]
    fn node_of_addr_follows_plan() {
        let h = addressing::global_addr(NodeId(5), 0, LinkId(3));
        assert_eq!(node_of_addr(h), Some(NodeId(5)));
        let ll = addressing::link_local_addr(NodeId(2), 1);
        assert_eq!(node_of_addr(ll), Some(NodeId(2)));
        assert_eq!(node_of_addr(a("ff1e::1")), None);
    }

    #[test]
    fn data_payload_roundtrip_and_padding() {
        let p = DataPayload {
            pkt: 77,
            sent_nanos: 123,
        };
        let b = p.encode(64);
        assert_eq!(b.len(), 64);
        assert_eq!(DataPayload::decode(&b), Some(p));
        assert_eq!(DataPayload::decode(&b[..10]), None);
        // Minimum size enforced.
        assert_eq!(p.encode(4).len(), 16);
    }

    #[test]
    fn extract_data_through_tunnels() {
        let g = GroupAddr::test_group(1);
        let inner = data_packet("2001:db8:4::9", g, 42, 100);
        let info = extract_data_info(&inner).unwrap();
        assert_eq!(info.payload.pkt, 42);
        assert_eq!(info.tunnel_depth, 0);
        assert_eq!(info.group, g);

        let outer = encapsulate(a("2001:db8:6::9"), a("2001:db8:4::d"), &inner);
        let info = extract_data_info(&outer).unwrap();
        assert_eq!(info.payload.pkt, 42);
        assert_eq!(info.tunnel_depth, 1);
        assert_eq!(info.src, a("2001:db8:4::9"));
    }

    #[test]
    fn non_data_packets_extract_none() {
        let p = Packet::new(a("::1"), a("::2"), proto::NONE, Bytes::new());
        assert!(extract_data_info(&p).is_none());
        let udp = UdpDatagram::new(1, 9, Bytes::from_static(&[0; 32]));
        let body = udp.encode(a("::1"), a("::2"));
        let p = Packet::new(a("::1"), a("::2"), proto::UDP, body);
        assert!(extract_data_info(&p).is_none(), "wrong port");
    }

    #[test]
    fn classification() {
        let g = GroupAddr::test_group(1);
        let data = data_packet("2001:db8:1::9", g, 1, 64);
        assert_eq!(classify(&data), FrameClass::MulticastData);
        let tun = encapsulate(a("::1"), a("::2"), &data);
        assert_eq!(classify(&tun), FrameClass::TunnelData);
        let mld = Packet::new(
            a("fe80::1"),
            addr::ALL_NODES,
            proto::ICMPV6,
            mobicast_ipv6::Icmpv6::MldReport { group: g.addr() }.encode(a("fe80::1"), g.addr()),
        );
        assert_eq!(classify(&mld), FrameClass::MldControl);
    }

    #[test]
    fn frame_l2_addressing() {
        let g = GroupAddr::test_group(1);
        let data = data_packet("2001:db8:1::9", g, 1, 64);
        assert_eq!(frame_for(&data, None).l2, mobicast_net::L2Dest::Broadcast);
        let uni = Packet::new(
            a("::1"),
            addressing::global_addr(NodeId(3), 0, LinkId(0)),
            proto::NONE,
            Bytes::new(),
        );
        assert_eq!(
            frame_for(&uni, None).l2,
            mobicast_net::L2Dest::Node(NodeId(3))
        );
        assert_eq!(
            frame_for(&uni, Some(NodeId(9))).l2,
            mobicast_net::L2Dest::Node(NodeId(9))
        );
    }
}
