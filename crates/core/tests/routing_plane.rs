//! Differential reference for the shared routing plane.
//!
//! The slow, obvious version of unicast routing is kept here as the test
//! oracle: every router copies a route to *every* reachable link out of
//! the link graph into its own table (one `/64` prefix per link, exactly
//! as the network builder once did), and a lookup scans that table for
//! the longest matching prefix with the lowest metric. The shared
//! [`RoutingPlane`] must give the same answer — interface, next-hop
//! address, next-hop node and metric — for every router and every
//! address: each link's global addresses, link-local addresses, and
//! addresses outside the plan. Its link-to-link hop distances must match
//! a fresh BFS.

use mobicast_core::addressing;
use mobicast_core::builder::{build, NetworkSpec};
use mobicast_core::netplan::{RouteEntry, RoutingPlane};
use mobicast_core::router_node::RouterConfig;
use mobicast_ipv6::addr::Prefix;
use mobicast_net::{IfIndex, LinkGraph, LinkId, LinkParams, NodeId};
use mobicast_pimdm::RpfInfo;
use mobicast_sim::Tracer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// One row of a reference per-router table.
struct RefRoute {
    prefix: Prefix,
    entry: RouteEntry,
}

/// A router's full reference table: a route to every reachable link.
struct RefTable {
    routes: Vec<RefRoute>,
}

impl RefTable {
    /// The builder's per-router route loop.
    fn build(spec: &NetworkSpec, graph: &LinkGraph, r: NodeId) -> RefTable {
        let attached = &spec.routers[r.index()];
        let mut routes = Vec::new();
        for target in (0..spec.n_links as u32).map(LinkId) {
            let Some(route) = graph.route(r, &graph.link_distances(target)) else {
                continue;
            };
            let iface = attached
                .iter()
                .position(|l| LinkId(*l as u32) == route.first_link)
                .expect("first link attached") as IfIndex;
            let (next_hop, next_hop_node) = match route.next_router {
                Some(n) => {
                    let n_ifx = spec.routers[n.index()]
                        .iter()
                        .position(|l| LinkId(*l as u32) == route.first_link)
                        .expect("next router on shared link")
                        as IfIndex;
                    (Some(addressing::link_local_addr(n, n_ifx)), Some(n))
                }
                None => (None, None),
            };
            routes.push(RefRoute {
                prefix: addressing::link_prefix(target),
                entry: RouteEntry {
                    iface,
                    next_hop,
                    next_hop_node,
                    metric: route.link_hops,
                },
            });
        }
        RefTable { routes }
    }

    /// Longest prefix match, lowest metric.
    fn lookup(&self, dst: Ipv6Addr) -> Option<RouteEntry> {
        self.routes
            .iter()
            .filter(|r| r.prefix.contains(dst))
            .max_by_key(|r| (r.prefix.len(), std::cmp::Reverse(r.entry.metric)))
            .map(|r| r.entry)
    }

    fn rpf(&self, src: Ipv6Addr) -> Option<RpfInfo> {
        let r = self.lookup(src)?;
        Some(RpfInfo {
            iif: r.iface,
            upstream: r.next_hop,
            metric_pref: 101,
            metric: r.metric,
        })
    }
}

/// Every address class the check probes for link `l` (which may lie past
/// the last link of the network).
fn probe_addrs(l: u32, n_routers: u32) -> Vec<Ipv6Addr> {
    let link = LinkId(l);
    let prefix = addressing::link_prefix(link);
    let group = l as u16 + 1;
    let mut out = vec![
        prefix.addr_with_iid(0),
        prefix.addr_with_iid(u64::MAX),
        // Same third group, but outside the link's /64 or the plan.
        Ipv6Addr::new(0x2001, 0xdb8, group, 1, 0, 0, 0, 1),
        Ipv6Addr::new(0x2001, 0xdb9, group, 0, 0, 0, 0, 1),
        Ipv6Addr::new(0x2002, 0xdb8, group, 0, 0, 0, 0, 1),
        Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, group),
        Ipv6Addr::new(0xff1e, 0, 0, 0, 0, 0, 0, group),
        Ipv6Addr::new(0, 0, 0, 0, 0, 0, 0, group),
    ];
    for node in [0, n_routers / 2, n_routers, n_routers + 17] {
        for ifx in [0, 1, 3] {
            out.push(addressing::global_addr(NodeId(node), ifx, link));
            out.push(addressing::link_local_addr(NodeId(node), ifx));
        }
    }
    out
}

/// Build `spec` and compare the plane with the reference for every
/// router over every probe address, and its hop distances with a BFS for
/// every pair of links.
fn check_spec(spec: &NetworkSpec) {
    let net = build(spec, &[], RouterConfig::default(), 1, Tracer::null());
    let plane: &RoutingPlane = &net.directory.routing;
    let graph = LinkGraph::new(
        spec.n_links,
        &spec
            .routers
            .iter()
            .enumerate()
            .map(|(r, ls)| {
                let links = ls.iter().map(|l| LinkId(*l as u32)).collect();
                (NodeId(r as u32), links)
            })
            .collect::<Vec<_>>(),
    );
    for to in (0..spec.n_links as u32).map(LinkId) {
        let dist = graph.link_distances(to);
        for from in (0..spec.n_links as u32).map(LinkId) {
            let want = (dist[from.index()] != u32::MAX).then(|| dist[from.index()] + 1);
            assert_eq!(plane.link_hop_distance(from, to), want, "{from} -> {to}");
        }
    }
    let n_routers = spec.routers.len() as u32;
    let probes: Vec<Ipv6Addr> = (0..spec.n_links as u32 + 2)
        .flat_map(|l| probe_addrs(l, n_routers))
        .collect();
    // Routers, plus node ids that are not routers.
    for r in (0..n_routers + 2).map(NodeId) {
        let table = if r.0 < n_routers {
            RefTable::build(spec, &graph, r)
        } else {
            RefTable { routes: Vec::new() }
        };
        for &a in &probes {
            assert_eq!(plane.lookup(r, a), table.lookup(a), "lookup({r}, {a})");
            assert_eq!(plane.rpf(r, a), table.rpf(a), "rpf({r}, {a})");
        }
    }
}

fn spec(n_links: usize, routers: Vec<Vec<usize>>) -> NetworkSpec {
    NetworkSpec {
        n_links,
        routers,
        link_params: LinkParams::default(),
        domains: Vec::new(),
    }
}

#[test]
fn plane_matches_reference_on_canonical_shapes() {
    for s in [
        NetworkSpec::reference(),
        NetworkSpec::string(12),
        NetworkSpec::star(9),
        NetworkSpec::tree(3, 4),
        NetworkSpec::grid(5, 4),
        NetworkSpec::metro(120),
    ] {
        check_spec(&s);
    }
}

#[test]
fn plane_matches_reference_with_unreachable_links() {
    // Link 2 has no router; links 3-4 form an island; routers 0 and 1 are
    // parallel with opposite interface orders.
    check_spec(&spec(5, vec![vec![0, 1], vec![1, 0], vec![3, 4]]));
}

/// A random connected spec: a spanning tree over the links (some routers
/// joining three links), extra routers between random links, and parallel
/// copies of existing routers with their interfaces shuffled.
fn random_spec(n_links: usize, extra: usize, seed: u64) -> NetworkSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut routers: Vec<Vec<usize>> = Vec::new();
    for l in 1..n_links {
        let mut links = vec![l, rng.random_range(0..l)];
        if rng.random_range(0..4u32) == 0 {
            let third = rng.random_range(0..n_links);
            if !links.contains(&third) {
                links.push(third);
            }
        }
        if rng.random_range(0..2u32) == 0 {
            links.reverse();
        }
        routers.push(links);
    }
    for _ in 0..extra {
        if rng.random_range(0..2u32) == 0 {
            let mut twin = routers[rng.random_range(0..routers.len())].clone();
            let k = rng.random_range(0..twin.len());
            twin.rotate_left(k);
            routers.push(twin);
        } else {
            let a = rng.random_range(0..n_links);
            let b = rng.random_range(0..n_links);
            if a != b {
                routers.push(vec![a, b]);
            }
        }
    }
    spec(n_links, routers)
}

proptest! {
    #[test]
    fn plane_matches_reference_on_random_specs(
        n_links in 2usize..20,
        extra in 0usize..12,
        seed in any::<u64>(),
    ) {
        check_spec(&random_spec(n_links, extra, seed));
    }
}
