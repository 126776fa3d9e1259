//! The address plan of a simulated network.
//!
//! Every link gets a /64 (`2001:db8:<link+1>::/64`); every interface derives
//! a stable 64-bit interface identifier from its node id and interface
//! index, giving it one link-local address (constant across moves — real
//! IIDs come from the MAC address) and one global address per visited link
//! via stateless autoconfiguration. Deterministic addressing makes traces
//! readable and tests exact.

use mobicast_ipv6::addr::Prefix;
use mobicast_net::{IfIndex, LinkId, NodeId};
use std::net::Ipv6Addr;

/// The interface identifier of `(node, ifindex)`.
pub fn iid(node: NodeId, ifindex: IfIndex) -> u64 {
    (u64::from(node.0) + 1) * 0x100 + u64::from(ifindex)
}

/// Most links the plan can number: the third prefix group holds
/// `link + 1`, and 0 is left unused so that `2001:db8::/64` is off-plan.
pub const MAX_LINKS: usize = u16::MAX as usize;

/// The /64 prefix assigned to a link. Panics for links the plan cannot
/// number (`link >= MAX_LINKS`) instead of aliasing a lower link.
pub fn link_prefix(link: LinkId) -> Prefix {
    assert!(
        (link.0 as usize) < MAX_LINKS,
        "link {link} is outside the address plan (at most {MAX_LINKS} links)"
    );
    let addr = Ipv6Addr::new(0x2001, 0xdb8, link.0 as u16 + 1, 0, 0, 0, 0, 0);
    Prefix::new(addr, 64)
}

/// The link whose /64 contains `a` — the inverse of [`link_prefix`].
/// `None` for any address outside the plan (link-local, multicast, other
/// prefixes, and `2001:db8:0::/64`, which no link is given).
pub fn link_of_addr(a: Ipv6Addr) -> Option<LinkId> {
    let net = (u128::from(a) >> 64) as u64;
    if net & 0xffff_ffff_0000_ffff != 0x2001_0db8_0000_0000 {
        return None;
    }
    let n = (net >> 16) as u16;
    n.checked_sub(1).map(|l| LinkId(u32::from(l)))
}

/// The link-local address of `(node, ifindex)` — the same on every link.
pub fn link_local_addr(node: NodeId, ifindex: IfIndex) -> Ipv6Addr {
    mobicast_ipv6::addr::link_local(iid(node, ifindex))
}

/// The global address `(node, ifindex)` autoconfigures on `link`.
pub fn global_addr(node: NodeId, ifindex: IfIndex, link: LinkId) -> Ipv6Addr {
    link_prefix(link).addr_with_iid(iid(node, ifindex))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iids_are_unique_per_interface() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..20u32 {
            for i in 0..4u8 {
                assert!(seen.insert(iid(NodeId(n), i)));
            }
        }
    }

    #[test]
    fn link_prefixes_are_distinct() {
        let p0 = link_prefix(LinkId(0));
        let p1 = link_prefix(LinkId(1));
        assert_ne!(p0, p1);
        assert_eq!(p0.to_string(), "2001:db8:1::/64");
        assert_eq!(p1.to_string(), "2001:db8:2::/64");
    }

    #[test]
    fn link_of_addr_inverts_link_prefix() {
        for l in [0, 1, 528, 5040, (MAX_LINKS - 1) as u32] {
            let link = LinkId(l);
            let prefix = link_prefix(link);
            assert_eq!(link_of_addr(prefix.addr_with_iid(0)), Some(link));
            assert_eq!(link_of_addr(global_addr(NodeId(7), 2, link)), Some(link));
        }
        for off in [
            "2001:db8::1",
            "2001:db8:5:1::1",
            "2002:db8:5::1",
            "fe80::400",
            "ff1e::1",
            "::",
        ] {
            let a: Ipv6Addr = off.parse().unwrap();
            assert_eq!(link_of_addr(a), None, "{off} is off-plan");
        }
    }

    #[test]
    #[should_panic(expected = "outside the address plan")]
    fn link_prefix_rejects_links_past_the_plan() {
        let _ = link_prefix(LinkId(MAX_LINKS as u32));
    }

    #[test]
    fn global_addr_is_in_link_prefix() {
        let a = global_addr(NodeId(3), 1, LinkId(5));
        assert!(link_prefix(LinkId(5)).contains(a));
        assert_eq!(a.to_string(), "2001:db8:6::401");
    }

    #[test]
    fn link_local_is_stable_across_links() {
        let a = link_local_addr(NodeId(3), 0);
        assert!(mobicast_ipv6::addr::is_link_local(a));
        // No dependence on any link: by construction.
        assert_eq!(a.to_string(), "fe80::400");
    }
}
