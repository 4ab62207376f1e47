//! Import/export policy and business relationships.
//!
//! The paper's motivating setting (§1): "network A might promise network
//! B that it will act as B's provider, or it might enter into a 'partial
//! transit' relationship [24, 21] with network B and promise to deliver
//! routes from, e.g., European peers in preference to other routes."
//!
//! We implement the standard Gao–Rexford policy frame:
//! * **import**: LOCAL_PREF by relationship (customer > peer > provider),
//!   region tagging of peer routes (so partial transit can select them),
//!   and loop rejection;
//! * **export**: routes learned from customers (or originated locally)
//!   go to everyone; routes learned from peers/providers go only to
//!   customers; **partial-transit customers** additionally receive routes
//!   carrying their contracted region community.
//!
//! These concrete policies are what the PVR layer's promises are checked
//! against — the policy is the secret, the promise is its public
//! over-approximation (§2).

use crate::route::{Community, Route};
use crate::types::Asn;
use std::collections::HashMap;

/// The role a *neighbor* plays relative to the local AS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The neighbor buys full transit from us.
    Customer,
    /// The neighbor sells us transit.
    Provider,
    /// Settlement-free peer.
    Peer,
    /// The neighbor buys *partial* transit: besides our customer cone, it
    /// receives only routes tagged with this region community
    /// (the paper's "routes from European peers" example).
    PartialTransitCustomer {
        /// Community selecting the contracted route subset.
        region: Community,
    },
}

impl Role {
    /// LOCAL_PREF assigned on import, encoding the standard economic
    /// preference: customer routes > peer routes > provider routes.
    pub fn import_local_pref(&self) -> u32 {
        match self {
            Role::Customer | Role::PartialTransitCustomer { .. } => 200,
            Role::Peer => 150,
            Role::Provider => 100,
        }
    }

    /// True if routes learned from a neighbor in this role may be
    /// exported to peers and providers (Gao–Rexford valley-freedom).
    pub fn is_customer_learned(&self) -> bool {
        matches!(self, Role::Customer | Role::PartialTransitCustomer { .. })
    }
}

/// Per-AS policy configuration.
#[derive(Clone, Debug, Default)]
pub struct PolicyConfig {
    /// Role of each neighbor.
    pub relationships: HashMap<Asn, Role>,
    /// Region community stamped on routes imported from each neighbor
    /// (e.g. tag all routes from European peers `65000:1`).
    pub region_tags: HashMap<Asn, Community>,
}

impl PolicyConfig {
    /// Creates an empty policy.
    pub fn new() -> PolicyConfig {
        PolicyConfig::default()
    }

    /// Declares `neighbor`'s role.
    pub fn set_role(&mut self, neighbor: Asn, role: Role) -> &mut Self {
        self.relationships.insert(neighbor, role);
        self
    }

    /// Stamps routes from `neighbor` with `region` on import.
    pub fn set_region_tag(&mut self, neighbor: Asn, region: Community) -> &mut Self {
        self.region_tags.insert(neighbor, region);
        self
    }

    /// The neighbor's role, if configured.
    pub fn role(&self, neighbor: Asn) -> Option<Role> {
        self.relationships.get(&neighbor).copied()
    }

    /// The region community stamped on routes from `neighbor`, if any.
    pub fn region_tag(&self, neighbor: Asn) -> Option<Community> {
        self.region_tags.get(&neighbor).copied()
    }

    /// Import processing for a route received from `neighbor` by
    /// `local_asn`. Returns `None` if the route is rejected.
    pub fn import(&self, local_asn: Asn, neighbor: Asn, route: Route) -> Option<Route> {
        import_as(local_asn, self.role(neighbor), self.region_tag(neighbor), route)
    }

    /// Export decision: may `route` (learned from `learned_from`, `None`
    /// for locally originated) be advertised to `target`?
    pub fn may_export(&self, route: &Route, learned_from: Option<Asn>, target: Asn) -> bool {
        may_export_as(route, learned_from.map(|n| (n, self.role(n))), (target, self.role(target)))
    }
}

/// The import rule on an already-resolved neighbor: `role` and
/// `region_tag` are what [`PolicyConfig`] holds for the sender. The
/// router resolves them once per session and calls this per route;
/// [`PolicyConfig::import`] resolves them per call.
pub fn import_as(
    local_asn: Asn,
    role: Option<Role>,
    region_tag: Option<Community>,
    mut route: Route,
) -> Option<Route> {
    // Loop rejection is mandatory, not policy.
    if route.path.contains(local_asn) {
        return None;
    }
    // Unknown neighbors get nothing (strict: sessions are configured).
    let role = role?;
    // NO_EXPORT routes are accepted but never propagated; the export
    // side enforces that.
    route.local_pref = role.import_local_pref();
    if let Some(region) = region_tag {
        route = route.with_community(region);
    }
    Some(route)
}

/// The export rule on already-resolved neighbors: `learned_from` is the
/// source neighbor with its configured role (`None` for a locally
/// originated route), `target` the would-be recipient with its.
pub fn may_export_as(
    route: &Route,
    learned_from: Option<(Asn, Option<Role>)>,
    target: (Asn, Option<Role>),
) -> bool {
    let (target, target_role) = target;
    // Never export back to the neighbor we learned it from.
    if learned_from.is_some_and(|(n, _)| n == target) {
        return false;
    }
    if route.has_community(Community::NO_EXPORT) {
        return false;
    }
    let Some(target_role) = target_role else { return false };
    // Locally originated: export to everyone.
    let source_role = match learned_from {
        None => return true,
        Some((_, Some(role))) => role,
        Some((_, None)) => return false,
    };
    match target_role {
        // Full-transit customers get the whole table.
        Role::Customer => true,
        // Partial-transit customers get the customer cone plus the
        // contracted region.
        Role::PartialTransitCustomer { region } => {
            source_role.is_customer_learned() || route.has_community(region)
        }
        // Peers and providers get only the customer cone.
        Role::Peer | Role::Provider => source_role.is_customer_learned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use crate::types::Prefix;

    const EU: Community = Community(65000, 1);

    fn route_via(asns: &[u32]) -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r
    }

    /// Local AS 100 with: customer 1, provider 2, peer 3 (EU-tagged),
    /// partial-transit customer 4 (EU region).
    fn policy() -> PolicyConfig {
        let mut p = PolicyConfig::new();
        p.set_role(Asn(1), Role::Customer)
            .set_role(Asn(2), Role::Provider)
            .set_role(Asn(3), Role::Peer)
            .set_role(Asn(4), Role::PartialTransitCustomer { region: EU })
            .set_region_tag(Asn(3), EU);
        p
    }

    #[test]
    fn import_sets_local_pref_by_role() {
        let p = policy();
        assert_eq!(p.import(Asn(100), Asn(1), route_via(&[1])).unwrap().local_pref, 200);
        assert_eq!(p.import(Asn(100), Asn(3), route_via(&[3])).unwrap().local_pref, 150);
        assert_eq!(p.import(Asn(100), Asn(2), route_via(&[2])).unwrap().local_pref, 100);
        assert_eq!(p.import(Asn(100), Asn(4), route_via(&[4])).unwrap().local_pref, 200);
    }

    #[test]
    fn import_rejects_loops() {
        let p = policy();
        assert!(p.import(Asn(100), Asn(1), route_via(&[1, 100, 7])).is_none());
    }

    #[test]
    fn import_rejects_unknown_neighbor() {
        let p = policy();
        assert!(p.import(Asn(100), Asn(99), route_via(&[99])).is_none());
    }

    #[test]
    fn import_tags_region() {
        let p = policy();
        let r = p.import(Asn(100), Asn(3), route_via(&[3])).unwrap();
        assert!(r.has_community(EU));
        let r = p.import(Asn(100), Asn(2), route_via(&[2])).unwrap();
        assert!(!r.has_community(EU));
    }

    #[test]
    fn gao_rexford_export_matrix() {
        let p = policy();
        let customer_route = route_via(&[1]);
        let peer_route = route_via(&[3]);
        let provider_route = route_via(&[2]);

        // Customer-learned exports to everyone (except the source).
        assert!(p.may_export(&customer_route, Some(Asn(1)), Asn(2)));
        assert!(p.may_export(&customer_route, Some(Asn(1)), Asn(3)));
        assert!(p.may_export(&customer_route, Some(Asn(1)), Asn(4)));
        assert!(!p.may_export(&customer_route, Some(Asn(1)), Asn(1)), "no re-export to source");

        // Peer-learned: only to customers (and PT customers via region).
        assert!(!p.may_export(&peer_route, Some(Asn(3)), Asn(2)), "peer→provider is a valley");
        assert!(p.may_export(&peer_route, Some(Asn(3)), Asn(1)));

        // Provider-learned: only to customers.
        assert!(p.may_export(&provider_route, Some(Asn(2)), Asn(1)));
        assert!(!p.may_export(&provider_route, Some(Asn(2)), Asn(3)), "provider→peer is a valley");
    }

    #[test]
    fn partial_transit_gets_region_routes_only() {
        let p = policy();
        // Route imported from the EU peer carries the EU tag.
        let eu_route = p.import(Asn(100), Asn(3), route_via(&[3])).unwrap();
        assert!(p.may_export(&eu_route, Some(Asn(3)), Asn(4)), "EU peer route → PT customer");
        // Provider-learned, untagged: not in the PT contract.
        let provider_route = p.import(Asn(100), Asn(2), route_via(&[2])).unwrap();
        assert!(!p.may_export(&provider_route, Some(Asn(2)), Asn(4)));
        // Customer cone always flows.
        let cust_route = p.import(Asn(100), Asn(1), route_via(&[1])).unwrap();
        assert!(p.may_export(&cust_route, Some(Asn(1)), Asn(4)));
    }

    #[test]
    fn local_routes_export_everywhere() {
        let p = policy();
        let local = route_via(&[]);
        for n in [1, 2, 3, 4] {
            assert!(p.may_export(&local, None, Asn(n)), "to AS{n}");
        }
    }

    #[test]
    fn no_export_community_respected() {
        let p = policy();
        let r = route_via(&[1]).with_community(Community::NO_EXPORT);
        assert!(!p.may_export(&r, Some(Asn(1)), Asn(2)));
        assert!(!p.may_export(&r, Some(Asn(1)), Asn(1)));
    }

    #[test]
    fn export_to_unknown_neighbor_denied() {
        let p = policy();
        assert!(!p.may_export(&route_via(&[1]), Some(Asn(1)), Asn(99)));
    }

    #[test]
    fn routes_from_unknown_source_denied() {
        let p = policy();
        assert!(!p.may_export(&route_via(&[99]), Some(Asn(99)), Asn(1)));
    }
}
