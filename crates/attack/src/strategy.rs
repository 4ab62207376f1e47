//! The attack catalog: every strategy the campaign engine can mount.
//!
//! The taxonomy follows the hijack/interception/leak classification of
//! the routing-attack literature plus the PVR paper's own Byzantine
//! catalog (`pvr_core::adversary`):
//!
//! | strategy            | family      | Plain      | Signed        | Pvr                    |
//! |---------------------|-------------|------------|---------------|------------------------|
//! | prefix hijack       | Hijack      | poisons    | blocked (ROV) | blocked (ROV)          |
//! | sub-prefix hijack   | Hijack      | poisons    | blocked (ROV) | blocked (ROV)          |
//! | route leak          | Leak        | poisons    | **poisons, undetected** | detected (gossip audit) |
//! | forged attestation  | Attestation | poisons    | blocked       | blocked                |
//! | truncated chain     | Attestation | poisons    | blocked       | blocked                |
//! | bogus promise       | Promise     | unobserved | unobserved    | detected (PVR round)   |
//! | protocol misbehavior| Protocol    | unobserved | unobserved    | detected (PVR round)   |
//!
//! The route-leak row is the paper's motivation in one line: S-BGP
//! attests *paths*, not *policies*, so a leak sails through signed
//! infrastructure — only promise verification catches it.

use crate::cell::CellContext;
use crate::metrics::AttackOutcome;
use pvr_bgp::{
    AsPath, Attestation, AttestationChain, BgpNetwork, BgpUpdate, Malice, Route, SignedRoute,
};
use pvr_core::Misbehavior;

/// The security posture a campaign cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SecurityMode {
    /// Plain BGP: no signatures, no origin validation, no PVR.
    Plain,
    /// S-BGP path attestations plus route-origin validation.
    Signed,
    /// `Signed` plus PVR promise verification and the gossip audit.
    Pvr,
}

impl SecurityMode {
    /// All modes, in escalation order.
    pub const ALL: [SecurityMode; 3] =
        [SecurityMode::Plain, SecurityMode::Signed, SecurityMode::Pvr];

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            SecurityMode::Plain => "plain",
            SecurityMode::Signed => "signed",
            SecurityMode::Pvr => "pvr",
        }
    }
}

/// Attack families; detection expectations are per-family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// Unauthorized origination of someone else's address space.
    Hijack,
    /// Policy-violating re-export of genuinely learned routes.
    Leak,
    /// Announcements whose attestation chain is forged or truncated.
    Attestation,
    /// A promise the committer does not actually implement.
    Promise,
    /// Byzantine behaviour inside the PVR protocol itself.
    Protocol,
}

impl AttackKind {
    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Hijack => "hijack",
            AttackKind::Leak => "leak",
            AttackKind::Attestation => "attestation",
            AttackKind::Promise => "promise",
            AttackKind::Protocol => "protocol",
        }
    }
}

/// One mountable attack. Implementations are stateless and shared
/// across worker threads; everything cell-specific arrives via the
/// [`CellContext`].
pub trait AttackStrategy: Send + Sync {
    /// Stable row name for tables and JSON.
    fn name(&self) -> &str;
    /// The family this strategy belongs to.
    fn kind(&self) -> AttackKind;
    /// Mounts the attack in `ctx` and scores it.
    fn execute(&self, ctx: &CellContext) -> AttackOutcome;
}

/// The full catalog, in canonical row order: the five routing-plane
/// strategies, the bogus promise, and one protocol strategy per
/// remaining `Misbehavior` variant.
pub fn catalog() -> Vec<Box<dyn AttackStrategy>> {
    let mut out: Vec<Box<dyn AttackStrategy>> = vec![
        Box::new(PrefixHijack),
        Box::new(SubPrefixHijack),
        Box::new(RouteLeak),
        Box::new(ForgedAttestation),
        Box::new(TruncatedChain),
        Box::new(BogusPromise),
    ];
    // `ExportLonger` is the bogus promise above; the rest of the
    // Misbehavior catalog rides in as protocol attacks. The dummy
    // victim is replaced per-cell once the bed (and its minimum-route
    // holder) exists.
    for (index, m) in Misbehavior::catalog(pvr_bgp::Asn(0)).into_iter().enumerate() {
        if matches!(m, Misbehavior::ExportLonger) {
            continue;
        }
        out.push(Box::new(ProtocolAttack { index, name: format!("pvr-{}", m.label()) }));
    }
    out
}

/// Originate the victim's exact prefix from the attacker.
pub struct PrefixHijack;

impl AttackStrategy for PrefixHijack {
    fn name(&self) -> &str {
        "prefix-hijack"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Hijack
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_topology_attack(
            &[ctx.victim_prefix],
            |net, c| net.router_mut(c.attacker).originate(c.victim_prefix),
            None,
        )
    }
}

/// Originate a more-specific prefix inside the victim's block:
/// longest-prefix match steers the covered traffic to the attacker even
/// where the victim's own route survives.
pub struct SubPrefixHijack;

/// The attacker's more-specific: one extra prefix bit.
pub fn sub_prefix_of(p: pvr_bgp::Prefix) -> pvr_bgp::Prefix {
    pvr_bgp::Prefix::new(p.addr(), (p.len() + 1).min(32))
}

impl AttackStrategy for SubPrefixHijack {
    fn name(&self) -> &str {
        "subprefix-hijack"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Hijack
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        let sub = sub_prefix_of(ctx.victim_prefix);
        ctx.run_topology_attack(
            &[ctx.victim_prefix, sub],
            move |net, c| net.router_mut(c.attacker).originate(sub),
            None,
        )
    }
}

/// Re-export everything to everyone: the customer→provider route leak.
pub struct RouteLeak;

impl AttackStrategy for RouteLeak {
    fn name(&self) -> &str {
        "route-leak"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Leak
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_topology_attack(
            &[ctx.victim_prefix],
            |net, c| net.router_mut(c.attacker).set_malice(Malice { leak_all: true }),
            None,
        )
    }
}

/// Builds the attacker's fabricated two-hop route `[attacker, victim]`
/// for the victim prefix and sends one copy to each neighbor. In signed
/// modes the inner "victim" attestation is forged (signed with the
/// attacker's key); in plain mode the announcement is simply unsigned.
fn inject_short_path(net: &mut BgpNetwork, ctx: &CellContext, forged_chain: bool) {
    let mut route = Route::originate(ctx.victim_prefix);
    route.path = AsPath::from_slice(&[ctx.attacker, ctx.victim]);
    let identity = net.router(ctx.attacker).identity().cloned().filter(|_| forged_chain);
    // The inner attestation impersonates the victim but carries the
    // attacker's signature; the attacker's own (outer) attestations
    // over it are genuine — exactly what chain verification exists to
    // catch.
    let forged_inner = identity.as_ref().map(|id| {
        let own = AsPath::from_slice(&[ctx.attacker]);
        let none = AttestationChain::empty();
        let inner = Attestation {
            signer: ctx.victim,
            path: AsPath::from_slice(&[ctx.victim]),
            target: ctx.attacker,
            ..Attestation::create(id, ctx.victim_prefix, &own, ctx.victim, &none)
        };
        AttestationChain::from_attestations(vec![inner])
    });
    for (neighbor, _) in ctx.topology.neighbor_roles(ctx.attacker) {
        if neighbor == ctx.victim {
            continue; // the victim would loop-reject its own ASN anyway
        }
        let sr = match (&identity, &forged_inner) {
            (Some(id), Some(below)) => {
                let outer =
                    Attestation::create(id, ctx.victim_prefix, &route.path, neighbor, below);
                SignedRoute::with_chain(route.clone(), below.push(outer))
            }
            _ => SignedRoute::unsigned(route.clone()),
        };
        let update = BgpUpdate { announces: vec![sr], withdraws: vec![] };
        let (src, dst) = (net.node_of(ctx.attacker), net.node_of(neighbor));
        net.sim.inject(src, dst, update);
    }
}

/// Announce a fabricated short path with a forged attestation chain.
pub struct ForgedAttestation;

impl AttackStrategy for ForgedAttestation {
    fn name(&self) -> &str {
        "forged-attestation"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Attestation
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_topology_attack(
            &[ctx.victim_prefix],
            |_, _| {},
            Some(&|net: &mut BgpNetwork, c: &CellContext| {
                let forged = c.mode != SecurityMode::Plain;
                inject_short_path(net, c, forged);
            }),
        )
    }
}

/// Shorten a genuinely learned route by splicing out the middle of its
/// attestation chain (path-shortening / interception attack).
pub struct TruncatedChain;

impl AttackStrategy for TruncatedChain {
    fn name(&self) -> &str {
        "truncated-chain"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Attestation
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_topology_attack(
            &[ctx.victim_prefix],
            |_, _| {},
            Some(&|net: &mut BgpNetwork, c: &CellContext| {
                if c.mode == SecurityMode::Plain {
                    // No chains to truncate: the plain-mode equivalent is
                    // announcing the shortened path outright.
                    inject_short_path(net, c, false);
                    return;
                }
                // Take the chain the attacker genuinely received and keep
                // only its endpoints: the victim's origination and a fresh
                // attacker attestation over the shortened path. The
                // origination's target still names the victim's real first
                // hop, which is what verification trips on.
                let genuine = {
                    let router = net.router(c.attacker);
                    let Some(best) = router.best_route(c.victim_prefix) else { return };
                    let Some(from) = best.learned_from else { return };
                    let Some(chain) = router.received_chain(from, c.victim_prefix) else { return };
                    chain.clone()
                };
                let Some(origin_att) = genuine.chain().origin() else { return };
                let Some(identity) = net.router(c.attacker).identity().cloned() else { return };
                let mut route = Route::originate(c.victim_prefix);
                route.path = AsPath::from_slice(&[c.attacker, c.victim]);
                for (neighbor, _) in c.topology.neighbor_roles(c.attacker) {
                    if neighbor == c.victim {
                        continue;
                    }
                    let below = AttestationChain::from_attestations(vec![origin_att.clone()]);
                    let outer = Attestation::create(
                        &identity,
                        c.victim_prefix,
                        &route.path,
                        neighbor,
                        &below,
                    );
                    let sr = SignedRoute::with_chain(route.clone(), below.push(outer));
                    let update = BgpUpdate { announces: vec![sr], withdraws: vec![] };
                    let (src, dst) = (net.node_of(c.attacker), net.node_of(neighbor));
                    net.sim.inject(src, dst, update);
                }
            }),
        )
    }
}

/// Promise the shortest route, export a longer one (`ExportLonger`):
/// the paper's Figure-1 violation, undetectable below PVR.
pub struct BogusPromise;

impl AttackStrategy for BogusPromise {
    fn name(&self) -> &str {
        "bogus-promise"
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Promise
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_pvr_round_attack(|_| Misbehavior::ExportLonger)
    }
}

/// One Byzantine strategy from `pvr_core::adversary`, mounted inside a
/// PVR round. `index` addresses `Misbehavior::catalog`, re-derived per
/// cell so victim-targeted variants aim at the bed's minimum holder.
pub struct ProtocolAttack {
    pub(crate) index: usize,
    pub(crate) name: String,
}

impl AttackStrategy for ProtocolAttack {
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> AttackKind {
        AttackKind::Protocol
    }
    fn execute(&self, ctx: &CellContext) -> AttackOutcome {
        ctx.run_pvr_round_attack(|bed| Misbehavior::catalog(bed.ns[0])[self.index].clone())
    }
}
