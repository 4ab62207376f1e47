//! Update workloads: flaps, bursts, and randomized churn.
//!
//! §3.8 motivates batching with "BGP message bursts"; experiment E8
//! measures PVR overhead under realistic churn. These helpers attach
//! scheduled announce/withdraw events to a [`Topology`].

use crate::router::LocalEvent;
use crate::topology::Topology;
use crate::types::{Asn, Prefix};
use pvr_crypto::drbg::HmacDrbg;
use pvr_netsim::SimDuration;

/// Schedules `count` announce/withdraw flap cycles of `prefix` at `asn`,
/// starting at `start` with `period` between state changes.
pub fn flap(
    topology: &mut Topology,
    asn: Asn,
    prefix: Prefix,
    start: SimDuration,
    period: SimDuration,
    count: usize,
) {
    let mut at = start;
    for i in 0..count * 2 {
        let event =
            if i % 2 == 0 { LocalEvent::Withdraw(prefix) } else { LocalEvent::Announce(prefix) };
        topology.schedule(asn, at, event);
        at = at + period;
    }
}

/// Schedules a burst: `n` fresh prefixes announced by `asn` at `at`.
/// Prefixes are carved from `10.200.x.y/24`. Returns the prefixes.
pub fn burst(topology: &mut Topology, asn: Asn, at: SimDuration, n: usize) -> Vec<Prefix> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let prefix = if i < 256 {
            // One /24 per index.
            Prefix::new((10u32 << 24) | (200u32 << 16) | ((i as u32 & 0xff) << 8), 24)
        } else {
            // Beyond 256 the /24 space is exhausted: widen into /32 host
            // routes, keeping the low bits of `i` so every index still
            // yields a distinct prefix.
            Prefix::new(
                (10u32 << 24)
                    | (200u32 << 16)
                    | (((i as u32 >> 8) & 0xff) << 8)
                    | (i as u32 & 0xff),
                32,
            )
        };
        topology.schedule(asn, at, LocalEvent::Announce(prefix));
        out.push(prefix);
    }
    out
}

/// Randomized churn: each event re-announces or withdraws a random
/// origination from `candidates`. Deterministic in `seed`.
pub fn churn(
    topology: &mut Topology,
    candidates: &[(Asn, Prefix)],
    events: usize,
    start: SimDuration,
    spacing: SimDuration,
    seed: u64,
) {
    assert!(!candidates.is_empty());
    let mut rng = HmacDrbg::from_u64_labeled(seed, "workload-churn");
    let mut at = start;
    for _ in 0..events {
        let (asn, prefix) = candidates[rng.index(candidates.len())];
        let event = if rng.chance(0.5) {
            LocalEvent::Withdraw(prefix)
        } else {
            LocalEvent::Announce(prefix)
        };
        topology.schedule(asn, at, event);
        at = at + spacing;
    }
}

/// Sustained steady-state churn: each event withdraws a random
/// origination and re-announces it half a `spacing` later, so every
/// event is a guaranteed RIB change (unlike [`churn`], whose random
/// re-announcements of an already-announced prefix are no-ops) and the
/// network ends in the same state as a never-churned baseline.
///
/// Returns the `(time, origin, prefix)` withdraw schedule — the
/// reference points experiment E16 measures per-event route-settle
/// times against. Deterministic in `seed`.
pub fn continuous_churn(
    topology: &mut Topology,
    candidates: &[(Asn, Prefix)],
    events: usize,
    start: SimDuration,
    spacing: SimDuration,
    seed: u64,
) -> Vec<(SimDuration, Asn, Prefix)> {
    assert!(!candidates.is_empty());
    assert!(spacing.as_micros() >= 2, "spacing must fit a withdraw/announce pair");
    let mut rng = HmacDrbg::from_u64_labeled(seed, "workload-continuous-churn");
    let half = SimDuration::from_micros(spacing.as_micros() / 2);
    let mut at = start;
    let mut schedule = Vec::with_capacity(events);
    for _ in 0..events {
        let (asn, prefix) = candidates[rng.index(candidates.len())];
        topology.schedule(asn, at, LocalEvent::Withdraw(prefix));
        topology.schedule(asn, at + half, LocalEvent::Announce(prefix));
        schedule.push((at, asn, prefix));
        at = at + spacing;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::InstantiateOptions;
    use pvr_netsim::RunLimits;

    #[test]
    fn burst_prefixes_are_distinct_past_256() {
        let mut t = Topology::new();
        let prefixes = burst(&mut t, Asn(1), SimDuration::from_micros(0), 600);
        assert_eq!(prefixes.len(), 600);
        let unique: std::collections::BTreeSet<_> = prefixes.iter().copied().collect();
        assert_eq!(unique.len(), 600, "burst() must return fresh, non-colliding prefixes");
    }

    fn base() -> (Topology, Asn, Asn, Prefix) {
        // AS1 (origin, customer) — AS2 (provider) — observes updates.
        let mut t = Topology::new();
        let origin = Asn(1);
        let provider = Asn(2);
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();
        t.provider_customer(provider, origin);
        t.originate(origin, prefix);
        (t, origin, provider, prefix)
    }

    #[test]
    fn flap_generates_withdraw_announce_cycles() {
        let (mut t, origin, provider, prefix) = base();
        flap(
            &mut t,
            origin,
            prefix,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            3,
        );
        let mut net = t.instantiate(InstantiateOptions::default());
        net.converge(RunLimits::none());
        // After an odd number of flips… we scheduled withdraw,announce ×3,
        // so the route ends announced and the provider has it.
        assert!(net.router(provider).route_from(origin, prefix).is_some());
        // The provider saw at least initial + 6 updates.
        assert!(net.router(provider).stats().updates_rx >= 7);
    }

    #[test]
    fn burst_announces_n_prefixes() {
        let (mut t, origin, provider, _) = base();
        let ps = burst(&mut t, origin, SimDuration::from_millis(50), 10);
        assert_eq!(ps.len(), 10);
        let mut net = t.instantiate(InstantiateOptions::default());
        net.converge(RunLimits::none());
        for p in ps {
            assert!(net.router(provider).route_from(origin, p).is_some(), "{p}");
        }
    }

    #[test]
    fn churn_is_deterministic_and_converges() {
        let (mut t, origin, _, prefix) = base();
        churn(
            &mut t,
            &[(origin, prefix)],
            20,
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            99,
        );
        let mut net = t.instantiate(InstantiateOptions::default());
        net.converge(RunLimits::none());
        let stats_a = net.router(Asn(2)).stats().clone();

        // Re-run identically: byte-for-byte the same.
        let (mut t2, origin2, _, prefix2) = base();
        churn(
            &mut t2,
            &[(origin2, prefix2)],
            20,
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            99,
        );
        let mut net2 = t2.instantiate(InstantiateOptions::default());
        net2.converge(RunLimits::none());
        assert_eq!(net2.router(Asn(2)).stats(), &stats_a);
    }

    #[test]
    fn continuous_churn_recovers_to_baseline() {
        let (t_base, _, _, _) = base();
        let mut baseline = t_base.instantiate(InstantiateOptions::default());
        baseline.converge(RunLimits::none());

        let (mut t, origin, provider, prefix) = base();
        let schedule = continuous_churn(
            &mut t,
            &[(origin, prefix)],
            12,
            SimDuration::from_millis(100),
            SimDuration::from_millis(40),
            7,
        );
        assert_eq!(schedule.len(), 12);
        let mut churned = t.instantiate(InstantiateOptions::default());
        churned.converge(RunLimits::none());
        // Every cycle re-announces, so the steady state matches the
        // never-churned baseline...
        assert_eq!(
            churned.router(provider).route_from(origin, prefix),
            baseline.router(provider).route_from(origin, prefix),
        );
        // ...and every event really flapped (withdraw + re-announce
        // both crossed the wire).
        assert!(churned.router(provider).stats().updates_rx > 2 * 12);
    }
}

#[cfg(test)]
mod dampening_tests {
    use super::*;
    use crate::dampening::DampeningPolicy;
    use crate::topology::InstantiateOptions;
    use pvr_netsim::{RunLimits, SimTime};

    #[test]
    fn dampening_suppresses_persistent_flapping_then_recovers() {
        let mut t = Topology::new();
        let origin = Asn(1);
        let provider = Asn(2);
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();
        t.provider_customer(provider, origin);
        t.originate(origin, prefix);
        // 8 rapid flap cycles, 5 ms apart — far inside the 200 ms
        // half-life, so the penalty ratchets past suppression.
        flap(&mut t, origin, prefix, SimDuration::from_millis(50), SimDuration::from_millis(5), 8);

        let mut net = t.instantiate(InstantiateOptions {
            dampening: Some(DampeningPolicy::default()),
            ..Default::default()
        });
        // Stop inside the flap train: the pair is suppressed and the
        // router's suppressed-pair count has to say so.
        net.converge(RunLimits::until(SimTime::ZERO + SimDuration::from_millis(85)));
        assert!(net.router(provider).damp_state(origin, prefix).is_some_and(|s| s.suppressed));
        net.router(provider).check_invariants().expect("count tracks a suppressed pair");
        net.converge(RunLimits::none());
        net.router(provider).check_invariants().expect("count tracks the release");
        let stats = net.router(provider).stats().clone();
        assert!(stats.dampening_suppressed > 0, "rapid flaps must trip suppression");
        // The flap schedule ends announced: once the penalty decays
        // below reuse, the parked announcement installs and the steady
        // state matches an undamped run — and the reuse timer stops
        // re-arming, or converge() would never return.
        assert!(net.router(provider).route_from(origin, prefix).is_some());
    }
}

#[cfg(test)]
mod mrai_tests {
    use super::*;
    use crate::messages::BgpUpdate;
    use crate::route::Route;
    use crate::sbgp::SignedRoute;
    use crate::topology::InstantiateOptions;
    use crate::types::{Asn, Prefix};
    use pvr_netsim::RunLimits;

    fn flappy_topology() -> (Topology, Asn, Asn, Prefix) {
        let mut t = Topology::new();
        let origin = Asn(1);
        let provider = Asn(2);
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();
        t.provider_customer(provider, origin);
        t.originate(origin, prefix);
        // 10 rapid flaps, 1 ms apart — well inside a 100 ms MRAI window.
        flap(&mut t, origin, prefix, SimDuration::from_millis(50), SimDuration::from_millis(1), 10);
        (t, origin, provider, prefix)
    }

    #[test]
    fn mrai_suppresses_flap_churn() {
        let (t, origin, provider, prefix) = flappy_topology();

        let mut fast = t.instantiate(InstantiateOptions::default());
        fast.converge(RunLimits::none());
        let updates_without = fast.router(provider).stats().updates_rx;

        let mut damped = t.instantiate(InstantiateOptions {
            mrai: Some(SimDuration::from_millis(100)),
            ..Default::default()
        });
        damped.converge(RunLimits::none());
        let updates_with = damped.router(provider).stats().updates_rx;

        assert!(
            updates_with < updates_without,
            "MRAI should reduce updates: {updates_with} vs {updates_without}"
        );
        // Final state must agree: the route ends up announced either way.
        assert!(fast.router(provider).route_from(origin, prefix).is_some());
        assert!(damped.router(provider).route_from(origin, prefix).is_some());
    }

    #[test]
    fn mrai_preserves_final_state_on_withdrawal() {
        // End on a withdrawal: the damped router must converge to
        // "no route" too (the merge logic must not lose the withdraw).
        let mut t = Topology::new();
        let origin = Asn(1);
        let provider = Asn(2);
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();
        t.provider_customer(provider, origin);
        t.originate(origin, prefix);
        t.schedule(origin, SimDuration::from_millis(50), LocalEvent::Withdraw(prefix));
        t.schedule(origin, SimDuration::from_millis(51), LocalEvent::Announce(prefix));
        t.schedule(origin, SimDuration::from_millis(52), LocalEvent::Withdraw(prefix));

        let mut net = t.instantiate(InstantiateOptions {
            mrai: Some(SimDuration::from_millis(100)),
            ..Default::default()
        });
        net.converge(RunLimits::none());
        assert!(net.router(provider).route_from(origin, prefix).is_none());
    }

    #[test]
    fn update_merge_semantics() {
        let prefix = Prefix::parse("10.0.0.0/8").unwrap();
        let mk = |asns: &[u32]| {
            let mut r = Route::originate(prefix);
            for &a in asns.iter().rev() {
                r = r.propagated_by(Asn(a));
            }
            SignedRoute::unsigned(r)
        };
        // announce then withdraw → withdraw only.
        let mut u = BgpUpdate { announces: vec![mk(&[1])], withdraws: vec![] };
        u.merge(BgpUpdate { announces: vec![], withdraws: vec![prefix] });
        assert!(u.announces.is_empty());
        assert_eq!(u.withdraws, vec![prefix]);
        // withdraw then announce → announce only.
        u.merge(BgpUpdate { announces: vec![mk(&[2])], withdraws: vec![] });
        assert!(u.withdraws.is_empty());
        assert_eq!(u.announces.len(), 1);
        assert_eq!(u.announces[0].route.path.asns(), &[Asn(2)]);
        // newer announcement replaces older for the same prefix.
        u.merge(BgpUpdate { announces: vec![mk(&[3])], withdraws: vec![] });
        assert_eq!(u.announces.len(), 1);
        assert_eq!(u.announces[0].route.path.asns(), &[Asn(3)]);
    }
}
