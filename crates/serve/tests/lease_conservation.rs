//! Property tests for the coordinator's lease table, mirroring
//! `arbiter_conservation.rs` one layer up: under random interleavings of
//! grants, renewals, clock advances, releases, and revocations —
//!
//! - the live commitments never exceed the unencumbered pool (so the
//!   fleet-wide sum never exceeds the global cap, even mid-ramp),
//! - every committed budget stays non-negative and every expired lease's
//!   encumbrance stays at most the floor,
//! - and replaying the journaled ops reproduces the *exact* table — same
//!   epoch, same tick, same lease ids, bit-identical budgets — so a
//!   SIGKILLed coordinator re-adopts instead of double-granting.

use acs_serve::lease::CoordJournalEntry;
use acs_serve::{replay_coordinator, ArbiterPolicy, CoordRequest, LeaseTable};
use proptest::prelude::*;

const CAP_W: f64 = 100.0;
const FLOOR_W: f64 = 4.0;
const TTL_TICKS: u64 = 6;

fn policy_from(n: u8) -> ArbiterPolicy {
    if n.is_multiple_of(2) {
        ArbiterPolicy::EqualShare
    } else {
        ArbiterPolicy::DemandProportional
    }
}

/// One encoded operation against the table. The clock advances by `dt`
/// first, exactly as the coordinator does under its table lock, and the
/// operation goes through the coordinator's own apply-and-journal path.
fn apply(
    table: &mut LeaseTable,
    journal: &mut Vec<CoordJournalEntry>,
    op: u8,
    pick: u64,
    demand_w: f64,
    dt: u64,
) {
    table.advance_to(table.tick() + dt);
    let pick_from = |ids: Vec<u64>| ids.get(pick as usize % ids.len().max(1)).copied();
    let request = match op % 4 {
        0 => Some(CoordRequest::Lease { shard_id: None, demand_w }),
        1 => pick_from(table.live_ids()).map(|lease_id| CoordRequest::Renew {
            lease_id,
            epoch: table.epoch(),
            demand_w,
        }),
        2 => pick_from(table.live_ids()).map(|lease_id| CoordRequest::Release { lease_id }),
        _ => pick_from(table.encumbered_ids()).map(|lease_id| CoordRequest::Revoke { lease_id }),
    };
    let Some(request) = request else { return };
    let epoch_before = table.epoch();
    match table.apply(&request, 0) {
        Ok((_, entry)) => journal.push(entry),
        // Rejections (denied grants) leave no trace: nothing journaled,
        // nothing bumped.
        Err(_) => assert_eq!(table.epoch(), epoch_before),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(192))]

    /// Fleet-wide conservation holds after every op: live commitments fit
    /// inside the unencumbered pool, the total never exceeds the cap, and
    /// no lease ever commits a negative or floor-busting amount.
    #[test]
    fn commitments_never_exceed_the_cap_under_random_churn(
        policy in 0u8..2,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..160),
    ) {
        let mut table =
            LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, 0);
        let mut journal = Vec::new();
        for (i, &(op, pick, demand_w, dt)) in ops.iter().enumerate() {
            apply(&mut table, &mut journal, op, pick, demand_w, dt);
            prop_assert!(
                table.overshoot_w() == 0.0,
                "op {} ({},{},{},{}): live {} W overshoots pool {} W",
                i, op, pick, demand_w, dt,
                table.live_committed_w(), table.pool_w()
            );
            prop_assert!(
                table.fleet_committed_w() <= CAP_W + 1e-9,
                "op {}: fleet committed {} W exceeds the {} W cap",
                i, table.fleet_committed_w(), CAP_W
            );
            for (id, lease) in table.snapshot() {
                prop_assert!(
                    lease.committed_w >= 0.0,
                    "lease {} committed a negative {} W", id, lease.committed_w
                );
                if !lease.live {
                    prop_assert!(
                        lease.committed_w <= FLOOR_W + 1e-9,
                        "expired lease {} encumbers {} W above the {} W floor",
                        id, lease.committed_w, FLOOR_W
                    );
                }
            }
        }
    }

    /// Replaying the journal reproduces the exact table: every counter,
    /// every lease id, every budget bit. In particular `next_lease`
    /// matches, so a restarted coordinator can never hand a granted id
    /// out twice (no double-grant after replay).
    #[test]
    fn journal_replay_reproduces_the_exact_table(
        policy in 0u8..2,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..120),
    ) {
        let mut live = LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, 0);
        let mut journal = Vec::new();
        for &(op, pick, demand_w, dt) in &ops {
            apply(&mut live, &mut journal, op, pick, demand_w, dt);
        }

        let (mut replayed, recovery) =
            replay_coordinator(&journal, CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, 0)
                .expect("a faithfully recorded journal replays");
        prop_assert_eq!(recovery.replayed, journal.len() as u64);
        // The restarted coordinator's first act is advancing to the
        // current tick, which re-runs any expirations that happened after
        // the last journaled op.
        replayed.advance_to(live.tick());

        prop_assert_eq!(replayed.epoch(), live.epoch());
        prop_assert_eq!(replayed.tick(), live.tick());
        prop_assert_eq!(replayed.next_lease(), live.next_lease());
        prop_assert_eq!(replayed.grants(), live.grants());
        prop_assert_eq!(replayed.renews(), live.renews());
        prop_assert_eq!(replayed.expirations(), live.expirations());
        prop_assert_eq!(replayed.revocations(), live.revocations());
        prop_assert_eq!(replayed.live_ids(), live.live_ids());
        prop_assert_eq!(replayed.encumbered_ids(), live.encumbered_ids());
        for (id, lease) in live.snapshot() {
            let got = *replayed.lease(id).expect("replay kept every lease");
            prop_assert_eq!(got, lease, "lease {} diverged after replay", id);
            prop_assert_eq!(
                got.committed_w.to_bits(),
                lease.committed_w.to_bits(),
                "lease {} budget is not bit-identical", id
            );
        }
    }

    /// With health-checked eviction armed, the same random op storms must
    /// keep exact-sum conservation while expired leases are *removed* —
    /// no zombie encumbrance survives past the horizon — and a grant
    /// after an eviction re-admits against the reclaimed pool. Replay at
    /// the same horizon still reproduces the bit-exact table, eviction
    /// counters included, even though evictions are never journaled.
    #[test]
    fn eviction_reclaims_zombies_and_replays_exactly_under_random_storms(
        policy in 0u8..2,
        horizon in 1u64..5,
        ops in prop::collection::vec(
            (0u8..4, 0u64..16, 0.0..60.0f64, 0u64..4), 1..120),
    ) {
        let mut live = LeaseTable::new(CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, horizon);
        let mut journal = Vec::new();
        for (i, &(op, pick, demand_w, dt)) in ops.iter().enumerate() {
            apply(&mut live, &mut journal, op, pick, demand_w, dt);
            prop_assert!(
                live.overshoot_w() == 0.0,
                "op {}: live {} W overshoots pool {} W under eviction",
                i, live.live_committed_w(), live.pool_w()
            );
            prop_assert!(
                live.fleet_committed_w() <= CAP_W + 1e-9,
                "op {}: fleet committed {} W exceeds the {} W cap under eviction",
                i, live.fleet_committed_w(), CAP_W
            );
            for (id, lease) in live.snapshot() {
                if !lease.live {
                    prop_assert!(
                        lease.expired_tick + horizon > live.tick(),
                        "op {}: lease {} expired at {} should have been evicted by {}",
                        i, id, lease.expired_tick, live.tick()
                    );
                }
            }
        }

        let (mut replayed, recovery) =
            replay_coordinator(&journal, CAP_W, policy_from(policy), TTL_TICKS, FLOOR_W, horizon)
                .expect("a faithfully recorded journal replays under eviction");
        prop_assert_eq!(recovery.replayed, journal.len() as u64);
        replayed.advance_to(live.tick());

        prop_assert_eq!(replayed.epoch(), live.epoch());
        prop_assert_eq!(replayed.next_lease(), live.next_lease());
        prop_assert_eq!(replayed.evictions(), live.evictions());
        prop_assert_eq!(replayed.live_ids(), live.live_ids());
        prop_assert_eq!(replayed.encumbered_ids(), live.encumbered_ids());
        for (id, lease) in live.snapshot() {
            let got = *replayed.lease(id).expect("replay kept every surviving lease");
            prop_assert_eq!(got, lease, "lease {} diverged after eviction replay", id);
            prop_assert_eq!(
                got.committed_w.to_bits(),
                lease.committed_w.to_bits(),
                "lease {} budget is not bit-identical under eviction", id
            );
        }
    }
}
