//! Fleet power leases: the coordinator's lease table and the shard's
//! degraded-mode state machine.
//!
//! The per-process [`Arbiter`](crate::arbiter::Arbiter) keeps one shard's
//! sessions under one cap. This module scales that invariant to a fleet:
//! a **coordinator** owns the global budget and leases time-bounded
//! slices of it to `acs serve` shards; each shard runs its arbiter
//! *inside* its lease ([`Arbiter::set_global_cap`] is the binding).
//!
//! ## Safety model
//!
//! The conservation target is asymmetric: the fleet must **never exceed**
//! the global cap, even when the coordinator is dead or a shard is
//! partitioned, while full utilization is only required at quiescence.
//! Three rules deliver that:
//!
//! 1. **Commit-on-contact.** A lease's *committed* budget — the number
//!    the shard was actually told — changes only in responses to that
//!    shard's own requests. Rebalances move *targets*; a shard ramps
//!    toward its target at its next renewal, taking at most the watts
//!    other shards have already renewed down from. The sum of committed
//!    budgets therefore never exceeds the pool, and converges to it
//!    exactly (the exact-sum fold in [`ArbiterPolicy::split`]) once every
//!    live shard has renewed after a membership change.
//! 2. **Encumbrance at the floor.** A lease that misses its renewals
//!    expires, but its watts are not fully reclaimed: `min(floor,
//!    committed)` stays *encumbered* — reserved for the silent shard —
//!    because the shard's own degraded mode clamps to exactly that value.
//!    Only the watts above the floor return to the pool. A partitioned
//!    shard and the coordinator therefore agree on the shard's worst-case
//!    draw without communicating.
//! 3. **Epoch fencing.** Every applied operation bumps the table epoch;
//!    a lease records the epoch of its last grant/re-adoption/expiry as
//!    its *fence*. A renewal presenting an epoch older than the fence is
//!    rejected — the shard it came from has provably missed an expiry and
//!    must re-lease (which re-adopts its existing entry rather than
//!    double-granting).
//!
//! Shard side, [`ShardLease`] mirrors rule 2: on every missed renewal the
//! local cap halves toward `min(floor, last grant)`, and when the lease's
//! TTL passes by the shard's own clock it clamps there. The local cap is
//! monotone non-increasing between grants and never exceeds the last
//! granted budget — the invariant the fleet e2e asserts per shard.
//!
//! Time is **logical ticks** (the coordinator maps them to wall-clock
//! milliseconds via its `tick_ms`). Expirations are *recomputed* during
//! replay, never journaled: [`replay_coordinator`] advances the rebuilt
//! table to each entry's recorded tick before re-applying it through the
//! same [`LeaseTable::apply`] the coordinator serves with, so the exact
//! interleaving of expiries and operations is reproduced, then checks the
//! entry it yields against the recorded one
//! ([`JournalError::LeaseDivergence`] when history cannot be trusted).

use crate::arbiter::{ArbiterPolicy, EPS_W};
use crate::journal::JournalError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One lease's coordinator-side state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseState {
    /// The shard holding the lease (stable across re-adoptions).
    pub shard_id: u64,
    /// Budget actually communicated to the shard, W. For an expired
    /// (encumbered) lease this is the reserve held for the silent shard.
    pub committed_w: f64,
    /// The shard's last reported demand, W (drives demand-proportional
    /// targets).
    pub demand_w: f64,
    /// Logical tick at which the lease expires unless renewed.
    pub expires_tick: u64,
    /// Table epoch of the last grant/re-adoption/expiry — renewals
    /// presenting an older epoch are fenced off.
    pub fence: u64,
    /// Live (renewable) vs. expired-and-encumbered.
    pub live: bool,
    /// The tick the lease expired at (its own `expires_tick`, **not** the
    /// tick the expiry was detected at — detection depends on when
    /// `advance_to` runs, which replay does not reproduce). Zero while
    /// live. Drives health-checked eviction.
    pub expired_tick: u64,
}

/// Typed lease-table failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseError {
    /// The pool cannot fit another floor-sized lease right now; the shard
    /// should retry after the next renewal round frees ramp-down watts.
    Denied {
        /// The minimum grant (the floor), W.
        needed_w: f64,
        /// What the pool could actually offer, W.
        available_w: f64,
    },
    /// No such lease id.
    UnknownLease {
        /// The offending id.
        lease_id: u64,
    },
    /// The lease expired; the shard must re-lease (re-adopt).
    Expired {
        /// The expired lease.
        lease_id: u64,
    },
    /// The renewal's epoch predates the lease's fence: the shard missed
    /// an expiry and is operating on stale state.
    Fenced {
        /// The fenced lease.
        lease_id: u64,
        /// The fence the renewal had to clear.
        fence: u64,
        /// The epoch the renewal presented.
        presented: u64,
    },
}

impl LeaseError {
    /// Stable machine-readable code for [`CoordResponse::Rejected`].
    pub fn code(&self) -> &'static str {
        match self {
            LeaseError::Denied { .. } => "denied",
            LeaseError::UnknownLease { .. } => "unknown-lease",
            LeaseError::Expired { .. } => "expired",
            LeaseError::Fenced { .. } => "fenced",
        }
    }
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Denied { needed_w, available_w } => {
                write!(f, "grant denied: pool offers {available_w} W, floor is {needed_w} W")
            }
            LeaseError::UnknownLease { lease_id } => write!(f, "unknown lease {lease_id}"),
            LeaseError::Expired { lease_id } => {
                write!(f, "lease {lease_id} expired; re-lease to re-adopt")
            }
            LeaseError::Fenced { lease_id, fence, presented } => {
                write!(f, "lease {lease_id} fenced: presented epoch {presented}, fence is {fence}")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

/// What a successful grant or renewal tells the shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GrantOutcome {
    /// The lease id (stable across re-adoptions of the same shard).
    pub lease_id: u64,
    /// The shard id (assigned on first grant when the shard has none).
    pub shard_id: u64,
    /// Table epoch after the operation — present this on the next renewal.
    pub epoch: u64,
    /// The committed budget, W.
    pub budget_w: f64,
    /// Logical tick at which the lease expires unless renewed.
    pub expires_tick: u64,
}

/// The coordinator's lease table. Pure state machine — no I/O, no clock —
/// so the conservation proptests can drive it through arbitrary
/// interleavings. It changes only through [`Self::advance_to`] and
/// [`Self::apply`].
#[derive(Debug)]
pub struct LeaseTable {
    global_cap_w: f64,
    policy: ArbiterPolicy,
    ttl_ticks: u64,
    floor_w: f64,
    evict_after_ticks: u64,
    tick: u64,
    epoch: u64,
    next_lease: u64,
    /// One past the highest shard id ever granted: the lowest id an
    /// unnamed shard may take.
    next_shard: u64,
    leases: BTreeMap<u64, LeaseState>,
    grants: u64,
    renews: u64,
    expirations: u64,
    revocations: u64,
    evictions: u64,
}

impl LeaseTable {
    /// A table over a positive cap with `floor_w < global_cap_w` and a
    /// TTL of at least one tick. `evict_after_ticks > 0` enables
    /// health-checked eviction: an expired (encumbered) lease whose shard
    /// stays silent that many ticks past its expiry is removed entirely,
    /// returning its reserve to the pool — the operator's `Revoke`
    /// automated. `0` keeps the floor-parked-forever semantics. Eviction
    /// is a pure function of the logical clock, so replay reproduces it
    /// with no journal entry as long as the horizon matches.
    pub fn new(
        global_cap_w: f64,
        policy: ArbiterPolicy,
        ttl_ticks: u64,
        floor_w: f64,
        evict_after_ticks: u64,
    ) -> Self {
        assert!(global_cap_w > 0.0, "global cap must be positive");
        assert!(ttl_ticks >= 1, "a lease must live at least one tick");
        assert!(
            floor_w > 0.0 && floor_w < global_cap_w,
            "floor must be positive and below the cap"
        );
        Self {
            global_cap_w,
            policy,
            ttl_ticks,
            floor_w,
            evict_after_ticks,
            tick: 0,
            epoch: 0,
            next_lease: 1,
            next_shard: 1,
            leases: BTreeMap::new(),
            grants: 0,
            renews: 0,
            expirations: 0,
            revocations: 0,
            evictions: 0,
        }
    }

    /// Lifetime health-check evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Monotonic epoch, bumped by every applied operation and every expiry.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global cap, W.
    pub fn global_cap_w(&self) -> f64 {
        self.global_cap_w
    }

    /// The degraded-mode floor, W.
    pub fn floor_w(&self) -> f64 {
        self.floor_w
    }

    /// Lease TTL in ticks.
    pub fn ttl_ticks(&self) -> u64 {
        self.ttl_ticks
    }

    /// The lease id the next fresh grant will receive.
    pub fn next_lease(&self) -> u64 {
        self.next_lease
    }

    /// Lifetime grant count (fresh grants and re-adoptions).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Lifetime accepted-renewal count.
    pub fn renews(&self) -> u64 {
        self.renews
    }

    /// Lifetime expiry count.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Lifetime revocation count.
    pub fn revocations(&self) -> u64 {
        self.revocations
    }

    /// One lease's state.
    pub fn lease(&self, lease_id: u64) -> Option<&LeaseState> {
        self.leases.get(&lease_id)
    }

    /// All leases, ascending by id.
    pub fn snapshot(&self) -> Vec<(u64, LeaseState)> {
        self.leases.iter().map(|(id, l)| (*id, *l)).collect()
    }

    /// Ids of live (renewable) leases, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| l.live).map(|(id, _)| *id).collect()
    }

    /// Ids of expired-and-encumbered leases, ascending.
    pub fn encumbered_ids(&self) -> Vec<u64> {
        self.leases.iter().filter(|(_, l)| !l.live).map(|(id, _)| *id).collect()
    }

    /// Sum of live committed budgets, W.
    pub fn live_committed_w(&self) -> f64 {
        self.leases.values().filter(|l| l.live).map(|l| l.committed_w).sum()
    }

    /// Sum of encumbered reserves, W.
    pub fn encumbered_w(&self) -> f64 {
        self.leases.values().filter(|l| !l.live).map(|l| l.committed_w).sum()
    }

    /// Everything the fleet could be drawing per this table, W.
    pub fn fleet_committed_w(&self) -> f64 {
        self.live_committed_w() + self.encumbered_w()
    }

    /// Watts available to live leases: the cap minus encumbered reserves.
    pub fn pool_w(&self) -> f64 {
        self.global_cap_w - self.encumbered_w()
    }

    /// How far the live commitments exceed the pool, W — the conservation
    /// gate; must be exactly zero at all times.
    pub fn overshoot_w(&self) -> f64 {
        (self.live_committed_w() - self.pool_w()).max(0.0)
    }

    /// Advance logical time, processing overdue expiries and (when the
    /// horizon is enabled) evictions as one merged event stream ordered
    /// by `(event_tick, lease_id)` — an expiry's event tick is the
    /// lease's `expires_tick`, an eviction's is `expired_tick +
    /// evict_after_ticks`, both pure functions of lease state, so live
    /// and replay bump the epoch in the same order no matter how the
    /// intermediate clock advances differ. Each expiry fences the lease
    /// and shrinks its commitment to the encumbered reserve `min(floor,
    /// committed)`; each eviction removes the lease entirely, returning
    /// the reserve to the pool. Returns the expired ids.
    pub fn advance_to(&mut self, tick: u64) -> Vec<u64> {
        if tick > self.tick {
            self.tick = tick;
        }
        let mut expired = Vec::new();
        loop {
            // Earliest due event; recomputed each round because an expiry
            // inside this same call can schedule the lease's eviction.
            let mut next: Option<(u64, u64, bool)> = None;
            for (id, l) in &self.leases {
                let event = if l.live && l.expires_tick <= self.tick {
                    Some((l.expires_tick, *id, false))
                } else if !l.live
                    && self.evict_after_ticks > 0
                    && l.expired_tick.saturating_add(self.evict_after_ticks) <= self.tick
                {
                    Some((l.expired_tick + self.evict_after_ticks, *id, true))
                } else {
                    None
                };
                if let Some(e) = event {
                    if next.is_none_or(|n| e < n) {
                        next = Some(e);
                    }
                }
            }
            let Some((_, id, evict)) = next else { break };
            self.epoch += 1;
            if evict {
                self.evictions += 1;
                self.leases.remove(&id);
            } else {
                self.expirations += 1;
                let lease = self.leases.get_mut(&id).expect("selected above");
                lease.live = false;
                lease.committed_w = lease.committed_w.min(self.floor_w);
                lease.fence = self.epoch;
                lease.expired_tick = lease.expires_tick;
                expired.push(id);
            }
        }
        expired
    }

    /// Commit-on-contact: move `lease_id` toward its target, taking at
    /// most the watts currently free (pool minus live commitments), then
    /// clamp any floating-point overshoot back onto this lease so the
    /// live sum never exceeds the pool.
    fn settle(&mut self, lease_id: u64) {
        let live_ids = self.live_ids();
        let Some(pos) = live_ids.iter().position(|&id| id == lease_id) else {
            return;
        };
        let pool = self.pool_w();
        let target =
            self.policy.split(pool, live_ids.iter().map(|id| self.leases[id].demand_w))[pos];
        let free = (pool - self.live_committed_w()).max(0.0);
        let lease = self.leases.get_mut(&lease_id).expect("live lease");
        lease.committed_w = target.min(lease.committed_w + free);
        for _ in 0..4 {
            let over = self.live_committed_w() - self.pool_w();
            if over > 0.0 {
                self.leases.get_mut(&lease_id).expect("live lease").committed_w -= over;
            } else {
                break;
            }
        }
        debug_assert!(
            self.live_committed_w() <= self.pool_w(),
            "live commitments {} exceed pool {}",
            self.live_committed_w(),
            self.pool_w()
        );
    }

    /// Apply one lease operation — `Lease`, `Renew`, `Release` or
    /// `Revoke` — at the current tick. The coordinator serves requests
    /// through it and [`replay_coordinator`] re-applies journaled entries
    /// through it. Demands are clamped to finite, non-negative watts first,
    /// so the entry records the value the table used (and NaN never meets
    /// JSON). Returns the wire reply (`ttl_ms` goes into `Granted`) and the
    /// journal entry; a rejected operation mutates nothing, so it leaves no
    /// trace.
    ///
    /// # Panics
    ///
    /// On `Stats` and `Shutdown`, which are not lease operations.
    pub fn apply(
        &mut self,
        request: &CoordRequest,
        ttl_ms: u64,
    ) -> Result<(CoordResponse, CoordJournalEntry), LeaseError> {
        let tick = self.tick;
        let clamp = |w: f64| if w.is_finite() { w.max(0.0) } else { 0.0 };
        Ok(match *request {
            CoordRequest::Lease { shard_id, demand_w } => {
                let demand_w = clamp(demand_w);
                let GrantOutcome { lease_id, shard_id, epoch, budget_w, expires_tick } =
                    self.grant(shard_id, demand_w)?;
                (
                    CoordResponse::Granted {
                        lease_id,
                        shard_id,
                        epoch,
                        budget_w,
                        expires_tick,
                        ttl_ms,
                    },
                    CoordJournalEntry::Grant { lease_id, shard_id, demand_w, tick, epoch },
                )
            }
            CoordRequest::Renew { lease_id, epoch, demand_w } => {
                let demand_w = clamp(demand_w);
                let GrantOutcome { epoch, budget_w, expires_tick, .. } =
                    self.renew(lease_id, epoch, demand_w)?;
                (
                    CoordResponse::Renewed { lease_id, epoch, budget_w, expires_tick },
                    CoordJournalEntry::Renew { lease_id, demand_w, tick, epoch },
                )
            }
            CoordRequest::Release { lease_id } => {
                self.remove(lease_id)?;
                (
                    CoordResponse::Released,
                    CoordJournalEntry::Release { lease_id, tick, epoch: self.epoch },
                )
            }
            CoordRequest::Revoke { lease_id } => {
                self.remove(lease_id)?;
                self.revocations += 1;
                (
                    CoordResponse::Revoked,
                    CoordJournalEntry::Revoke { lease_id, tick, epoch: self.epoch },
                )
            }
            CoordRequest::Stats | CoordRequest::Shutdown => {
                panic!("{request:?} is not a lease operation")
            }
        })
    }

    /// Grant a lease. A known `shard_id` with an existing lease (live or
    /// encumbered) is **re-adopted** — same lease id, commitment resumed
    /// from where it stood, fresh fence and TTL — never double-granted.
    /// A fresh shard is admitted when its *steady-state target* clears
    /// the floor; its initial commitment is `min(target, free)` — often
    /// zero right after a membership change — and it ramps toward its
    /// target as the incumbents renew down (commit-on-contact). If even
    /// the steady-state target cannot reach the floor, the grant is
    /// denied without mutating the table (denials are not journaled, so
    /// they must leave no trace).
    fn grant(&mut self, shard_id: Option<u64>, demand_w: f64) -> Result<GrantOutcome, LeaseError> {
        let existing = shard_id
            .and_then(|sid| self.leases.iter().find(|(_, l)| l.shard_id == sid).map(|(id, _)| *id));
        let id = match existing {
            Some(id) => id,
            None => {
                // The newcomer's share is the last of the split, so the
                // exact-sum fold (onto the first share) moves it only
                // when it is the sole live lease.
                let live_demands = self.leases.values().filter(|l| l.live).map(|l| l.demand_w);
                let shares = self.policy.split(self.pool_w(), live_demands.chain([demand_w]));
                let target = *shares.last().expect("the newcomer has a share");
                if target + EPS_W < self.floor_w {
                    return Err(LeaseError::Denied {
                        needed_w: self.floor_w,
                        available_w: target.max(0.0),
                    });
                }
                let id = self.next_lease;
                self.next_lease += 1;
                // An unnamed shard takes its lease id, raised past every
                // shard id granted so far, so it never aliases another
                // shard's lease (a deterministic rule: replay stays pure).
                let sid = shard_id.unwrap_or(id.max(self.next_shard));
                self.next_shard = self.next_shard.max(sid.saturating_add(1));
                let lease = LeaseState {
                    shard_id: sid,
                    committed_w: 0.0,
                    demand_w,
                    expires_tick: 0,
                    fence: 0,
                    live: true,
                    expired_tick: 0,
                };
                self.leases.insert(id, lease);
                id
            }
        };
        self.epoch += 1;
        self.grants += 1;
        let lease = self.leases.get_mut(&id).expect("granted above");
        lease.live = true;
        lease.demand_w = demand_w;
        lease.expires_tick = self.tick + self.ttl_ticks;
        lease.fence = self.epoch;
        lease.expired_tick = 0;
        self.settle(id);
        Ok(self.outcome(id))
    }

    /// Renew a live lease. The presented epoch must clear the lease's
    /// fence; an expired lease rejects with [`LeaseError::Expired`] so
    /// the shard re-leases (re-adopts) instead.
    fn renew(
        &mut self,
        lease_id: u64,
        epoch: u64,
        demand_w: f64,
    ) -> Result<GrantOutcome, LeaseError> {
        let lease = self.leases.get_mut(&lease_id).ok_or(LeaseError::UnknownLease { lease_id })?;
        if !lease.live {
            return Err(LeaseError::Expired { lease_id });
        }
        if epoch < lease.fence {
            return Err(LeaseError::Fenced { lease_id, fence: lease.fence, presented: epoch });
        }
        lease.demand_w = demand_w;
        lease.expires_tick = self.tick + self.ttl_ticks;
        self.epoch += 1;
        self.renews += 1;
        self.settle(lease_id);
        Ok(self.outcome(lease_id))
    }

    /// What a grant or renewal of `lease_id` tells the shard.
    fn outcome(&self, lease_id: u64) -> GrantOutcome {
        let lease = &self.leases[&lease_id];
        GrantOutcome {
            lease_id,
            shard_id: lease.shard_id,
            epoch: self.epoch,
            budget_w: lease.committed_w,
            expires_tick: lease.expires_tick,
        }
    }

    /// Remove a lease entirely — a shard's clean `Release`, or an
    /// operator's `Revoke` of a shard known to be dead. Its watts, and any
    /// encumbered reserve expiry alone keeps holding, return to the pool
    /// for the next renewal round.
    fn remove(&mut self, lease_id: u64) -> Result<(), LeaseError> {
        self.leases.remove(&lease_id).ok_or(LeaseError::UnknownLease { lease_id })?;
        self.epoch += 1;
        Ok(())
    }
}

/// A coordinator-to-shard wire request (length-prefixed JSON frames, the
/// same transport as [`Request`](crate::protocol::Request)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordRequest {
    /// Acquire (or re-adopt) a lease.
    Lease {
        /// The shard's remembered id; `None` on first contact, after
        /// which the coordinator assigns one.
        shard_id: Option<u64>,
        /// The shard's current demand, W.
        demand_w: f64,
    },
    /// Renew a live lease.
    Renew {
        /// The lease to renew.
        lease_id: u64,
        /// The epoch from the last grant/renewal (fencing token).
        epoch: u64,
        /// Updated demand, W.
        demand_w: f64,
    },
    /// Clean departure: drop the lease and free its watts.
    Release {
        /// The lease to release.
        lease_id: u64,
    },
    /// Operator-forced removal of a lease known to be dead — frees the
    /// encumbered reserve that expiry alone keeps holding.
    Revoke {
        /// The lease to revoke.
        lease_id: u64,
    },
    /// Ask for a coordinator metrics snapshot.
    Stats,
    /// Shut the coordinator down.
    Shutdown,
}

/// Coordinator metrics snapshot (`CoordRequest::Stats` reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordStats {
    /// Current logical tick.
    pub tick: u64,
    /// Current table epoch.
    pub epoch: u64,
    /// The global cap, W.
    pub global_cap_w: f64,
    /// The degraded-mode floor, W.
    pub floor_w: f64,
    /// Live (renewable) leases.
    pub live_leases: u64,
    /// Expired-and-encumbered leases.
    pub encumbered_leases: u64,
    /// Sum of live committed budgets, W.
    pub live_committed_w: f64,
    /// Sum of encumbered reserves, W.
    pub encumbered_w: f64,
    /// Watts available to live leases.
    pub pool_w: f64,
    /// Conservation gate: live commitments above the pool (must be 0).
    pub overshoot_w: f64,
    /// Lifetime grants (fresh + re-adoptions).
    pub grants: u64,
    /// Lifetime accepted renewals.
    pub renews: u64,
    /// Lifetime expirations.
    pub expirations: u64,
    /// Lifetime revocations.
    pub revocations: u64,
    /// Lifetime health-check evictions of silent shards (absent in
    /// pre-eviction snapshots).
    #[serde(default)]
    pub evicted_shards: u64,
    /// Journal entries appended since the coordinator started.
    pub journal_appends: u64,
    /// Journal entries replayed at startup.
    pub journal_replayed: u64,
}

/// A coordinator-to-shard wire response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordResponse {
    /// Reply to `Lease`.
    Granted {
        /// The lease id.
        lease_id: u64,
        /// The shard id (present this on re-lease after a partition).
        shard_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The committed budget, W.
        budget_w: f64,
        /// Logical expiry tick.
        expires_tick: u64,
        /// Lease TTL in wall-clock milliseconds — the shard clamps to its
        /// floor when this much time passes without a successful renewal.
        ttl_ms: u64,
    },
    /// Reply to `Renew`.
    Renewed {
        /// The renewed lease.
        lease_id: u64,
        /// Fencing token for the next renewal.
        epoch: u64,
        /// The (possibly resettled) committed budget, W.
        budget_w: f64,
        /// New logical expiry tick.
        expires_tick: u64,
    },
    /// Typed lease rejection ([`LeaseError::code`]); the shard reacts by
    /// re-leasing (`expired`, `fenced`, `unknown-lease`) or retrying
    /// later (`denied`).
    Rejected {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Release`.
    Released,
    /// Reply to `Revoke`.
    Revoked,
    /// Reply to `Stats`.
    Stats(CoordStats),
    /// Typed transport/decode failure.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Reply to `Shutdown`.
    ShuttingDown,
}

/// One recorded coordinator state transition. Only *applied* operations
/// are journaled — denials and fenced renewals leave no trace — and every
/// entry records the logical tick it was applied at plus the post-op
/// epoch, so replay reproduces the exact expiry/operation interleaving
/// and verifies it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordJournalEntry {
    /// A lease was granted (fresh or re-adopted).
    Grant {
        /// The granted lease id.
        lease_id: u64,
        /// The shard it was granted to.
        shard_id: u64,
        /// The shard's reported demand, W.
        demand_w: f64,
        /// Logical tick the grant was applied at.
        tick: u64,
        /// Table epoch after the grant.
        epoch: u64,
    },
    /// A live lease was renewed.
    Renew {
        /// The renewed lease.
        lease_id: u64,
        /// Updated demand, W.
        demand_w: f64,
        /// Logical tick the renewal was applied at.
        tick: u64,
        /// Table epoch after the renewal.
        epoch: u64,
    },
    /// A lease was released (clean departure).
    Release {
        /// The released lease.
        lease_id: u64,
        /// Logical tick the release was applied at.
        tick: u64,
        /// Table epoch after the release.
        epoch: u64,
    },
    /// A lease was revoked by the operator.
    Revoke {
        /// The revoked lease.
        lease_id: u64,
        /// Logical tick the revocation was applied at.
        tick: u64,
        /// Table epoch after the revocation.
        epoch: u64,
    },
}

impl CoordJournalEntry {
    /// The entry's `(lease_id, tick, epoch)`.
    fn stamp(&self) -> (u64, u64, u64) {
        match *self {
            CoordJournalEntry::Grant { lease_id, tick, epoch, .. }
            | CoordJournalEntry::Renew { lease_id, tick, epoch, .. }
            | CoordJournalEntry::Release { lease_id, tick, epoch }
            | CoordJournalEntry::Revoke { lease_id, tick, epoch } => (lease_id, tick, epoch),
        }
    }

    /// The request that applied this entry, as replay re-applies it: a
    /// grant names its recorded shard, and a renewal presents its recorded
    /// post-op epoch, which always clears the lease's fence.
    fn request(&self) -> CoordRequest {
        match *self {
            CoordJournalEntry::Grant { shard_id, demand_w, .. } => {
                CoordRequest::Lease { shard_id: Some(shard_id), demand_w }
            }
            CoordJournalEntry::Renew { lease_id, demand_w, epoch, .. } => {
                CoordRequest::Renew { lease_id, epoch, demand_w }
            }
            CoordJournalEntry::Release { lease_id, .. } => CoordRequest::Release { lease_id },
            CoordJournalEntry::Revoke { lease_id, .. } => CoordRequest::Revoke { lease_id },
        }
    }
}

/// What [`replay_coordinator`] reconstructed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordRecovery {
    /// Journal entries replayed.
    pub replayed: u64,
    /// The logical tick the rebuilt table resumed at.
    pub tick: u64,
    /// Live leases after replay — shards the restarted coordinator
    /// re-adopts on their next renewal or re-lease.
    pub live_leases: Vec<u64>,
    /// Expired-and-encumbered leases after replay.
    pub encumbered_leases: Vec<u64>,
    /// The lease id the next fresh grant will receive (burned ids stay
    /// burned, exactly like session node ids).
    pub next_lease: u64,
}

/// Fold a validated coordinator entry stream into a fresh lease table.
/// Each entry first advances the table to its recorded tick (recomputing
/// any expirations — and, when `evict_after_ticks > 0`, evictions —
/// deterministically), then re-applies its operation through
/// [`LeaseTable::apply`] and checks that the entry it yields is the
/// recorded one. The eviction horizon must match the one the live table
/// ran with, or recomputed epochs diverge. An empty stream yields the
/// table a coordinator without a journal starts from.
pub fn replay_coordinator(
    entries: &[CoordJournalEntry],
    global_cap_w: f64,
    policy: ArbiterPolicy,
    ttl_ticks: u64,
    floor_w: f64,
    evict_after_ticks: u64,
) -> Result<(LeaseTable, CoordRecovery), JournalError> {
    let mut table = LeaseTable::new(global_cap_w, policy, ttl_ticks, floor_w, evict_after_ticks);
    for (index, recorded) in entries.iter().enumerate() {
        let (lease_id, tick, epoch) = recorded.stamp();
        table.advance_to(tick);
        let detail = match table.apply(&recorded.request(), 0) {
            Ok((_, entry)) if entry == *recorded => continue,
            Ok((_, entry)) => match entry.stamp() {
                (id, ..) if id != lease_id => {
                    format!("recorded lease id {lease_id}, recomputed {id}")
                }
                (.., e) if e != epoch => format!("recorded epoch {epoch}, recomputed {e}"),
                _ => format!("recorded {recorded:?}, recomputed {entry:?}"),
            },
            Err(e) => format!("journaled {recorded:?} rejected: {e}"),
        };
        return Err(JournalError::LeaseDivergence { index, detail });
    }
    let recovery = CoordRecovery {
        replayed: entries.len() as u64,
        tick: table.tick(),
        live_leases: table.live_ids(),
        encumbered_leases: table.encumbered_ids(),
        next_lease: table.next_lease(),
    };
    Ok((table, recovery))
}

/// Which side of the lease the shard is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardLeaseState {
    /// No lease yet (startup, or after a release): the shard runs at the
    /// configured floor — the deployment-level pre-lease reserve.
    Unleased,
    /// Lease live and renewing.
    Leased,
    /// Renewals are failing: the local cap decays toward the floor and
    /// never exceeds the last granted budget.
    Degraded,
}

impl ShardLeaseState {
    /// Stable name for the STATS snapshot.
    pub fn name(&self) -> &'static str {
        match self {
            ShardLeaseState::Unleased => "unleased",
            ShardLeaseState::Leased => "leased",
            ShardLeaseState::Degraded => "degraded",
        }
    }
}

/// The shard-side lease state machine. Pure — the lease client thread
/// owns the clock and the socket; this type only decides what the local
/// cap may be. Invariants: the cap never exceeds the last granted budget,
/// and between grants it is monotone non-increasing.
#[derive(Debug, Clone)]
pub struct ShardLease {
    floor_w: f64,
    state: ShardLeaseState,
    lease_id: Option<u64>,
    shard_id: Option<u64>,
    epoch: u64,
    cap_w: f64,
    last_grant_w: f64,
    misses: u64,
    degraded_entries: u64,
}

impl ShardLease {
    /// A fresh, unleased shard: the local cap starts at the floor.
    pub fn new(floor_w: f64) -> Self {
        assert!(floor_w > 0.0, "floor must be positive");
        Self {
            floor_w,
            state: ShardLeaseState::Unleased,
            lease_id: None,
            shard_id: None,
            epoch: 0,
            cap_w: floor_w,
            last_grant_w: floor_w,
            misses: 0,
            degraded_entries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ShardLeaseState {
        self.state
    }

    /// The cap the shard's arbiter may run at right now, W.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// The lease id, once granted.
    pub fn lease_id(&self) -> Option<u64> {
        self.lease_id
    }

    /// The shard id, once assigned — survives re-leasing so the
    /// coordinator re-adopts instead of double-granting.
    pub fn shard_id(&self) -> Option<u64> {
        self.shard_id
    }

    /// The fencing token to present on the next renewal.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Consecutive missed renewals since the last successful contact.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// How many times the shard has entered degraded mode.
    pub fn degraded_entries(&self) -> u64 {
        self.degraded_entries
    }

    /// A grant (or re-adoption) landed. Returns the cap to apply. A
    /// zero-watt grant — a shard admitted mid-ramp, before the incumbents
    /// have renewed down — keeps the previous cap (the floor at startup,
    /// which the deployment's pre-lease reserve covers) and ramps at the
    /// next renewal.
    pub fn on_granted(&mut self, lease_id: u64, shard_id: u64, epoch: u64, budget_w: f64) -> f64 {
        self.state = ShardLeaseState::Leased;
        self.lease_id = Some(lease_id);
        self.shard_id = Some(shard_id);
        self.epoch = epoch;
        if budget_w > 0.0 {
            self.cap_w = budget_w;
        }
        self.last_grant_w = self.cap_w;
        self.misses = 0;
        self.cap_w
    }

    /// A renewal landed. Returns the cap to apply (zero-watt budgets are
    /// handled as in [`Self::on_granted`]).
    pub fn on_renewed(&mut self, epoch: u64, budget_w: f64) -> f64 {
        self.state = ShardLeaseState::Leased;
        self.epoch = epoch;
        if budget_w > 0.0 {
            self.cap_w = budget_w;
        }
        self.last_grant_w = self.cap_w;
        self.misses = 0;
        self.cap_w
    }

    /// A renewal failed (timeout, refused connection, rejection that
    /// needs a re-lease). The cap halves toward `min(floor, last grant)`
    /// — never below it, never above the last grant. Returns the cap to
    /// apply.
    pub fn on_miss(&mut self) -> f64 {
        if self.state == ShardLeaseState::Unleased {
            return self.cap_w;
        }
        if self.state != ShardLeaseState::Degraded {
            self.state = ShardLeaseState::Degraded;
            self.degraded_entries += 1;
        }
        self.misses += 1;
        self.cap_w = (self.cap_w * 0.5).max(self.floor_w.min(self.last_grant_w));
        self.cap_w
    }

    /// The lease TTL passed by the shard's own clock without a renewal:
    /// clamp to the encumbered reserve the coordinator is holding —
    /// `min(floor, last grant)` — so both sides agree on the worst case
    /// without communicating. Returns the cap to apply.
    pub fn on_expired(&mut self) -> f64 {
        if self.state == ShardLeaseState::Unleased {
            return self.cap_w;
        }
        if self.state != ShardLeaseState::Degraded {
            self.state = ShardLeaseState::Degraded;
            self.degraded_entries += 1;
        }
        self.cap_w = self.floor_w.min(self.last_grant_w);
        self.cap_w
    }

    /// The lease was released (clean shutdown): back to unleased at the
    /// floor, keeping the shard id for a possible later re-lease.
    pub fn on_released(&mut self) {
        self.state = ShardLeaseState::Unleased;
        self.lease_id = None;
        self.cap_w = self.floor_w.min(self.last_grant_w);
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame_blocking, write_frame};
    use std::io::Cursor;

    fn table() -> LeaseTable {
        LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0)
    }

    /// Apply `request` as the coordinator does, journal the entry it
    /// yields, and return the entry's `(lease_id, epoch)`.
    fn record(
        t: &mut LeaseTable,
        journal: &mut Vec<CoordJournalEntry>,
        request: CoordRequest,
    ) -> (u64, u64) {
        let (_, entry) = t.apply(&request, 0).expect("the operation applies");
        let (lease_id, _, epoch) = entry.stamp();
        journal.push(entry);
        (lease_id, epoch)
    }

    fn lease(shard_id: Option<u64>, demand_w: f64) -> CoordRequest {
        CoordRequest::Lease { shard_id, demand_w }
    }

    /// Renew every live lease once, in id order, presenting its fence.
    fn renew_round(t: &mut LeaseTable) {
        for id in t.live_ids() {
            let fence = t.lease(id).unwrap().fence;
            t.renew(id, fence.max(t.epoch()), t.lease(id).unwrap().demand_w).unwrap();
        }
    }

    #[test]
    fn first_grant_owns_the_pool_and_later_shards_ramp_in() {
        let mut t = table();
        let a = t.grant(None, 30.0).unwrap();
        assert_eq!(a.budget_w, 100.0, "sole lease owns the whole pool");
        assert_eq!(t.overshoot_w(), 0.0);

        // A holds everything, so B is admitted at zero — commit-on-contact
        // forbids shrinking A behind its back — and ramps in as A renews
        // down toward the new 50/50 target.
        let b = t.grant(None, 30.0).unwrap();
        assert_eq!(b.budget_w, 0.0, "no free watts until the incumbent renews down");
        assert_eq!(t.overshoot_w(), 0.0);

        // One round in id order: A renews down to 50, then B picks up the
        // freed 50.
        renew_round(&mut t);
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert_eq!(ca + cb, 100.0, "converged live commitments fill the pool exactly");
        assert!((ca - 50.0).abs() < 1e-9 && (cb - 50.0).abs() < 1e-9);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn grants_below_a_floor_sized_target_are_denied_without_trace() {
        // Floor 45 of a 100 W cap: two shards fit (target 50), a third
        // (target 33.3) does not.
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 45.0, 0);
        t.grant(None, 0.0).unwrap();
        t.grant(None, 0.0).unwrap();
        let epoch_before = t.epoch();
        match t.grant(None, 0.0) {
            Err(LeaseError::Denied { needed_w, available_w }) => {
                assert_eq!(needed_w, 45.0);
                assert!((available_w - 100.0 / 3.0).abs() < 1e-9);
            }
            other => panic!("expected Denied, got {other:?}"),
        }
        assert_eq!(t.epoch(), epoch_before, "a denial leaves no trace");
        assert_eq!(t.snapshot().len(), 2);
    }

    #[test]
    fn commitments_never_exceed_the_pool_mid_ramp() {
        let mut t = LeaseTable::new(90.0, ArbiterPolicy::DemandProportional, 10, 2.0, 0);
        let a = t.grant(None, 40.0).unwrap();
        t.renew(a.lease_id, t.epoch(), 40.0).unwrap();
        let _b = t.grant(None, 10.0).unwrap();
        let _c = t.grant(None, 25.0).unwrap();
        assert_eq!(t.overshoot_w(), 0.0, "no overshoot at any step");
        for _ in 0..4 {
            renew_round(&mut t);
            assert_eq!(t.overshoot_w(), 0.0);
        }
        assert_eq!(t.live_committed_w(), t.pool_w(), "quiescent sum is exact");
    }

    #[test]
    fn expiry_encumbers_at_the_floor_and_frees_the_rest() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        let b = t.grant(None, 0.0).unwrap();
        renew_round(&mut t);
        assert_eq!(t.live_committed_w(), 100.0, "converged before the partition");

        // A goes silent; B keeps renewing past A's expiry (B's renewal at
        // tick 5 pushes its own expiry out to 15, A's stays at 10).
        t.advance_to(5);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();
        let expired = t.advance_to(t.lease(a.lease_id).unwrap().expires_tick);
        assert_eq!(expired, vec![a.lease_id]);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.committed_w, 5.0, "encumbered exactly at the floor");
        assert_eq!(t.encumbered_w(), 5.0);
        assert_eq!(t.pool_w(), 95.0);

        // B's next renewal absorbs the freed watts; the fleet total stays
        // at the cap (B's 95 + A's encumbered 5).
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 95.0);
        assert_eq!(t.fleet_committed_w(), 100.0);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn expired_lease_renewal_is_rejected_and_readoption_keeps_the_id() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        t.advance_to(a.expires_tick);

        match t.renew(a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Expired { lease_id }) => assert_eq!(lease_id, a.lease_id),
            other => panic!("expected Expired, got {other:?}"),
        }

        // Re-lease with the remembered shard id: same lease, no double
        // grant. Re-adoption is contact, so the sole lease ramps straight
        // back up — the whole pool is genuinely free.
        let again = t.grant(Some(a.shard_id), 0.0).unwrap();
        assert_eq!(again.lease_id, a.lease_id);
        assert_eq!(again.shard_id, a.shard_id);
        assert_eq!(again.budget_w, 100.0, "re-adopted sole lease reclaims the free pool");
        assert_eq!(t.snapshot().len(), 1, "never two leases for one shard");
        assert_eq!(t.overshoot_w(), 0.0);

        // The pre-expiry epoch is now behind the fence.
        match t.renew(a.lease_id, a.epoch, 0.0) {
            Err(LeaseError::Fenced { fence, presented, .. }) => {
                assert!(presented < fence);
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        // The re-adoption epoch clears it.
        t.renew(a.lease_id, again.epoch, 0.0).unwrap();
        assert_eq!(t.lease(a.lease_id).unwrap().committed_w, 100.0);
    }

    #[test]
    fn release_and_revoke_free_the_encumbrance() {
        let mut t = table();
        let a = t.grant(None, 0.0).unwrap();
        t.advance_to(a.expires_tick);
        assert_eq!(t.encumbered_w(), 5.0);
        t.apply(&CoordRequest::Revoke { lease_id: a.lease_id }, 0).unwrap();
        assert_eq!(t.encumbered_w(), 0.0);
        assert_eq!(t.revocations(), 1);
        assert_eq!(t.pool_w(), 100.0);
        assert!(matches!(
            t.apply(&CoordRequest::Release { lease_id: a.lease_id }, 0),
            Err(LeaseError::UnknownLease { .. })
        ));

        let b = t.grant(None, 0.0).unwrap();
        assert_ne!(b.lease_id, a.lease_id, "burned lease ids stay burned");
        t.apply(&CoordRequest::Release { lease_id: b.lease_id }, 0).unwrap();
        assert_eq!(t.fleet_committed_w(), 0.0);
    }

    #[test]
    fn eviction_reclaims_the_encumbrance_and_readmission_is_a_fresh_grant() {
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 5.0, 3);
        let a = t.grant(None, 0.0).unwrap();
        let b = t.grant(None, 0.0).unwrap();
        renew_round(&mut t);

        // B stays healthy; A goes silent and expires at tick 10.
        t.advance_to(5);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();
        t.advance_to(10);
        let ls = t.lease(a.lease_id).unwrap();
        assert!(!ls.live);
        assert_eq!(ls.expired_tick, 10, "expired_tick records the lease's own expiry");
        assert_eq!(t.encumbered_w(), 5.0);

        // Inside the horizon the encumbrance holds; B stays renewed.
        t.advance_to(12);
        assert_eq!(t.encumbered_w(), 5.0);
        let fence = t.lease(b.lease_id).unwrap().fence;
        t.renew(b.lease_id, fence.max(t.epoch()), 0.0).unwrap();

        // Horizon crossed: the silent shard is evicted, reserve reclaimed.
        t.advance_to(13);
        assert!(t.lease(a.lease_id).is_none(), "evicted lease is gone");
        assert_eq!(t.evictions(), 1);
        assert_eq!(t.encumbered_w(), 0.0);
        assert_eq!(t.pool_w(), 100.0);
        renew_round(&mut t);
        assert_eq!(t.lease(b.lease_id).unwrap().committed_w, 100.0);
        assert_eq!(t.overshoot_w(), 0.0);

        // The shard comes back: a fresh grant under a new lease id (burned
        // ids stay burned), admitted through the normal floor check.
        let again = t.grant(Some(a.shard_id), 0.0).unwrap();
        assert_ne!(again.lease_id, a.lease_id);
        assert_eq!(again.shard_id, a.shard_id);
        assert_eq!(t.overshoot_w(), 0.0);
    }

    #[test]
    fn eviction_is_replay_pure_when_the_horizon_matches() {
        let mut live = LeaseTable::new(100.0, ArbiterPolicy::EqualShare, 10, 5.0, 3);
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let (a, _) = record(&mut live, &mut journal, lease(None, 0.0));
        let a_shard = live.lease(a).unwrap().shard_id;
        let (b, _) = record(&mut live, &mut journal, lease(None, 0.0));
        live.advance_to(5);
        let epoch = live.epoch();
        record(&mut live, &mut journal, CoordRequest::Renew { lease_id: b, epoch, demand_w: 0.0 });
        // The live table detects A's expiry at tick 11 and the eviction at
        // tick 13 — intermediate advances replay never sees. Both events
        // are keyed to pure lease state (expiry 10, eviction 10+3), so
        // replay, jumping straight to the next entry's tick, recomputes
        // the same epoch sequence.
        live.advance_to(11);
        live.advance_to(13);
        let epoch = live.epoch();
        record(&mut live, &mut journal, CoordRequest::Renew { lease_id: b, epoch, demand_w: 0.0 });
        let (a2, _) = record(&mut live, &mut journal, lease(Some(a_shard), 0.0));
        assert_ne!(a2, a, "evicted shard re-admits under a fresh lease");

        let (rebuilt, recovery) =
            replay_coordinator(&journal, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 3).unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_eq!(rebuilt.evictions(), live.evictions());
        assert_eq!(recovery.next_lease, live.next_lease());

        // A mismatched horizon loses the eviction's epoch bump and is
        // caught by the post-op epoch check, not silently absorbed.
        assert!(matches!(
            replay_coordinator(&journal, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0),
            Err(JournalError::LeaseDivergence { .. })
        ));
    }

    #[test]
    fn demand_proportional_targets_favor_hungry_shards() {
        let mut t = LeaseTable::new(100.0, ArbiterPolicy::DemandProportional, 10, 2.0, 0);
        let a = t.grant(None, 10.0).unwrap();
        t.renew(a.lease_id, a.epoch, 10.0).unwrap();
        let b = t.grant(None, 40.0).unwrap();
        for _ in 0..3 {
            renew_round(&mut t);
        }
        let ca = t.lease(a.lease_id).unwrap().committed_w;
        let cb = t.lease(b.lease_id).unwrap().committed_w;
        assert!(cb > ca, "hungry shard got {cb}, satisfied shard got {ca}");
        assert!(ca >= 0.5 * t.pool_w() / 2.0 - 1e-9, "the floor half is guaranteed");
        assert_eq!(ca + cb, t.pool_w());
    }

    #[test]
    fn replay_reproduces_the_exact_table() {
        let mut live = LeaseTable::new(80.0, ArbiterPolicy::DemandProportional, 5, 3.0, 0);
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let (a, a_epoch) = record(&mut live, &mut journal, lease(None, 20.0));
        let a_shard = live.lease(a).unwrap().shard_id;
        live.advance_to(2);
        let renew = |lease_id, epoch, demand_w| CoordRequest::Renew { lease_id, epoch, demand_w };
        record(&mut live, &mut journal, renew(a, a_epoch, 25.0));
        let (b, b_epoch) = record(&mut live, &mut journal, lease(None, 10.0));
        // B renews at tick 6, pushing its expiry to 11; A goes silent and
        // expires at 7, so B's next renewal at 8 crosses the expiry.
        live.advance_to(6);
        let (_, b_epoch) = record(&mut live, &mut journal, renew(b, b_epoch, 10.0));
        live.advance_to(8);
        record(&mut live, &mut journal, renew(b, b_epoch, 10.0));
        // A comes back and is re-adopted.
        let (a2, _) = record(&mut live, &mut journal, lease(Some(a_shard), 20.0));
        assert_eq!(a2, a);

        let (rebuilt, recovery) =
            replay_coordinator(&journal, 80.0, ArbiterPolicy::DemandProportional, 5, 3.0, 0)
                .unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot(), "replay lands on the exact table");
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_eq!(rebuilt.tick(), live.tick());
        assert_eq!(recovery.replayed, journal.len() as u64);
        assert_eq!(recovery.next_lease, live.next_lease());
        assert_eq!(recovery.live_leases, live.live_ids());
    }

    #[test]
    fn replay_rejects_divergent_histories() {
        let entries = vec![CoordJournalEntry::Grant {
            lease_id: 1,
            shard_id: 1,
            demand_w: 0.0,
            tick: 0,
            epoch: 42, // a fresh table's first grant lands on epoch 1
        }];
        match replay_coordinator(&entries, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0) {
            Err(JournalError::LeaseDivergence { index: 0, detail }) => {
                assert!(detail.contains("recorded epoch 42"), "unhelpful detail: {detail}");
            }
            other => panic!("expected LeaseDivergence, got {other:?}"),
        }

        let entries =
            vec![CoordJournalEntry::Renew { lease_id: 7, demand_w: 0.0, tick: 0, epoch: 1 }];
        assert!(matches!(
            replay_coordinator(&entries, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0),
            Err(JournalError::LeaseDivergence { index: 0, .. })
        ));
    }

    #[test]
    fn unnamed_shards_never_alias_a_held_shard_id() {
        let mut t = table();
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let (named, _) = record(&mut t, &mut journal, lease(Some(2), 0.0));
        let (unnamed, _) = record(&mut t, &mut journal, lease(None, 0.0));
        assert_eq!(t.lease(named).unwrap().shard_id, 2);
        assert_ne!(t.lease(unnamed).unwrap().shard_id, 2, "shard ids must stay unique");

        // The history replays, so a journaled coordinator can restart.
        let (rebuilt, _) =
            replay_coordinator(&journal, 100.0, ArbiterPolicy::EqualShare, 10, 5.0, 0).unwrap();
        assert_eq!(rebuilt.snapshot(), t.snapshot());

        // Once both expire, each shard re-adopts its own lease.
        t.advance_to(10);
        assert_eq!(t.encumbered_ids(), vec![named, unnamed]);
        for id in [named, unnamed] {
            let shard_id = t.lease(id).unwrap().shard_id;
            assert_eq!(t.grant(Some(shard_id), 0.0).unwrap().lease_id, id);
        }
        assert_eq!(t.snapshot().len(), 2, "no shard aliased another's lease");
    }

    #[test]
    fn bad_demands_are_journaled_clamped_and_replay_exactly() {
        let mut live = LeaseTable::new(100.0, ArbiterPolicy::DemandProportional, 10, 5.0, 0);
        let mut journal: Vec<CoordJournalEntry> = Vec::new();
        let demands = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 7.5];
        let mut ids = Vec::new();
        for demand_w in demands {
            ids.push(record(&mut live, &mut journal, lease(None, demand_w)).0);
        }
        // Renew every lease with the next lease's demand.
        for (i, &lease_id) in ids.iter().enumerate() {
            let (demand_w, epoch) = (demands[(i + 1) % demands.len()], live.epoch());
            record(&mut live, &mut journal, CoordRequest::Renew { lease_id, epoch, demand_w });
        }
        // Non-finite demands are journaled as 0, negative ones as
        // `max(0.0)`, and a sane demand passes through.
        let recorded: Vec<f64> = journal
            .iter()
            .map(|e| match *e {
                CoordJournalEntry::Grant { demand_w, .. }
                | CoordJournalEntry::Renew { demand_w, .. } => demand_w,
                _ => unreachable!("only grants and renewals were applied"),
            })
            .collect();
        assert_eq!(recorded, [0.0, 0.0, 0.0, 0.0, 7.5, 0.0, 0.0, 0.0, 7.5, 0.0]);
        assert_eq!(live.lease(ids[3]).unwrap().demand_w, 7.5);
        assert_eq!(live.overshoot_w(), 0.0);

        // The entries survive JSON and replay to the identical table.
        let text = serde_json::to_string(&journal).unwrap();
        let decoded: Vec<CoordJournalEntry> = serde_json::from_str(&text).unwrap();
        assert_eq!(decoded, journal);
        let (rebuilt, _) =
            replay_coordinator(&decoded, 100.0, ArbiterPolicy::DemandProportional, 10, 5.0, 0)
                .unwrap();
        assert_eq!(rebuilt.snapshot(), live.snapshot());
        assert_eq!(rebuilt.epoch(), live.epoch());
    }

    #[test]
    fn shard_lease_decays_but_never_exceeds_the_last_grant() {
        let mut s = ShardLease::new(5.0);
        assert_eq!(s.state(), ShardLeaseState::Unleased);
        assert_eq!(s.cap_w(), 5.0, "unleased shards run at the floor");
        assert_eq!(s.on_miss(), 5.0, "misses before any lease change nothing");

        s.on_granted(1, 1, 3, 40.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        assert_eq!(s.cap_w(), 40.0);

        // Misses halve toward the floor and never go below it.
        assert_eq!(s.on_miss(), 20.0);
        assert_eq!(s.state(), ShardLeaseState::Degraded);
        assert_eq!(s.degraded_entries(), 1);
        assert_eq!(s.on_miss(), 10.0);
        assert_eq!(s.on_miss(), 5.0);
        assert_eq!(s.on_miss(), 5.0);
        assert_eq!(s.misses(), 4);
        for _ in 0..8 {
            assert!(s.on_miss() <= 40.0, "the cap never exceeds the last grant");
        }

        // A successful renewal recovers the lease and resets the misses.
        s.on_renewed(9, 33.0);
        assert_eq!(s.state(), ShardLeaseState::Leased);
        assert_eq!((s.cap_w(), s.misses()), (33.0, 0));
        assert_eq!(s.degraded_entries(), 1, "recovery does not recount the entry");

        // TTL expiry clamps straight to the floor.
        s.on_expired();
        assert_eq!(s.cap_w(), 5.0);
        assert_eq!(s.degraded_entries(), 2);
    }

    #[test]
    fn shard_lease_floor_clamp_respects_a_tiny_last_grant() {
        // A shard whose last grant was *below* the floor must clamp to the
        // grant, not up to the floor — degraded mode never raises the cap.
        let mut s = ShardLease::new(10.0);
        s.on_granted(1, 1, 1, 4.0);
        assert_eq!(s.on_miss(), 4.0, "min(floor, last grant) bounds the decay");
        assert_eq!(s.on_expired(), 4.0);
    }

    #[test]
    fn coordinator_frames_roundtrip() {
        fn roundtrip<T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug>(
            msg: &T,
        ) {
            let mut buf = Vec::new();
            write_frame(&mut buf, msg).unwrap();
            let back: T = read_frame_blocking(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(&back, msg);
        }
        roundtrip(&CoordRequest::Lease { shard_id: None, demand_w: 12.5 });
        roundtrip(&CoordRequest::Lease { shard_id: Some(3), demand_w: 0.0 });
        roundtrip(&CoordRequest::Renew { lease_id: 2, epoch: 9, demand_w: 7.0 });
        roundtrip(&CoordRequest::Release { lease_id: 2 });
        roundtrip(&CoordRequest::Revoke { lease_id: 2 });
        roundtrip(&CoordRequest::Stats);
        roundtrip(&CoordRequest::Shutdown);
        roundtrip(&CoordResponse::Granted {
            lease_id: 1,
            shard_id: 1,
            epoch: 1,
            budget_w: 50.0,
            expires_tick: 10,
            ttl_ms: 500,
        });
        roundtrip(&CoordResponse::Renewed {
            lease_id: 1,
            epoch: 2,
            budget_w: 48.0,
            expires_tick: 20,
        });
        roundtrip(&CoordResponse::Rejected { code: "fenced".into(), detail: "stale".into() });
        roundtrip(&CoordResponse::Released);
        roundtrip(&CoordResponse::ShuttingDown);
    }

    #[test]
    fn lease_error_codes_are_stable() {
        assert_eq!(LeaseError::Denied { needed_w: 5.0, available_w: 0.0 }.code(), "denied");
        assert_eq!(LeaseError::UnknownLease { lease_id: 1 }.code(), "unknown-lease");
        assert_eq!(LeaseError::Expired { lease_id: 1 }.code(), "expired");
        assert_eq!(LeaseError::Fenced { lease_id: 1, fence: 2, presented: 1 }.code(), "fenced");
    }
}
