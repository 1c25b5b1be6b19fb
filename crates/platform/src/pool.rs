//! A disaggregated memory pool with a per-lease ledger.

use crate::error::PlatformError;
use crate::units::{MiB, PoolId};
use std::collections::BTreeMap;

/// One fabric-attached memory pool. Tracks capacity, current usage, a
/// high-water mark, and exactly which lease holds how much — the ledger is
/// what makes end-of-simulation conservation checks possible.
///
/// A pool also carries a **health factor** in `(0, 1]`: the fraction of
/// nominal capacity (and fabric bandwidth) currently available. Degrading
/// a pool shrinks its [`effective_capacity`](MemoryPool::effective_capacity)
/// — which both [`free`](MemoryPool::free) and
/// [`pressure`](MemoryPool::pressure) are computed against — so placement
/// stops counting the lost capacity and the contention slowdown model sees
/// the elevated pressure. Degradation can leave `used` above the effective
/// capacity momentarily; whoever degrades must evict borrowers (the
/// engine interrupts them within the same event) **before** the next
/// [`crate::Cluster::verify_invariants`] call, which treats an
/// over-committed pool as an error — the check runs at settled points
/// (batch ends), never mid-transition.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    id: PoolId,
    capacity: MiB,
    used: MiB,
    /// Availability factor in `(0, 1]`; 1 = fully healthy.
    health: f64,
    /// Lease → MiB held. BTreeMap for deterministic iteration order.
    ledger: BTreeMap<u64, MiB>,
}

impl MemoryPool {
    /// An empty pool with the given capacity (may be zero: a "no pool here"
    /// placeholder that rejects every grab).
    pub fn new(id: PoolId, capacity: MiB) -> Self {
        MemoryPool {
            id,
            capacity,
            used: 0,
            health: 1.0,
            ledger: BTreeMap::new(),
        }
    }

    /// This pool's identifier.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Nominal (healthy) capacity in MiB.
    pub fn capacity(&self) -> MiB {
        self.capacity
    }

    /// Current health factor in `(0, 1]`.
    pub fn health(&self) -> f64 {
        self.health
    }

    /// Capacity actually available at the current health:
    /// `floor(capacity × health)`.
    pub fn effective_capacity(&self) -> MiB {
        if self.health >= 1.0 {
            self.capacity
        } else {
            (self.capacity as f64 * self.health).floor() as MiB
        }
    }

    /// Set the health factor. Callers must keep it in `(0, 1]`; the
    /// cluster-level transition API validates. Does **not** evict
    /// borrowers — `used` may exceed the new effective capacity until the
    /// engine interrupts enough of them.
    pub fn set_health(&mut self, health: f64) {
        self.health = health;
    }

    /// Currently allocated MiB.
    pub fn used(&self) -> MiB {
        self.used
    }

    /// Free MiB at the current health (0 while over-committed after a
    /// degradation).
    pub fn free(&self) -> MiB {
        self.effective_capacity().saturating_sub(self.used)
    }

    /// Fraction of the **effective** capacity in use (0 for a
    /// zero-capacity pool). Degrading a pool therefore raises the pressure
    /// its borrowers feed into the contention slowdown model — the
    /// bandwidth-degradation effect. May exceed 1 transiently while the
    /// engine evicts borrowers after a degradation.
    pub fn pressure(&self) -> f64 {
        let effective = self.effective_capacity();
        if effective == 0 {
            0.0
        } else {
            self.used as f64 / effective as f64
        }
    }

    /// MiB held by `lease` (0 if none).
    pub fn held_by(&self, lease: u64) -> MiB {
        self.ledger.get(&lease).copied().unwrap_or(0)
    }

    /// Number of leases currently holding pool memory.
    pub fn lease_count(&self) -> usize {
        self.ledger.len()
    }

    /// `(lease, MiB held)` pairs in ascending lease order — the
    /// deterministic order the engine evicts borrowers in when a
    /// degradation leaves the pool over-committed.
    pub fn holders(&self) -> impl Iterator<Item = (u64, MiB)> + '_ {
        self.ledger.iter().map(|(&l, &m)| (l, m))
    }

    /// Reserve `amount` MiB for `lease` (additive if the lease already holds
    /// some). Zero-amount grabs are no-ops.
    pub fn grab(&mut self, lease: u64, amount: MiB) -> Result<(), PlatformError> {
        if amount == 0 {
            return Ok(());
        }
        if amount > self.free() {
            return Err(PlatformError::PoolExhausted {
                pool: self.id,
                requested: amount,
                free: self.free(),
            });
        }
        self.used += amount;
        *self.ledger.entry(lease).or_insert(0) += amount;
        Ok(())
    }

    /// Release everything `lease` holds; returns the amount released.
    pub fn release(&mut self, lease: u64) -> MiB {
        let amount = self.ledger.remove(&lease).unwrap_or(0);
        debug_assert!(self.used >= amount, "pool ledger out of sync");
        self.used -= amount;
        amount
    }

    /// Ledger consistency: `used` equals the ledger sum and never exceeds
    /// capacity.
    pub fn verify(&self) -> bool {
        let sum: MiB = self.ledger.values().sum();
        sum == self.used && self.used <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: MiB) -> MemoryPool {
        MemoryPool::new(PoolId(0), cap)
    }

    #[test]
    fn grab_and_release_roundtrip() {
        let mut p = pool(1000);
        p.grab(1, 300).unwrap();
        p.grab(2, 500).unwrap();
        assert_eq!(p.used(), 800);
        assert_eq!(p.free(), 200);
        assert_eq!(p.held_by(1), 300);
        assert_eq!(p.lease_count(), 2);
        assert!(p.verify());

        assert_eq!(p.release(1), 300);
        assert_eq!(p.used(), 500);
        assert_eq!(p.release(1), 0, "double release is a no-op");
        assert_eq!(p.release(2), 500);
        assert_eq!(p.used(), 0);
        assert!(p.verify());
    }

    #[test]
    fn exhaustion_is_typed() {
        let mut p = pool(100);
        p.grab(1, 60).unwrap();
        let err = p.grab(2, 50).unwrap_err();
        assert_eq!(
            err,
            PlatformError::PoolExhausted {
                pool: PoolId(0),
                requested: 50,
                free: 40
            }
        );
        // Failed grab must not mutate state.
        assert_eq!(p.used(), 60);
        assert_eq!(p.held_by(2), 0);
        assert!(p.verify());
    }

    #[test]
    fn additive_grabs() {
        let mut p = pool(100);
        p.grab(7, 10).unwrap();
        p.grab(7, 20).unwrap();
        assert_eq!(p.held_by(7), 30);
        assert_eq!(p.release(7), 30);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut p = pool(0);
        assert_eq!(p.pressure(), 0.0);
        assert!(p.grab(1, 1).is_err());
        p.grab(1, 0).unwrap(); // zero grab is fine
        assert_eq!(p.lease_count(), 0);
    }

    #[test]
    fn pressure_fraction() {
        let mut p = pool(200);
        p.grab(1, 50).unwrap();
        assert!((p.pressure() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn degradation_shrinks_effective_capacity_and_raises_pressure() {
        let mut p = pool(1000);
        p.grab(1, 400).unwrap();
        assert_eq!(p.free(), 600);
        p.set_health(0.5);
        assert_eq!(p.effective_capacity(), 500);
        assert_eq!(p.free(), 100);
        assert!((p.pressure() - 0.8).abs() < 1e-12, "pressure vs effective");
        // Grabs are bounded by the degraded capacity.
        assert!(p.grab(2, 200).is_err());
        p.grab(2, 100).unwrap();
        assert_eq!(p.free(), 0);
        // Restore: full capacity returns.
        p.set_health(1.0);
        assert_eq!(p.free(), 500);
        assert!(p.verify());
    }

    #[test]
    fn degradation_below_usage_reports_zero_free_not_underflow() {
        let mut p = pool(1000);
        p.grab(1, 800).unwrap();
        p.set_health(0.5);
        assert_eq!(p.free(), 0, "over-committed pool has nothing free");
        assert!(p.pressure() > 1.0, "transiently over unit pressure");
        assert!(p.verify(), "ledger itself stays consistent");
        let holders: Vec<_> = p.holders().collect();
        assert_eq!(holders, vec![(1, 800)]);
    }
}
