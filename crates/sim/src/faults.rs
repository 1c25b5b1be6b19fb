//! Fault & availability scenarios as first-class, deterministic inputs.
//!
//! A [`FaultSpec`] perturbs the *machine* over the course of a run — the
//! first scenario axis that does, where every earlier axis perturbed the
//! workload or the policy. It combines:
//!
//! * a **fixed schedule** of timestamped [`FaultAction`]s (node failures
//!   and repairs, maintenance drain windows, pool degradations), for
//!   hand-authored what-if studies and exact regression tests;
//! * an optional **seeded generator** ([`FaultGenerator`]) that expands to
//!   such a schedule deterministically (Pcg64 streams keyed by the fault
//!   seed, independent of the workload seed), for statistical studies;
//! * an [`InterruptPolicy`] deciding what happens to jobs running on
//!   capacity that disappears: resubmit from scratch, or checkpoint and
//!   restart with a configurable overhead; plus a resubmission budget
//!   after which a repeatedly interrupted job fails terminally.
//!
//! [`FaultSpec::none`] is the identity scenario: the engine takes the
//! exact pre-fault code path, producing bit-identical traces to a fault-
//! free run, and the experiment layer hashes nothing for it — so existing
//! result caches stay warm (tested in `tests/integration.rs`).

use crate::error::SimError;
use crate::fnv::Fnv64;
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{ClusterSpec, NodeId, PoolId, PoolTopology};

/// One machine perturbation at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// A node fails (`→ Down`); any job holding it is interrupted.
    NodeFail(NodeId),
    /// A failed node returns to service (`Down → Up`).
    NodeRepair(NodeId),
    /// A maintenance drain begins (`Up → Draining`); running work on the
    /// node is interrupted (hard drain — with a checkpoint policy this is
    /// the graceful-preemption case).
    DrainStart(NodeId),
    /// A maintenance drain ends (`Draining → Up`).
    DrainEnd(NodeId),
    /// A pool's health degrades to `factor` of nominal capacity and
    /// bandwidth; borrowers are evicted (interrupted) until the remaining
    /// holdings fit the degraded capacity.
    PoolDegrade {
        /// Affected pool domain.
        pool: PoolId,
        /// New health factor in `(0, 1)`.
        factor: f64,
    },
    /// A degraded pool returns to full health.
    PoolRepair(PoolId),
}

/// What happens to a job interrupted by a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptPolicy {
    /// Resubmit from scratch: all completed work is lost and redone.
    Resubmit,
    /// Checkpoint/restart: completed work survives; the restarted job
    /// pays a restore overhead on top of its remaining work.
    Checkpoint {
        /// Restore overhead in *work* seconds, added to the remaining
        /// runtime. Like all work it is subject to the restarted
        /// placement's dilation (restoring a checkpoint moves memory
        /// through the same fabric), so its wall-clock cost can exceed
        /// this value for pool borrowers. `FaultSummary::rework_s`
        /// charges the undilated figure.
        overhead_s: u64,
    },
}

impl InterruptPolicy {
    /// Stable name for labels.
    pub fn name(&self) -> &'static str {
        match self {
            InterruptPolicy::Resubmit => "resubmit",
            InterruptPolicy::Checkpoint { .. } => "checkpoint",
        }
    }
}

/// Seeded random fault generator: expands deterministically into a fixed
/// schedule over `[0, horizon_s]`. Three independent processes, each
/// disabled by a zero interval/MTBF:
///
/// * node **failures** — Poisson arrivals with mean `node_mtbf_s` (whole
///   machine, uniformly chosen victim), each repaired `node_repair_s`
///   later;
/// * maintenance **drains** — a periodic window every `drain_interval_s`
///   of length `drain_duration_s` on a uniformly chosen node;
/// * pool **degradations** — every `pool_degrade_interval_s`, a uniformly
///   chosen pool drops to `pool_degrade_factor` health for
///   `pool_degrade_duration_s`.
///
/// Determinism: the expansion is a pure function of this struct and the
/// cluster shape; each process draws from its own Pcg64 stream keyed by
/// `seed`, so enabling one process never shifts another's draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultGenerator {
    /// Fault-process seed (independent of the workload seed axis).
    pub seed: u64,
    /// Horizon in seconds: no generated fault starts at or after it
    /// (repairs/drain-ends may land beyond it).
    pub horizon_s: u64,
    /// Mean time between node failures, seconds (0 = no failures).
    pub node_mtbf_s: u64,
    /// Repair time after each failure, seconds.
    pub node_repair_s: u64,
    /// Seconds between maintenance-drain windows (0 = no drains).
    pub drain_interval_s: u64,
    /// Length of each drain window, seconds.
    pub drain_duration_s: u64,
    /// Seconds between pool degradations (0 = none).
    pub pool_degrade_interval_s: u64,
    /// Length of each degradation, seconds.
    pub pool_degrade_duration_s: u64,
    /// Health factor during a degradation, in `(0, 1)`.
    pub pool_degrade_factor: f64,
}

impl FaultGenerator {
    /// A generator with everything disabled — compose by setting the
    /// processes you want.
    pub fn quiet(seed: u64, horizon_s: u64) -> Self {
        FaultGenerator {
            seed,
            horizon_s,
            node_mtbf_s: 0,
            node_repair_s: 3_600,
            drain_interval_s: 0,
            drain_duration_s: 3_600,
            pool_degrade_interval_s: 0,
            pool_degrade_duration_s: 3_600,
            pool_degrade_factor: 0.5,
        }
    }

    fn is_quiet(&self) -> bool {
        self.node_mtbf_s == 0 && self.drain_interval_s == 0 && self.pool_degrade_interval_s == 0
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.is_quiet() {
            return Ok(());
        }
        if self.horizon_s == 0 {
            return Err(SimError::spec("fault generator needs horizon_s > 0"));
        }
        if self.pool_degrade_interval_s > 0
            && !(self.pool_degrade_factor > 0.0 && self.pool_degrade_factor < 1.0)
        {
            return Err(SimError::spec(format!(
                "pool_degrade_factor must be in (0, 1), got {}",
                self.pool_degrade_factor
            )));
        }
        Ok(())
    }

    /// Expand into timestamped actions for one machine shape.
    /// Generated outage windows never overlap per target: a failure drawn
    /// while its victim is still inside an earlier down window is dropped
    /// (the engine would no-op the second failure, but its paired repair
    /// would then end the *first* window early — silently shortening the
    /// realized outage process). Same for drain windows per node and
    /// degradation windows per pool. Fixed schedules are taken verbatim;
    /// overlapping hand-written windows get the engine's tolerant no-op
    /// semantics.
    fn generate(&self, cluster: &ClusterSpec) -> Vec<(SimTime, FaultAction)> {
        let mut out = Vec::new();
        let nodes = cluster.total_nodes() as usize;
        let horizon = self.horizon_s as f64;
        if self.node_mtbf_s > 0 && nodes > 0 {
            let mut rng = Pcg64::new_stream(self.seed, 0xFA11_0001);
            let mut down_until = vec![SimTime::ZERO; nodes];
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival with the configured mean.
                t +=
                    -(self.node_mtbf_s as f64) * (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE).ln();
                if t >= horizon {
                    break;
                }
                let node = rng.index(nodes);
                let at = SimTime::from_secs_f64(t);
                if at < down_until[node] {
                    continue; // victim still down: window would not nest
                }
                let up_at = at + SimDuration::from_secs(self.node_repair_s);
                down_until[node] = up_at;
                out.push((at, FaultAction::NodeFail(NodeId(node as u32))));
                out.push((up_at, FaultAction::NodeRepair(NodeId(node as u32))));
            }
        }
        if self.drain_interval_s > 0 && nodes > 0 {
            let mut rng = Pcg64::new_stream(self.seed, 0xFA11_0002);
            let mut draining_until = vec![SimTime::ZERO; nodes];
            let mut t = self.drain_interval_s;
            while (t as f64) < horizon {
                let node = rng.index(nodes);
                let at = SimTime::from_secs(t);
                t += self.drain_interval_s;
                if at < draining_until[node] {
                    continue;
                }
                let end_at = at + SimDuration::from_secs(self.drain_duration_s);
                draining_until[node] = end_at;
                out.push((at, FaultAction::DrainStart(NodeId(node as u32))));
                out.push((end_at, FaultAction::DrainEnd(NodeId(node as u32))));
            }
        }
        let domains = pool_domains(cluster);
        if self.pool_degrade_interval_s > 0 && domains > 0 {
            let mut rng = Pcg64::new_stream(self.seed, 0xFA11_0003);
            let mut degraded_until = vec![SimTime::ZERO; domains];
            let mut t = self.pool_degrade_interval_s;
            while (t as f64) < horizon {
                let pool = rng.index(domains);
                let at = SimTime::from_secs(t);
                t += self.pool_degrade_interval_s;
                if at < degraded_until[pool] {
                    continue;
                }
                let end_at = at + SimDuration::from_secs(self.pool_degrade_duration_s);
                degraded_until[pool] = end_at;
                out.push((
                    at,
                    FaultAction::PoolDegrade {
                        pool: PoolId(pool as u32),
                        factor: self.pool_degrade_factor,
                    },
                ));
                out.push((end_at, FaultAction::PoolRepair(PoolId(pool as u32))));
            }
        }
        out
    }
}

/// Number of pool domains a topology creates.
fn pool_domains(cluster: &ClusterSpec) -> usize {
    match cluster.pool {
        PoolTopology::None => 0,
        PoolTopology::PerRack { .. } => cluster.racks as usize,
        PoolTopology::Global { .. } => 1,
    }
}

/// A complete fault/availability scenario for one run. See the module
/// docs; build with [`FaultSpec::none`] and the `with_*` methods.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Hand-authored timestamped actions (applied alongside any generated
    /// ones; need not be sorted).
    pub schedule: Vec<(SimTime, FaultAction)>,
    /// Optional seeded generator expanded per machine shape.
    pub generator: Option<FaultGenerator>,
    /// What happens to interrupted jobs.
    pub interrupt: InterruptPolicy,
    /// How many times one job may be resubmitted after interruptions
    /// before it fails terminally.
    pub max_resubmits: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The identity scenario: no faults, bit-identical engine behaviour to
    /// a fault-free run, and hash-neutral in the experiment cache.
    pub fn none() -> Self {
        FaultSpec {
            schedule: Vec::new(),
            generator: None,
            interrupt: InterruptPolicy::Resubmit,
            max_resubmits: 1,
        }
    }

    /// True when this scenario perturbs nothing (no fixed actions and no
    /// active generator process) — the engine then skips the fault path
    /// entirely and the cell hash is unchanged.
    pub fn is_none(&self) -> bool {
        self.schedule.is_empty() && self.generator.is_none_or(|g| g.is_quiet())
    }

    /// Add one fixed action.
    pub fn with_action(mut self, at: SimTime, action: FaultAction) -> Self {
        self.schedule.push((at, action));
        self
    }

    /// Attach a seeded generator.
    pub fn with_generator(mut self, generator: FaultGenerator) -> Self {
        self.generator = Some(generator);
        self
    }

    /// Set the interrupted-job policy.
    pub fn with_interrupt(mut self, interrupt: InterruptPolicy) -> Self {
        self.interrupt = interrupt;
        self
    }

    /// Set the resubmission budget.
    pub fn with_max_resubmits(mut self, max: u32) -> Self {
        self.max_resubmits = max;
        self
    }

    /// Check the scenario for ill-formed parameters.
    pub fn validate(&self) -> Result<(), SimError> {
        for (_, action) in &self.schedule {
            if let FaultAction::PoolDegrade { factor, .. } = action {
                if !(*factor > 0.0 && *factor < 1.0) {
                    return Err(SimError::spec(format!(
                        "pool degrade factor must be in (0, 1), got {factor}"
                    )));
                }
            }
        }
        if let Some(g) = &self.generator {
            g.validate()?;
        }
        Ok(())
    }

    /// [`validate`](FaultSpec::validate) plus machine-shape checks: every
    /// fixed action must target a node/pool this cluster actually has.
    pub fn validate_for(&self, cluster: &ClusterSpec) -> Result<(), SimError> {
        self.validate()?;
        let nodes = cluster.total_nodes();
        let domains = pool_domains(cluster) as u32;
        for (_, action) in &self.schedule {
            match action {
                FaultAction::NodeFail(n)
                | FaultAction::NodeRepair(n)
                | FaultAction::DrainStart(n)
                | FaultAction::DrainEnd(n) => {
                    if n.0 >= nodes {
                        return Err(SimError::spec(format!(
                            "fault schedule targets node {n}, machine has {nodes} nodes"
                        )));
                    }
                }
                FaultAction::PoolDegrade { pool, .. } | FaultAction::PoolRepair(pool) => {
                    if pool.0 >= domains {
                        return Err(SimError::spec(format!(
                            "fault schedule targets pool {pool}, machine has {domains} pool domain(s)"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Expand into the full, time-sorted action list for one machine
    /// shape: fixed schedule plus generated events. Stable sort, so
    /// same-time actions keep (schedule, then generator-process) order —
    /// the order the engine enqueues and therefore processes them in.
    pub fn materialize(&self, cluster: &ClusterSpec) -> Vec<(SimTime, FaultAction)> {
        let mut out = self.schedule.clone();
        if let Some(g) = &self.generator {
            out.extend(g.generate(cluster));
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }

    /// Short, distinguishing label for grid axes (e.g.
    /// `fix2-gen7-mtbf14400-ckpt120`). Distinct scenarios occasionally
    /// share a label (fixed schedules differing only in payloads hash a
    /// 16-bit digest); axis validation rejects such collisions, so rename
    /// by nudging a parameter.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "no-faults".into();
        }
        let mut parts: Vec<String> = Vec::new();
        if !self.schedule.is_empty() {
            // A short content digest keeps same-length schedules apart.
            let mut digest = Fnv64::new();
            for (t, action) in &self.schedule {
                digest.write_u64(t.as_micros());
                digest.write_word(action_tag(action));
            }
            parts.push(format!(
                "fix{}h{:04x}",
                self.schedule.len(),
                digest.finish() & 0xffff
            ));
        }
        if let Some(g) = &self.generator {
            let mut s = format!("gen{}", g.seed);
            if g.node_mtbf_s > 0 {
                s.push_str(&format!("-mtbf{}", g.node_mtbf_s));
            }
            if g.drain_interval_s > 0 {
                s.push_str(&format!("-drain{}", g.drain_interval_s));
            }
            if g.pool_degrade_interval_s > 0 {
                s.push_str(&format!("-pdeg{}", g.pool_degrade_interval_s));
            }
            parts.push(s);
        }
        match self.interrupt {
            InterruptPolicy::Resubmit => parts.push("resub".into()),
            InterruptPolicy::Checkpoint { overhead_s } => parts.push(format!("ckpt{overhead_s}")),
        }
        if self.max_resubmits != 1 {
            parts.push(format!("r{}", self.max_resubmits));
        }
        parts.join("-")
    }
}

/// Stable per-variant tag (also used by the cache hasher).
pub(crate) fn action_tag(action: &FaultAction) -> u64 {
    match action {
        FaultAction::NodeFail(n) => 1 << 32 | n.0 as u64,
        FaultAction::NodeRepair(n) => 2 << 32 | n.0 as u64,
        FaultAction::DrainStart(n) => 3 << 32 | n.0 as u64,
        FaultAction::DrainEnd(n) => 4 << 32 | n.0 as u64,
        FaultAction::PoolDegrade { pool, factor } => {
            (5 << 32 | pool.0 as u64) ^ factor.to_bits().rotate_left(17)
        }
        FaultAction::PoolRepair(p) => 6 << 32 | p.0 as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::NodeSpec;

    fn machine() -> ClusterSpec {
        ClusterSpec::new(
            2,
            8,
            NodeSpec::new(32, 128 * 1024),
            PoolTopology::PerRack {
                mib_per_rack: 256 * 1024,
            },
        )
    }

    #[test]
    fn none_is_none_and_quiet_generators_count_as_none() {
        assert!(FaultSpec::none().is_none());
        let quiet = FaultSpec::none().with_generator(FaultGenerator::quiet(1, 1000));
        assert!(quiet.is_none());
        assert!(quiet.materialize(&machine()).is_empty());
        assert_eq!(FaultSpec::none().label(), "no-faults");
    }

    #[test]
    fn generator_is_deterministic_and_respects_horizon() {
        let mut gen = FaultGenerator::quiet(42, 50_000);
        gen.node_mtbf_s = 5_000;
        gen.node_repair_s = 1_000;
        gen.drain_interval_s = 20_000;
        gen.pool_degrade_interval_s = 25_000;
        gen.pool_degrade_factor = 0.5;
        let spec = FaultSpec::none().with_generator(gen);
        spec.validate().unwrap();
        let a = spec.materialize(&machine());
        let b = spec.materialize(&machine());
        assert_eq!(a, b, "expansion is pure");
        assert!(!a.is_empty());
        // Sorted by time.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        // Every failure starts before the horizon; repairs may overshoot.
        for (t, action) in &a {
            if matches!(
                action,
                FaultAction::NodeFail(_)
                    | FaultAction::DrainStart(_)
                    | FaultAction::PoolDegrade { .. }
            ) {
                assert!(t.as_secs() < 50_000, "{action:?} at {t}");
            }
        }
        // Each process present.
        assert!(a.iter().any(|(_, x)| matches!(x, FaultAction::NodeFail(_))));
        assert!(a
            .iter()
            .any(|(_, x)| matches!(x, FaultAction::DrainStart(_))));
        assert!(a
            .iter()
            .any(|(_, x)| matches!(x, FaultAction::PoolDegrade { .. })));
    }

    #[test]
    fn fixed_schedule_merges_sorted_with_generated() {
        let mut gen = FaultGenerator::quiet(7, 10_000);
        gen.drain_interval_s = 4_000;
        gen.drain_duration_s = 100;
        let spec = FaultSpec::none()
            .with_action(SimTime::from_secs(9_000), FaultAction::NodeFail(NodeId(0)))
            .with_action(SimTime::from_secs(1), FaultAction::NodeFail(NodeId(1)))
            .with_generator(gen);
        let events = spec.materialize(&machine());
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(events.first().unwrap().0.as_secs(), 1);
    }

    #[test]
    fn validation_rejects_bad_factors() {
        let bad = FaultSpec::none().with_action(
            SimTime::ZERO,
            FaultAction::PoolDegrade {
                pool: PoolId(0),
                factor: 1.5,
            },
        );
        assert!(bad.validate().is_err());
        let mut gen = FaultGenerator::quiet(1, 100);
        gen.pool_degrade_interval_s = 10;
        gen.pool_degrade_factor = 0.0;
        assert!(FaultSpec::none().with_generator(gen).validate().is_err());
    }

    #[test]
    fn labels_distinguish_scenarios() {
        let mut gen = FaultGenerator::quiet(3, 1000);
        gen.node_mtbf_s = 100;
        let a = FaultSpec::none().with_generator(gen);
        let mut gen2 = gen;
        gen2.seed = 4;
        let b = FaultSpec::none().with_generator(gen2);
        assert_ne!(a.label(), b.label());
        let c = a
            .clone()
            .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 60 });
        assert_ne!(a.label(), c.label());
        assert!(c.label().contains("ckpt60"));
        // Same-length fixed schedules with different payloads differ.
        let f1 = FaultSpec::none().with_action(SimTime::ZERO, FaultAction::NodeFail(NodeId(0)));
        let f2 = FaultSpec::none().with_action(SimTime::ZERO, FaultAction::NodeFail(NodeId(1)));
        assert_ne!(f1.label(), f2.label());
    }
}
