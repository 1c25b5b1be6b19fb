//! Trace surgery: load rescaling, truncation, node capping, origin shifts.
//!
//! All transforms are pure `Workload → Workload` functions so sweeps can
//! compose them (`rescale_load(truncate(w, n), nodes, ρ)`), and all preserve
//! job identity — only arrival times or membership change.

use crate::job::Job;
use crate::workload_set::Workload;
use dmhpc_des::time::SimTime;

/// Shift arrivals so the first job arrives at t=0 (relative times are
/// preserved exactly).
pub fn shift_to_origin(w: &Workload) -> Workload {
    let Some(first) = w.first_arrival() else {
        return w.clone();
    };
    let jobs = w
        .iter()
        .map(|j| Job {
            arrival: SimTime::from_micros(j.arrival.as_micros() - first.as_micros()),
            ..j.clone()
        })
        .collect();
    Workload::from_jobs(jobs)
}

/// Keep only the first `n` jobs by arrival order.
pub fn truncate(w: &Workload, n: usize) -> Workload {
    Workload::from_jobs(w.iter().take(n).cloned().collect())
}

/// Compress or stretch inter-arrival gaps by `factor` (< 1 ⇒ arrivals come
/// faster ⇒ higher load). Job shapes are untouched; this is the standard
/// load-scaling methodology for trace-driven scheduling studies.
pub fn scale_interarrivals(w: &Workload, factor: f64) -> Workload {
    assert!(
        factor.is_finite() && factor > 0.0,
        "inter-arrival factor must be positive, got {factor}"
    );
    let Some(first) = w.first_arrival() else {
        return w.clone();
    };
    let jobs = w
        .iter()
        .map(|j| {
            let offset = j.arrival.as_micros() - first.as_micros();
            let scaled = (offset as f64 * factor).round() as u64;
            Job {
                arrival: SimTime::from_micros(first.as_micros() + scaled),
                ..j.clone()
            }
        })
        .collect();
    Workload::from_jobs(jobs)
}

/// Rescale arrivals so the offered load on a `total_nodes` machine equals
/// `target` (node-seconds per available node-second over the arrival span).
/// Returns the workload unchanged if it has fewer than 2 jobs or zero work.
pub fn rescale_load(w: &Workload, total_nodes: u32, target: f64) -> Workload {
    assert!(
        target.is_finite() && target > 0.0,
        "target load must be positive, got {target}"
    );
    let current = w.offered_load(total_nodes);
    if current == 0.0 {
        return w.clone();
    }
    // load ∝ 1/span ∝ 1/factor  ⇒  factor = current/target.
    scale_interarrivals(w, current / target)
}

/// Cap every job's node request at `max_nodes` (per-node memory is
/// recomputed so the total footprint is preserved). Used when replaying a
/// big machine's trace onto a smaller simulated one.
pub fn cap_nodes(w: &Workload, max_nodes: u32) -> Workload {
    assert!(max_nodes >= 1, "max_nodes must be >= 1");
    let jobs = w
        .iter()
        .map(|j| {
            if j.nodes <= max_nodes {
                j.clone()
            } else {
                Job {
                    nodes: max_nodes,
                    mem_per_node: j.mem_per_node_at(max_nodes),
                    ..j.clone()
                }
            }
        })
        .collect();
    Workload::from_jobs(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobBuilder;

    fn base() -> Workload {
        Workload::from_jobs(vec![
            JobBuilder::new(1)
                .arrival_secs(100)
                .nodes(10)
                .runtime_secs(100, 200)
                .build(),
            JobBuilder::new(2)
                .arrival_secs(200)
                .nodes(20)
                .runtime_secs(50, 100)
                .build(),
            JobBuilder::new(3)
                .arrival_secs(400)
                .nodes(1)
                .runtime_secs(1000, 2000)
                .build(),
        ])
    }

    #[test]
    fn shift_to_origin_zeroes_first() {
        let w = shift_to_origin(&base());
        assert_eq!(w.first_arrival(), Some(SimTime::ZERO));
        assert_eq!(w.jobs()[1].arrival, SimTime::from_secs(100));
        assert_eq!(w.jobs()[2].arrival, SimTime::from_secs(300));
        // Idempotent.
        assert_eq!(shift_to_origin(&w), w);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let w = truncate(&base(), 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs()[1].id.0, 2);
        assert_eq!(truncate(&base(), 100).len(), 3);
    }

    #[test]
    fn scale_interarrivals_halves_gaps() {
        let w = scale_interarrivals(&base(), 0.5);
        assert_eq!(w.jobs()[0].arrival, SimTime::from_secs(100), "origin fixed");
        assert_eq!(w.jobs()[1].arrival, SimTime::from_secs(150));
        assert_eq!(w.jobs()[2].arrival, SimTime::from_secs(250));
    }

    #[test]
    fn rescale_load_hits_target() {
        let w = base();
        let target = 0.5;
        let scaled = rescale_load(&w, 64, target);
        let achieved = scaled.offered_load(64);
        assert!(
            (achieved - target).abs() / target < 0.01,
            "achieved {achieved} vs target {target}"
        );
        // Job bodies unchanged.
        for (a, b) in w.iter().zip(scaled.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn rescale_up_and_down() {
        let w = base();
        // base() offered load on 64 nodes is 3000/(64·300) ≈ 0.156.
        let hi = rescale_load(&w, 64, 1.2);
        let lo = rescale_load(&w, 64, 0.05);
        assert!(hi.arrival_span() < w.arrival_span());
        assert!(lo.arrival_span() > w.arrival_span());
    }

    #[test]
    fn cap_nodes_preserves_total_memory() {
        let w = Workload::from_jobs(vec![JobBuilder::new(1).nodes(16).mem_per_node(100).build()]);
        let capped = cap_nodes(&w, 4);
        let j = &capped.jobs()[0];
        assert_eq!(j.nodes, 4);
        assert_eq!(j.mem_per_node, 400);
        assert_eq!(j.total_mem(), 1600);
    }

    #[test]
    fn empty_workload_transforms() {
        let e = Workload::new();
        assert!(shift_to_origin(&e).is_empty());
        assert!(scale_interarrivals(&e, 2.0).is_empty());
        assert!(rescale_load(&e, 10, 0.5).is_empty());
    }
}
