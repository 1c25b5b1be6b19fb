//! Deterministic grid sharding and shard-result merging.
//!
//! A [`Shard`] names one slice of a compiled grid: shard `i` of `n` takes
//! every cell whose compile-order index is congruent to `i` mod `n`.
//! Round-robin assignment (rather than contiguous chunks) balances load:
//! adjacent cells share a cluster and load point and therefore correlate
//! in cost, so dealing them out like cards gives each process a
//! representative mix. The partition is a pure function of the spec, so
//! `n` independent processes — or CI jobs — agree on it without
//! coordination, and `∪ shards == full grid` with no overlaps for any
//! `n ≥ 1` (tested).
//!
//! [`ExperimentResults::merge`] recombines shard outputs into one
//! grid-ordered table, verifying that the shards cover the grid exactly
//! (every cell present once, nothing foreign).

use super::results::RunStats;
use super::{CellKey, ExperimentResults, ExperimentSpec, RunSpec};
use crate::error::SimError;
use std::collections::BTreeMap;
use std::fmt;

/// One slice of a grid: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count`. `index` must be `< count` and `count`
    /// must be `≥ 1`.
    pub fn new(index: usize, count: usize) -> Result<Self, SimError> {
        if count == 0 {
            return Err(SimError::spec("shard count must be >= 1"));
        }
        if index >= count {
            return Err(SimError::spec(format!(
                "shard index {index} out of range for {count} shards (valid: 0..{count})"
            )));
        }
        Ok(Shard { index, count })
    }

    /// Parse the CLI form `i/n` (e.g. `0/4`).
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let bad = || SimError::spec(format!("shard must look like i/n (e.g. 0/4), got {text:?}"));
        let (i, n) = text.split_once('/').ok_or_else(bad)?;
        Shard::new(
            i.trim().parse().map_err(|_| bad())?,
            n.trim().parse().map_err(|_| bad())?,
        )
    }

    /// This shard's index (`0..count`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether compile-order cell `i` belongs to this shard.
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Exact-equality lookup key for a grid cell (loads compared by bit
/// pattern, as the grid axes mean).
type MergeKey = (String, Option<u64>, Option<u64>, Option<String>, String);

fn merge_key(key: &CellKey) -> MergeKey {
    (
        key.cluster.clone(),
        key.load.map(f64::to_bits),
        key.seed,
        key.fault.clone(),
        key.scheduler.clone(),
    )
}

impl ExperimentSpec {
    /// Compile the grid and keep only the cells belonging to `shard`, in
    /// grid order. `shard(0, 1)` is the whole grid.
    pub fn shard(&self, shard: Shard) -> Result<Vec<RunSpec>, SimError> {
        Ok(self
            .compile()?
            .into_iter()
            .enumerate()
            .filter(|(i, _)| shard.owns(*i))
            .map(|(_, cell)| cell)
            .collect())
    }
}

impl ExperimentResults {
    /// Recombine shard results into the full grid-ordered table.
    ///
    /// `parts` may arrive in any order (they are matched by cell
    /// coordinates, not position). Fails if any grid cell is missing,
    /// duplicated, or if a part carries a cell the spec does not compile
    /// to — each a sign that the shards were produced from a different
    /// spec revision. Cache/simulation statistics are summed across
    /// parts.
    pub fn merge(
        spec: &ExperimentSpec,
        parts: impl IntoIterator<Item = ExperimentResults>,
    ) -> Result<ExperimentResults, SimError> {
        let grid = spec.compile()?;
        let mut by_key: BTreeMap<MergeKey, super::CellResult> = BTreeMap::new();
        let mut stats = RunStats::default();
        for part in parts {
            if part.name != spec.name {
                return Err(SimError::spec(format!(
                    "cannot merge results for {:?} into experiment {:?}",
                    part.name, spec.name
                )));
            }
            stats.simulated += part.stats().simulated;
            stats.cache_hits += part.stats().cache_hits;
            stats.observable += part.stats().observable;
            for cell in part.into_cells() {
                if by_key.insert(merge_key(&cell.key), cell).is_some() {
                    return Err(SimError::spec(
                        "duplicate cell across shard results (overlapping shards?)",
                    ));
                }
            }
        }
        let mut cells = Vec::with_capacity(grid.len());
        for cell in &grid {
            let result = by_key.remove(&merge_key(&cell.key)).ok_or_else(|| {
                SimError::spec(format!(
                    "shard results missing grid cell {} (incomplete shard set?)",
                    cell.key.label()
                ))
            })?;
            cells.push(result);
        }
        if !by_key.is_empty() {
            return Err(SimError::spec(format!(
                "{} shard result cell(s) not in the spec's grid (stale spec?)",
                by_key.len()
            )));
        }
        Ok(ExperimentResults::with_stats(
            spec.name.clone(),
            cells,
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{default_slowdown, policy_suite};
    use crate::ExperimentRunner;
    use dmhpc_platform::PoolTopology;
    use dmhpc_workload::SystemPreset;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::builder("shard-test")
            .preset(SystemPreset::HighThroughput, 30)
            .pools([
                PoolTopology::None,
                PoolTopology::PerRack {
                    mib_per_rack: 384 * 1024,
                },
            ])
            .loads([0.7, 0.9])
            .seeds([1, 2, 3])
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap()
    }

    #[test]
    fn parse_and_validate() {
        assert_eq!(Shard::parse("0/4").unwrap(), Shard::new(0, 4).unwrap());
        assert_eq!(Shard::parse(" 3/8 ").unwrap().to_string(), "3/8");
        for bad in ["", "1", "4/4", "a/b", "1/0", "-1/2", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn shards_partition_the_grid_for_any_count() {
        let spec = spec();
        let full = spec.compile().unwrap();
        for n in [1usize, 2, 3, 5, 7, full.len(), full.len() + 13] {
            let mut seen: Vec<&super::super::CellKey> = Vec::new();
            for i in 0..n {
                let part = spec.shard(Shard::new(i, n).unwrap()).unwrap();
                for cell in &part {
                    assert!(
                        !seen.iter().any(|k| **k == cell.key),
                        "cell {} in two shards (n={n})",
                        cell.key.label()
                    );
                }
                // Balanced to within one cell.
                let lo = full.len() / n;
                assert!(
                    part.len() == lo || part.len() == lo + 1,
                    "shard {i}/{n} holds {} cells of {}",
                    part.len(),
                    full.len()
                );
                seen.extend(
                    spec.shard(Shard::new(i, n).unwrap())
                        .unwrap()
                        .iter()
                        .map(|c| {
                            full.iter()
                                .map(|f| &f.key)
                                .find(|k| **k == c.key)
                                .expect("shard cell exists in full grid")
                        }),
                );
            }
            assert_eq!(seen.len(), full.len(), "∪ shards == full grid (n={n})");
        }
    }

    #[test]
    fn merged_shards_equal_the_full_run() {
        let spec = spec();
        let runner = ExperimentRunner::with_threads(2);
        let full = runner.run(&spec).unwrap();
        let parts: Vec<ExperimentResults> = (0..3)
            .map(|i| runner.run_shard(&spec, Shard::new(i, 3).unwrap()).unwrap())
            .collect();
        // Parts merge in any order.
        let merged = ExperimentResults::merge(&spec, parts.into_iter().rev()).unwrap();
        assert_eq!(merged.len(), full.len());
        assert_eq!(merged.to_csv(), full.to_csv());
        assert_eq!(merged.to_json(), full.to_json());
        for (a, b) in merged.cells().iter().zip(full.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.output.trace_hash, b.output.trace_hash);
        }
        assert_eq!(merged.stats().simulated, full.len());
    }

    #[test]
    fn merge_rejects_missing_overlapping_and_foreign_cells() {
        let spec = spec();
        let runner = ExperimentRunner::with_threads(1);
        let s0 = runner.run_shard(&spec, Shard::new(0, 2).unwrap()).unwrap();
        let s1 = runner.run_shard(&spec, Shard::new(1, 2).unwrap()).unwrap();

        // Missing a shard.
        let err = ExperimentResults::merge(&spec, [s0.clone()]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");

        // Overlapping shards.
        let err =
            ExperimentResults::merge(&spec, [s0.clone(), s0.clone(), s1.clone()]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");

        // Results from a different experiment name.
        let mut other = spec.clone();
        other.name = "something-else".into();
        let err = ExperimentResults::merge(&other, [s0, s1]).unwrap_err();
        assert!(err.to_string().contains("cannot merge"), "{err}");
    }
}
