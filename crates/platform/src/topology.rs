//! Where disaggregated memory lives.

use crate::units::MiB;

/// Placement of disaggregated memory in the system.
///
/// The paper's central comparison is between a conventional cluster
/// (`None`), rack-scale pooling (`PerRack` — the realistic near-term CXL
/// deployment: a memory shelf per rack, reachable at rack-local latency),
/// and an idealized system-wide pool (`Global` — an upper bound that removes
/// placement constraints entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTopology {
    /// No disaggregated memory: jobs live on node DRAM alone.
    None,
    /// One pool per rack; a node may only borrow from its own rack's pool.
    PerRack {
        /// Capacity of each rack's pool in MiB.
        mib_per_rack: MiB,
    },
    /// One pool shared by every node.
    Global {
        /// Total pool capacity in MiB.
        mib: MiB,
    },
}

impl PoolTopology {
    /// Total pool capacity across the system for a given rack count.
    pub fn total_capacity(&self, racks: u32) -> MiB {
        match *self {
            PoolTopology::None => 0,
            PoolTopology::PerRack { mib_per_rack } => mib_per_rack * racks as u64,
            PoolTopology::Global { mib } => mib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::gib;

    #[test]
    fn capacities() {
        assert_eq!(PoolTopology::None.total_capacity(10), 0);
        assert_eq!(
            PoolTopology::PerRack {
                mib_per_rack: gib(512)
            }
            .total_capacity(4),
            gib(2048)
        );
        assert_eq!(
            PoolTopology::Global { mib: gib(1024) }.total_capacity(4),
            gib(1024)
        );
    }
}
