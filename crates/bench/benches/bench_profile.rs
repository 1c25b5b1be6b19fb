//! T3: two-resource availability-profile operations vs horizon length.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, ClusterSpec, MemoryAssignment, NodeId, NodeSpec, PoolTopology};
use dmhpc_sched::{AvailabilityProfile, Demand, Release, ReleaseIndex, RunningRelease};

fn make(releases: usize) -> (Cluster, Vec<Release>) {
    let cluster = Cluster::new(ClusterSpec::new(
        8,
        32,
        NodeSpec::new(64, 256 * 1024),
        PoolTopology::PerRack {
            mib_per_rack: 512 * 1024,
        },
    ));
    let mut rng = Pcg64::new(3);
    let rels = (0..releases)
        .map(|_| Release {
            time: SimTime::from_secs(rng.bounded_u64(100_000)),
            nodes_per_rack: (0..8).map(|_| rng.bounded_u64(3) as u32).collect(),
            pool_per_domain: (0..8).map(|_| rng.bounded_u64(64 * 1024)).collect(),
        })
        .collect();
    (cluster, rels)
}

/// A machine with every node busy that drains over 100,000 s: `n` evenly
/// spaced releases hand each rack back 32 nodes in total. A demand for 31
/// nodes per rack fits only after ~97% of the releases, so `earliest_fit`
/// scans nearly every breakpoint.
fn draining(n: usize) -> AvailabilityProfile {
    let (mut cluster, _) = make(0);
    for node in 0..cluster.total_nodes() {
        cluster
            .allocate(
                node as u64,
                MemoryAssignment::local(vec![NodeId(node)], 1024),
            )
            .unwrap();
    }
    let per_rack = |j: usize| ((j + 1) * 32 / n - j * 32 / n) as u32;
    let rels: Vec<Release> = (0..n)
        .map(|j| Release {
            time: SimTime::from_secs(((j + 1) * 100_000 / n) as u64),
            nodes_per_rack: vec![per_rack(j); 8],
            pool_per_domain: vec![0; 8],
        })
        .collect();
    AvailabilityProfile::from_cluster(SimTime::ZERO, &cluster, &rels)
}

/// The same releases held in a [`ReleaseIndex`], as an engine holds them.
fn index_of(rels: &[Release]) -> ReleaseIndex {
    let mut index = ReleaseIndex::new();
    for (lease, r) in rels.iter().enumerate() {
        index.insert(
            lease as u64,
            RunningRelease {
                planned_end: r.time,
                nodes_per_rack: r.nodes_per_rack.clone(),
                pool_per_domain: r.pool_per_domain.clone(),
            },
        );
    }
    index
}

fn bench_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("availability_profile");
    group.sample_size(20);
    for &n in &[16usize, 128, 1024] {
        let (cluster, rels) = make(n);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| {
                black_box(AvailabilityProfile::from_cluster(
                    SimTime::ZERO,
                    &cluster,
                    &rels,
                ))
            })
        });
        // The build a scheduling pass does: straight from the sorted index.
        let index = index_of(&rels);
        group.bench_with_input(BenchmarkId::new("from_view", n), &n, |b, _| {
            b.iter(|| {
                black_box(AvailabilityProfile::from_sorted(
                    SimTime::ZERO,
                    &cluster,
                    index
                        .view()
                        .iter()
                        .map(|r| (r.planned_end, &r.nodes_per_rack[..], &r.pool_per_domain[..])),
                ))
            })
        });
        let mut profile = draining(n);
        let demand = Demand {
            nodes: 31 * 8,
            remote_per_node: 1024,
        };
        let wall = SimDuration::from_hours(2);
        let (start, _) = profile.earliest_fit(SimTime::ZERO, wall, &demand).unwrap();
        assert!(start >= SimTime::from_secs(95_000), "fits late, at {start}");
        group.bench_with_input(BenchmarkId::new("earliest_fit", n), &n, |b, _| {
            b.iter(|| black_box(profile.earliest_fit(SimTime::ZERO, wall, &demand)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
