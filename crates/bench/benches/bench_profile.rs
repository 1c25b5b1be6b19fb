//! T3: two-resource availability-profile operations vs horizon length.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_platform::{Cluster, ClusterSpec, NodeSpec, PoolTopology};
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
        let profile = AvailabilityProfile::from_cluster(SimTime::ZERO, &cluster, &rels);
        group.bench_with_input(BenchmarkId::new("earliest_fit", n), &n, |b, _| {
            b.iter(|| {
                black_box(profile.earliest_fit(
                    SimTime::ZERO,
                    SimDuration::from_hours(2),
                    &Demand {
                        nodes: 64,
                        remote_per_node: 32 * 1024,
                    },
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
