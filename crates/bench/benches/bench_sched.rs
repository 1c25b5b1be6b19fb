//! T3: scheduling-pass latency vs queue depth (EASY and conservative).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dmhpc_des::time::SimTime;
use dmhpc_platform::{Cluster, ClusterSpec, MemoryAssignment, NodeId, NodeSpec, PoolTopology};
use dmhpc_sched::{
    BackfillPolicy, MemoryPolicy, ReleaseIndex, RunningRelease, Scheduler, SchedulerBuilder,
    WaitQueue,
};
use dmhpc_workload::SystemPreset;

/// The instant every benchmarked pass runs at.
const NOW_S: u64 = 600_000;

/// A mostly-full cluster with a populated queue: the worst case for a pass.
/// Every running lease ends after [`NOW_S`], so the pass's availability
/// profile sees the cluster as busy as `plan()` does.
fn setup(depth: usize) -> (Cluster, WaitQueue, ReleaseIndex) {
    let mut cluster = Cluster::new(ClusterSpec::new(
        8,
        32,
        NodeSpec::new(64, 256 * 1024),
        PoolTopology::PerRack {
            mib_per_rack: 512 * 1024,
        },
    ));
    // Fill 95% of nodes with running leases ending at staggered times.
    let mut releases = ReleaseIndex::new();
    let busy = (cluster.total_nodes() as usize * 95) / 100;
    for i in 0..busy {
        let node = NodeId(i as u32);
        let a = MemoryAssignment::local(vec![node], 64 * 1024);
        let lease = 1_000_000 + i as u64;
        cluster.allocate(lease, a).unwrap();
        let mut nodes_per_rack = vec![0u32; 8];
        nodes_per_rack[i / 32] += 1;
        releases.insert(
            lease,
            RunningRelease {
                planned_end: SimTime::from_secs(NOW_S + 600 + (i as u64 % 96) * 600),
                nodes_per_rack,
                pool_per_domain: vec![0; 8],
            },
        );
    }
    let spec = SystemPreset::MidCluster.synthetic_spec(depth);
    let w = spec.generate(11);
    let mut queue = WaitQueue::new();
    for job in w.iter() {
        queue.push(job.clone(), SimTime::ZERO);
    }
    (cluster, queue, releases)
}

fn pass(sched: &Scheduler, cluster: &Cluster, queue: &WaitQueue, releases: &ReleaseIndex) {
    let mut c = cluster.clone();
    let mut q = queue.clone();
    black_box(sched.schedule(SimTime::from_secs(NOW_S), &mut q, &mut c, releases.view()));
}

fn bench_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling_pass");
    group.sample_size(10);
    for &depth in &[16usize, 128, 512] {
        let (cluster, queue, releases) = setup(depth);
        let easy = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Easy)
                .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 })
                .build(),
        )
        .expect("valid config");
        group.bench_with_input(BenchmarkId::new("easy", depth), &depth, |b, _| {
            b.iter(|| pass(&easy, &cluster, &queue, &releases))
        });
        let cons = Scheduler::new(
            SchedulerBuilder::new()
                .backfill(BackfillPolicy::Conservative)
                .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 })
                .build(),
        )
        .expect("valid config");
        group.bench_with_input(BenchmarkId::new("conservative", depth), &depth, |b, _| {
            b.iter(|| pass(&cons, &cluster, &queue, &releases))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
