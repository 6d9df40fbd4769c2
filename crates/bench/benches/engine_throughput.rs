//! Criterion bench for the raw engine hot loop: bucketed scheduler +
//! claim-word delivery, measured through an all-awake broadcast protocol
//! so engine overhead (not protocol logic) dominates. The JSON artifact
//! counterpart with baseline comparison is the `engine_throughput` binary
//! (`BENCH_engine.json`).

use congest_sim::{
    run, run_with, EngineScratch, Inbox, InitApi, NodeId, Protocol, RecvApi, SendApi, SimConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis_bench::{workload_gnp, workload_regular};

/// All-awake chatter for `rounds` rounds; every node broadcasts each
/// round (same protocol as the JSON emitter).
struct Chatter {
    rounds: u64,
}

impl Protocol for Chatter {
    type State = u32;
    type Msg = u32;

    fn init(&self, node: NodeId, api: &mut InitApi<'_>) -> u32 {
        api.wake_range(0..self.rounds);
        node
    }

    fn send(&self, state: &mut u32, api: &mut SendApi<'_, u32>) {
        api.broadcast(*state & 0xffff);
    }

    fn recv(&self, state: &mut u32, inbox: Inbox<'_, u32>, _api: &mut RecvApi<'_>) {
        for (src, v) in inbox {
            *state = state.wrapping_add(src.wrapping_add(*v));
        }
    }
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-throughput");
    group.sample_size(10);
    for n in [1 << 12, 1 << 14] {
        let gnp = workload_gnp(n, 5);
        group.bench_with_input(BenchmarkId::new("gnp-32r", n), &n, |b, _| {
            b.iter(|| run(&gnp, &Chatter { rounds: 32 }, &SimConfig::seeded(1)).unwrap())
        });
        let reg = workload_regular(n, 8, 5);
        group.bench_with_input(BenchmarkId::new("regular8-32r", n), &n, |b, _| {
            b.iter(|| run(&reg, &Chatter { rounds: 32 }, &SimConfig::seeded(1)).unwrap())
        });
        // Scratch reuse across runs: what a parameter sweep pays.
        let mut scratch = EngineScratch::new(&gnp);
        group.bench_with_input(BenchmarkId::new("gnp-32r-scratch", n), &n, |b, _| {
            b.iter(|| {
                run_with(
                    &gnp,
                    &Chatter { rounds: 32 },
                    &SimConfig::seeded(1),
                    &mut scratch,
                    None,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
