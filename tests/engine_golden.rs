//! Determinism golden test for the engine rearchitecture(s).
//!
//! The bucketed-scheduler + edge-slot engine must be *bit-for-bit*
//! equivalent to the original `BTreeMap`-queue / global-outbox engine:
//! same `(seed, salt)` ⇒ identical metrics and final protocol states.
//! The constants below were recorded by running the pre-change engine
//! (commit `2f01567`) on these exact workloads; any divergence in round
//! accounting, message accounting, per-node energy, or the computed MIS
//! fails this test.
//!
//! Every workload additionally runs at several thread counts
//! (`SimConfig::threads`, the number of shards the engine's one round
//! loop is split into) and must reproduce the *same* recorded
//! fingerprints: thread count is a pure performance knob, never an
//! observable. The sweep defaults to 0 (one shard, the sequential
//! engine) plus 1/2/4/8 workers and can be overridden with
//! `PAR_THREADS=1,2,4`, which is how CI pins the contract in a dedicated
//! job.

use congest_sim::{AdversarySchedule, ChannelModel, Metrics, SimConfig, SleepWindow};
use energy_mis::params::{Alg1Params, Alg2Params};
use energy_mis::{alg1, alg2};
use mis_baselines::luby;
use mis_graphs::{generators, Graph};
use mis_runner::{incremental, run_churn_on, RunConfig, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Thread counts every golden workload is replayed at; `0` and `1` run
/// one shard (the sequential engine), `k >= 2` runs `k` shards.
fn thread_counts() -> Vec<usize> {
    match std::env::var("PAR_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("PAR_THREADS: comma-separated ints"))
            .collect(),
        Err(_) => vec![0, 1, 2, 4, 8],
    }
}

/// Condensed fingerprint of one run, matching the pre-change recording.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    elapsed_rounds: u64,
    busy_rounds: u64,
    messages_sent: u64,
    messages_delivered: u64,
    bits_sent: u64,
    max_message_bits: usize,
    max_awake: u64,
    total_awake: u64,
    /// FNV-1a over the per-node awake-round vector.
    awake_hash: u64,
    /// FNV-1a over the per-node MIS membership bits.
    mis_hash: u64,
    mis_size: usize,
}

fn fnv(values: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fingerprint(m: &Metrics, in_mis: &[bool]) -> Golden {
    Golden {
        elapsed_rounds: m.elapsed_rounds,
        busy_rounds: m.busy_rounds,
        messages_sent: m.messages_sent,
        messages_delivered: m.messages_delivered,
        bits_sent: m.bits_sent,
        max_message_bits: m.max_message_bits,
        max_awake: m.max_awake(),
        total_awake: m.total_awake(),
        awake_hash: fnv(m.awake_rounds.iter().copied()),
        mis_hash: fnv(in_mis.iter().map(|&b| b as u64)),
        mis_size: in_mis.iter().filter(|&&b| b).count(),
    }
}

/// The four workload graphs, reproduced exactly as recorded (same
/// generator seeds).
fn graphs() -> Vec<(&'static str, Graph)> {
    let mut r1 = SmallRng::seed_from_u64(7);
    let mut r2 = SmallRng::seed_from_u64(11);
    vec![
        ("path129", generators::path(129)),
        ("cycle200", generators::cycle(200)),
        ("gnp512", generators::gnp(512, 10.0 / 512.0, &mut r1)),
        ("reg512", generators::random_regular(512, 8, &mut r2)),
    ]
}

#[test]
fn luby_matches_pre_change_engine() {
    let expected = [
        (
            "luby/path129",
            Golden {
                elapsed_rounds: 24,
                busy_rounds: 24,
                messages_sent: 376,
                messages_delivered: 376,
                bits_sent: 905,
                max_message_bits: 4,
                max_awake: 24,
                total_awake: 927,
                awake_hash: 0xa755ba901d99fdc6,
                mis_hash: 0x7e6f6c99bde4ba0b,
                mis_size: 56,
            },
        ),
        (
            "luby/cycle200",
            Golden {
                elapsed_rounds: 24,
                busy_rounds: 24,
                messages_sent: 597,
                messages_delivered: 597,
                bits_sent: 1443,
                max_message_bits: 4,
                max_awake: 24,
                total_awake: 1341,
                awake_hash: 0x67d4c2b76b526298,
                mis_hash: 0x110166943bcaeacb,
                mis_size: 86,
            },
        ),
        (
            "luby/gnp512",
            Golden {
                elapsed_rounds: 36,
                busy_rounds: 36,
                messages_sent: 4364,
                messages_delivered: 4364,
                bits_sent: 10430,
                max_message_bits: 6,
                max_awake: 36,
                total_awake: 3747,
                awake_hash: 0x036fc869a8d5509a,
                mis_hash: 0xba74373abebabdd7,
                mis_size: 120,
            },
        ),
        (
            "luby/reg512",
            Golden {
                elapsed_rounds: 27,
                busy_rounds: 27,
                messages_sent: 3800,
                messages_delivered: 3800,
                bits_sent: 9292,
                max_message_bits: 6,
                max_awake: 27,
                total_awake: 3774,
                awake_hash: 0xd244187d47115061,
                mis_hash: 0xa09550e9f9216727,
                mis_size: 122,
            },
        ),
    ];
    for ((name, g), (ename, want)) in graphs().into_iter().zip(expected) {
        assert_eq!(format!("luby/{name}"), ename);
        for threads in thread_counts() {
            let r = luby(&g, &SimConfig::seeded(9).with_threads(threads)).unwrap();
            assert_eq!(
                fingerprint(&r.metrics, &r.in_mis),
                want,
                "{ename} @ {threads} threads"
            );
        }
    }
}

#[test]
fn algorithm1_matches_pre_change_engine() {
    let expected = [
        (
            "alg1/path129",
            Golden {
                elapsed_rounds: 16,
                busy_rounds: 16,
                messages_sent: 377,
                messages_delivered: 295,
                bits_sent: 377,
                max_message_bits: 1,
                max_awake: 16,
                total_awake: 628,
                awake_hash: 0x8341d3d4f4a2301f,
                mis_hash: 0xdf9bcd36d686b824,
                mis_size: 55,
            },
        ),
        (
            "alg1/cycle200",
            Golden {
                elapsed_rounds: 16,
                busy_rounds: 16,
                messages_sent: 568,
                messages_delivered: 455,
                bits_sent: 568,
                max_message_bits: 1,
                max_awake: 16,
                total_awake: 934,
                awake_hash: 0xc471984ef9424b07,
                mis_hash: 0x7d7d98e126aae68c,
                mis_size: 85,
            },
        ),
        (
            "alg1/gnp512",
            Golden {
                elapsed_rounds: 28,
                busy_rounds: 28,
                messages_sent: 6534,
                messages_delivered: 4795,
                bits_sent: 6534,
                max_message_bits: 1,
                max_awake: 28,
                total_awake: 4262,
                awake_hash: 0xafff2a519218df37,
                mis_hash: 0xda277e551cb0fefe,
                mis_size: 133,
            },
        ),
        (
            "alg1/reg512",
            Golden {
                elapsed_rounds: 26,
                busy_rounds: 26,
                messages_sent: 5851,
                messages_delivered: 4328,
                bits_sent: 5851,
                max_message_bits: 1,
                max_awake: 26,
                total_awake: 4540,
                awake_hash: 0x5cfd0d9ced4c70cd,
                mis_hash: 0xf4f3e903667e64d8,
                mis_size: 129,
            },
        ),
    ];
    for ((name, g), (ename, want)) in graphs().into_iter().zip(expected) {
        assert_eq!(format!("alg1/{name}"), ename);
        for threads in thread_counts() {
            let cfg = SimConfig::seeded(11).with_threads(threads);
            let r = alg1::run_algorithm1_with(&g, &Alg1Params::default(), &cfg).unwrap();
            assert!(r.is_mis(), "{name} @ {threads} threads");
            assert_eq!(
                fingerprint(&r.metrics, &r.in_mis),
                want,
                "{ename} @ {threads} threads"
            );
        }
    }
}

#[test]
fn algorithm2_matches_pre_change_engine() {
    let expected = [
        (
            "alg2/path129",
            Golden {
                elapsed_rounds: 16,
                busy_rounds: 16,
                messages_sent: 349,
                messages_delivered: 285,
                bits_sent: 349,
                max_message_bits: 1,
                max_awake: 16,
                total_awake: 574,
                awake_hash: 0x24004e362a066cf9,
                mis_hash: 0x88eb3bc1f948eb4d,
                mis_size: 56,
            },
        ),
        (
            "alg2/cycle200",
            Golden {
                elapsed_rounds: 18,
                busy_rounds: 18,
                messages_sent: 578,
                messages_delivered: 476,
                bits_sent: 578,
                max_message_bits: 1,
                max_awake: 18,
                total_awake: 936,
                awake_hash: 0x84cbf5a58bdb9191,
                mis_hash: 0x85366a2392333619,
                mis_size: 86,
            },
        ),
        (
            "alg2/gnp512",
            Golden {
                elapsed_rounds: 30,
                busy_rounds: 30,
                messages_sent: 6794,
                messages_delivered: 5085,
                bits_sent: 6794,
                max_message_bits: 1,
                max_awake: 30,
                total_awake: 4420,
                awake_hash: 0x201bbc3344b5b79d,
                mis_hash: 0x6b97f0186e74ffb0,
                mis_size: 131,
            },
        ),
        (
            "alg2/reg512",
            Golden {
                elapsed_rounds: 24,
                busy_rounds: 24,
                messages_sent: 5809,
                messages_delivered: 4339,
                bits_sent: 5809,
                max_message_bits: 1,
                max_awake: 24,
                total_awake: 4228,
                awake_hash: 0x05ab6b4d70c21dc1,
                mis_hash: 0xcee9071358f9c11c,
                mis_size: 125,
            },
        ),
    ];
    for ((name, g), (ename, want)) in graphs().into_iter().zip(expected) {
        assert_eq!(format!("alg2/{name}"), ename);
        for threads in thread_counts() {
            let cfg = SimConfig::seeded(13).with_threads(threads);
            let r = alg2::run_algorithm2_with(&g, &Alg2Params::default(), &cfg).unwrap();
            assert!(r.is_mis(), "{name} @ {threads} threads");
            assert_eq!(
                fingerprint(&r.metrics, &r.in_mis),
                want,
                "{ename} @ {threads} threads"
            );
        }
    }
}

/// Condensed fingerprint of one churn run: the full repair accounting
/// plus the final maintained set. Recorded sequentially at the commit
/// that introduced the repair engine; every thread count must reproduce
/// it bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct ChurnGolden {
    batches: u64,
    edits: u64,
    demoted: u64,
    affected: u64,
    max_affected: u64,
    awake_rounds: u64,
    total_awake: u64,
    messages: u64,
    trivial: u64,
    /// FNV-1a over the final per-node MIS membership bits.
    mis_hash: u64,
    mis_size: usize,
}

#[test]
fn churn_repairs_match_recorded_fingerprints() {
    let expected = [
        (
            "inc-luby",
            "gnp:n=512,deg=10,seed=7",
            ChurnGolden {
                batches: 4,
                edits: 61,
                demoted: 0,
                affected: 3,
                max_affected: 1,
                awake_rounds: 9,
                total_awake: 9,
                messages: 0,
                trivial: 1,
                mis_hash: 0x3d18475558338f6a,
                mis_size: 127,
            },
        ),
        (
            "inc-luby",
            "cycle:n=200",
            ChurnGolden {
                batches: 4,
                edits: 32,
                demoted: 1,
                affected: 6,
                max_affected: 3,
                awake_rounds: 12,
                total_awake: 18,
                messages: 0,
                trivial: 0,
                mis_hash: 0xdcff648dd2c6dae1,
                mis_size: 90,
            },
        ),
        (
            "inc-alg1",
            "gnp:n=512,deg=10,seed=7",
            ChurnGolden {
                batches: 4,
                edits: 61,
                demoted: 1,
                affected: 3,
                max_affected: 2,
                awake_rounds: 10,
                total_awake: 14,
                messages: 0,
                trivial: 2,
                mis_hash: 0xeec4b41aec1c80e6,
                mis_size: 127,
            },
        ),
        (
            "inc-alg1",
            "cycle:n=200",
            ChurnGolden {
                batches: 4,
                edits: 32,
                demoted: 2,
                affected: 8,
                max_affected: 3,
                awake_rounds: 18,
                total_awake: 30,
                messages: 0,
                trivial: 0,
                mis_hash: 0x065bfdadfefe615b,
                mis_size: 94,
            },
        ),
    ];
    for (name, base, want) in expected {
        let spec: WorkloadSpec = format!("edits:base={base};batches=4;ops=6;seed=3")
            .parse()
            .unwrap();
        let g = spec.build();
        let alg = incremental::from_name(name).unwrap();
        for threads in thread_counts() {
            let r = run_churn_on(
                alg,
                g.clone(),
                spec.churn.unwrap(),
                &RunConfig::seeded(9).threads(threads),
            )
            .unwrap();
            assert!(r.is_mis(), "{name} on {base} @ {threads} threads");
            let s = r.repair.unwrap();
            let got = ChurnGolden {
                batches: s.batches,
                edits: s.edits,
                demoted: s.demoted,
                affected: s.affected,
                max_affected: s.max_affected,
                awake_rounds: s.awake_rounds,
                total_awake: s.total_awake,
                messages: s.messages,
                trivial: s.trivial,
                mis_hash: fnv(r.in_mis.iter().map(|&b| b as u64)),
                mis_size: r.mis_size(),
            };
            assert_eq!(got, want, "{name} on {base} @ {threads} threads");
        }
    }
}

/// Fingerprint of one faulty-channel run: the standard golden fields
/// plus the channel accounting. Faulty cells are *expected* to break
/// maximality/independence sometimes — the contract pinned here is not
/// correctness but determinism: the same faults hit the same deliveries
/// at every thread count.
#[derive(Debug, PartialEq, Eq)]
struct ChannelGolden {
    base: Golden,
    dropped: u64,
    collisions: u64,
}

fn channel_fingerprint(m: &Metrics, in_mis: &[bool]) -> ChannelGolden {
    ChannelGolden {
        base: fingerprint(m, in_mis),
        dropped: m.messages_dropped,
        collisions: m.collisions,
    }
}

/// Four faulty-channel cells (loss on luby and alg1, receiver-side
/// collision on luby, crash/sleep adversary on alg2), recorded on the
/// sequential engine at the commit that introduced `ChannelModel` and
/// replayed at every thread count: fault injection is a pure function
/// of `(seed, salt, round, edge)`, never of thread interleaving.
#[test]
fn faulty_channels_match_recorded_fingerprints() {
    let gs = graphs();
    let adversary = ChannelModel::Adversary(AdversarySchedule {
        crashes: vec![(5, 3), (64, 1)],
        sleeps: vec![SleepWindow {
            nodes: vec![10, 11, 12],
            from: 2,
            to: 6,
        }],
    });
    let expected: [(&str, ChannelGolden); 4] = [
        (
            "luby/gnp512/loss:p=0.05",
            ChannelGolden {
                base: Golden {
                    elapsed_rounds: 48,
                    busy_rounds: 48,
                    messages_sent: 4464,
                    messages_delivered: 4155,
                    bits_sent: 10769,
                    max_message_bits: 6,
                    max_awake: 48,
                    total_awake: 4188,
                    awake_hash: 0x80d0c3c48a1f9887,
                    mis_hash: 0x28a5788b4ce54f1c,
                    mis_size: 127,
                },
                dropped: 181,
                collisions: 0,
            },
        ),
        (
            "alg1/reg512/loss:p=0.02",
            ChannelGolden {
                base: Golden {
                    elapsed_rounds: 28,
                    busy_rounds: 28,
                    messages_sent: 5876,
                    messages_delivered: 4260,
                    bits_sent: 5876,
                    max_message_bits: 1,
                    max_awake: 28,
                    total_awake: 4550,
                    awake_hash: 0x7ec02eade19d6cb7,
                    mis_hash: 0xa60f4d5edd54a601,
                    mis_size: 128,
                },
                dropped: 86,
                collisions: 0,
            },
        ),
        (
            "luby/cycle200/collision",
            ChannelGolden {
                base: Golden {
                    elapsed_rounds: 63,
                    busy_rounds: 63,
                    messages_sent: 657,
                    messages_delivered: 395,
                    bits_sent: 1615,
                    max_message_bits: 4,
                    max_awake: 63,
                    total_awake: 1584,
                    awake_hash: 0xe21d168a0130b41b,
                    mis_hash: 0x3c5605cdc5b2544c,
                    mis_size: 95,
                },
                dropped: 184,
                collisions: 92,
            },
        ),
        (
            "alg2/path129/adversary",
            ChannelGolden {
                base: Golden {
                    elapsed_rounds: 48,
                    busy_rounds: 43,
                    messages_sent: 370,
                    messages_delivered: 289,
                    bits_sent: 671,
                    max_message_bits: 22,
                    max_awake: 29,
                    total_awake: 617,
                    awake_hash: 0x6eeba08b861a8dc6,
                    mis_hash: 0xb8a1ee1be0a688f7,
                    mis_size: 56,
                },
                dropped: 0,
                collisions: 0,
            },
        ),
    ];
    for threads in thread_counts() {
        let mut got: Vec<(&str, ChannelGolden)> = Vec::new();

        let cfg = SimConfig::seeded(9)
            .with_threads(threads)
            .with_channel(ChannelModel::Loss { p: 0.05 });
        let r = luby(&gs[2].1, &cfg).unwrap();
        got.push((
            "luby/gnp512/loss:p=0.05",
            channel_fingerprint(&r.metrics, &r.in_mis),
        ));

        let cfg = SimConfig::seeded(11)
            .with_threads(threads)
            .with_channel(ChannelModel::Loss { p: 0.02 });
        let r = alg1::run_algorithm1_with(&gs[3].1, &Alg1Params::default(), &cfg).unwrap();
        got.push((
            "alg1/reg512/loss:p=0.02",
            channel_fingerprint(&r.metrics, &r.in_mis),
        ));

        let cfg = SimConfig::seeded(9)
            .with_threads(threads)
            .with_channel(ChannelModel::RadioCollision);
        let r = luby(&gs[1].1, &cfg).unwrap();
        got.push((
            "luby/cycle200/collision",
            channel_fingerprint(&r.metrics, &r.in_mis),
        ));

        let cfg = SimConfig::seeded(13)
            .with_threads(threads)
            .with_channel(adversary.clone());
        let r = alg2::run_algorithm2_with(&gs[0].1, &Alg2Params::default(), &cfg).unwrap();
        got.push((
            "alg2/path129/adversary",
            channel_fingerprint(&r.metrics, &r.in_mis),
        ));

        for ((gname, g), (ename, want)) in got.iter().zip(&expected) {
            assert_eq!(gname, ename);
            assert_eq!(g, want, "{ename} @ {threads} threads");
        }
    }
}
