//! Tracked perf baseline of the virtual-time engine.
//!
//! Runs the engine throughput workloads (message rate, repeated-run
//! rate of the engine and of the thread-per-rank reference, sweep
//! rate, fan-in/fan-out) and writes the results to `BENCH_engine.json`
//! so the perf trajectory of the simulator is recorded in-repo, PR over
//! PR.
//!
//! ```text
//! cargo run --release -p hcs-experiments --bin bench_engine \
//!     [--out BENCH_engine.json] [--group <prefix>]
//! ```
//!
//! `--group` restricts the run to groups whose name starts with the
//! given prefix (e.g. `--group engine_runs` for the repeated-run rows
//! only); the emitted JSON then contains just the filtered cases.
//!
//! Iteration counts auto-calibrate to a wall-clock budget; set
//! `HCS_BENCH_TARGET_MS` to trade precision against runtime.

use hcs_bench::microbench::Runner;
use hcs_bench::sweep::{run_seed, SweepExecutor};
use hcs_experiments::{pingpong_run, Args};
use hcs_sim::{machines, EngineMode};

/// Repetitions per sweep in the `sweep_runs` groups.
const SWEEP_RUNS: usize = 8;

/// Messages each sender (fan-in) or each destination (fan-out) streams
/// per run in the fan groups. Matches the engine's staging-segment
/// capacity so every burst is one batched mailbox mutation.
const FAN_ROUNDS: usize = 32;

fn main() {
    let args = Args::parse(&["out", "group"]);
    let out_path = args.get_str("out", "BENCH_engine.json");
    let group = args.get_str("group", "");

    let mut r = Runner::from_env();
    if !group.is_empty() {
        r.set_group_filter(&group);
    }

    // Message throughput (2 messages per round trip).
    for msgs in [1_000u32, 10_000] {
        r.case_throughput(
            "engine_pingpong",
            &msgs.to_string(),
            msgs as f64 * 2.0,
            "msgs",
            || pingpong_run(2, msgs, 1, None),
        );
    }

    // Repeated-run rate of the engine, from bench sizes up to the scale
    // wall: rank bodies are continuations multiplexed on one thread, so
    // p is bounded by memory, not by the host scheduler.
    for p in [32usize, 256, 2048, 16_384, 131_072] {
        r.case_throughput("engine_runs", &format!("p{p}"), 1.0, "runs", || {
            pingpong_run(p, 100, 2, Some(EngineMode::Events))
        });
    }

    // The same workload on the thread-per-rank reference engine, which
    // spawns and joins p OS threads per run.
    for p in [32usize, 256] {
        r.case_throughput(
            "engine_runs_reference",
            &format!("p{p}"),
            1.0,
            "runs",
            || pingpong_run(p, 100, 2, Some(EngineMode::Threads)),
        );
    }

    // Sweep throughput: SWEEP_RUNS independent repetitions through the
    // SweepExecutor, sequential vs concurrent. On a multi-core host the
    // jobs=4 rows should show the run-level speedup; jobs=1 tracks the
    // executor's sequential overhead against the plain `engine_runs`
    // rate.
    for p in [32usize, 256] {
        for jobs in [1usize, 4] {
            let exec = SweepExecutor::new(jobs);
            r.case_throughput(
                "sweep_runs",
                &format!("p{p}_jobs{jobs}"),
                SWEEP_RUNS as f64,
                "runs",
                || {
                    exec.run(SWEEP_RUNS, p, |i| {
                        pingpong_run(p, 100, run_seed(3, i as u64), None)
                    });
                },
            );
        }
    }

    // Fan-in message rate: every rank streams FAN_ROUNDS messages at
    // rank 0. Each sender's burst is delivered in staged batches
    // (STAGE_MAX-sized mailbox mutations), and rank 0's src-major
    // receive order forces the out-of-order messages through the SoA
    // pending buffer — this row tracks the full batched receive path,
    // not run dispatch.
    for ranks in [16usize, 64, 256, 1024] {
        r.case_throughput(
            "engine_fan_in",
            &ranks.to_string(),
            ((ranks - 1) * FAN_ROUNDS) as f64,
            "msgs",
            || {
                machines::testbed(ranks / 4, 4).cluster(2).run(|ctx| {
                    if ctx.rank() == 0 {
                        for src in 1..ctx.size() {
                            for _ in 0..FAN_ROUNDS {
                                let _ = ctx.recv(src, 0);
                            }
                        }
                    } else {
                        for _ in 0..FAN_ROUNDS {
                            ctx.send(0, 0, &[0u8; 8]);
                        }
                    }
                });
            },
        );
    }

    // Fan-out message rate: rank 0 streams FAN_ROUNDS messages to every
    // other rank, destination-major so consecutive sends coalesce into
    // staged batches. Rank 0 runs first (ranks seed in rank
    // order), so the receivers find their bursts already delivered —
    // the row isolates sender-side staging plus receiver-side batch
    // draining.
    for ranks in [16usize, 64, 256, 1024] {
        r.case_throughput(
            "engine_fan_out",
            &ranks.to_string(),
            ((ranks - 1) * FAN_ROUNDS) as f64,
            "msgs",
            || {
                machines::testbed(ranks / 4, 4).cluster(2).run(|ctx| {
                    if ctx.rank() == 0 {
                        for dst in 1..ctx.size() {
                            for _ in 0..FAN_ROUNDS {
                                ctx.send(dst, 0, &[0u8; 8]);
                            }
                        }
                    } else {
                        for _ in 0..FAN_ROUNDS {
                            let _ = ctx.recv(0, 0);
                        }
                    }
                });
            },
        );
    }

    std::fs::write(&out_path, r.to_json("engine")).expect("write bench baseline");
    println!("wrote {out_path}");
}
