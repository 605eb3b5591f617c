//! Raw throughput of the virtual-time engine — message rate of
//! ping-pong chains and fan-in patterns, repeated-run rate of the engine
//! and of the thread-per-rank reference, and bare run cost. These
//! numbers bound how large a simulated experiment can be.
//!
//! `cargo bench -p hcs-experiments --bench engine`. The tracked JSON
//! baseline is produced by the `bench_engine` binary (see
//! EXPERIMENTS.md), which shares these workloads.

use hcs_bench::microbench::Runner;
use hcs_experiments::pingpong_run;
use hcs_sim::{machines, EngineMode};

fn main() {
    let mut r = Runner::from_env();

    // Message throughput: 2-rank ping-pong chains (2 messages per trip).
    for msgs in [1_000u32, 10_000] {
        r.case_throughput(
            "engine_pingpong",
            &msgs.to_string(),
            msgs as f64 * 2.0,
            "msgs",
            || pingpong_run(2, msgs, 1, None),
        );
    }

    // Repeated-run rate at the tracked cluster sizes: the engine, then
    // the reference (which spawns and joins p OS threads per run).
    for p in [32usize, 256, 2048] {
        r.case_throughput("engine_runs", &format!("p{p}"), 1.0, "runs", || {
            pingpong_run(p, 100, 2, Some(EngineMode::Events))
        });
    }
    for p in [32usize, 256] {
        r.case_throughput(
            "engine_runs_reference",
            &format!("p{p}"),
            1.0,
            "runs",
            || pingpong_run(p, 100, 2, Some(EngineMode::Threads)),
        );
    }

    // Fan-in: all ranks send one small message to rank 0.
    for ranks in [16usize, 64, 256] {
        r.case_throughput(
            "engine_fan_in",
            &ranks.to_string(),
            ranks as f64,
            "msgs",
            || {
                machines::testbed(ranks / 4, 4).cluster(2).run(|ctx| {
                    if ctx.rank() == 0 {
                        for src in 1..ctx.size() {
                            let _ = ctx.recv(src, 0);
                        }
                    } else {
                        ctx.send(0, 0, &[0u8; 8]);
                    }
                });
            },
        );
    }

    // Bare run cost (no communication): seed, claim and retire p ranks.
    for ranks in [64usize, 512] {
        r.case("engine_spawn_teardown", &ranks.to_string(), || {
            machines::testbed(ranks / 8, 8)
                .cluster(3)
                .run(|ctx| ctx.rank())
        });
    }
}
