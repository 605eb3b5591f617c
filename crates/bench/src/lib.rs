#![warn(missing_docs)]

//! # hcs-experiments — shared experiment plumbing
//!
//! The actual experiments live in `src/bin/` (one binary per paper
//! figure/table, see `DESIGN.md`) and `benches/` (micro benches on the
//! in-tree `hcs_bench::microbench` harness). This library hosts the
//! bits they share: CLI flag parsing, CSV emission, small formatting
//! helpers and the engine benches' ping-pong workload.

pub mod cli;
pub mod csv;
pub mod hier_experiment;

pub use cli::Args;
pub use csv::CsvWriter;

use hcs_sim::{machines, EngineMode, RankCtx};

/// One run of `msgs` ping-pong round trips between ranks 0 and 1 on a
/// `p`-rank testbed cluster, every other rank idle — the engine
/// benches' repeated-run workload. `engine` pins the execution engine;
/// `None` is the library default.
pub fn pingpong_run(p: usize, msgs: u32, seed: u64, engine: Option<EngineMode>) {
    let mut builder = machines::testbed(p.div_ceil(4).max(1), p.min(4))
        .cluster(seed)
        .to_builder();
    if let Some(mode) = engine {
        builder = builder.engine(mode);
    }
    builder
        .build()
        .run(move |ctx: &mut RankCtx| match ctx.rank() {
            0 => {
                for i in 0..msgs {
                    ctx.send_t(1, i & 0xFF, 1.0f64);
                    let _: f64 = ctx.recv_t(1, i & 0xFF);
                }
            }
            1 => {
                for i in 0..msgs {
                    let v: f64 = ctx.recv_t(0, i & 0xFF);
                    ctx.send_t(0, i & 0xFF, v);
                }
            }
            _ => {}
        });
}

/// Formats seconds as microseconds with 3 decimals (the paper's unit).
pub fn us(x: f64) -> String {
    format!("{:.3}", x * 1e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn us_formats_microseconds() {
        assert_eq!(super::us(1.5e-6), "1.500");
        assert_eq!(super::us(0.0), "0.000");
    }
}
