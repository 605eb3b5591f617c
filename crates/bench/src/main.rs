//! `hcs <experiment> [--flag value ...]` — the experiment driver: a
//! dispatch table over the `hcs-experiments` library, one subcommand
//! per paper figure/table and case study. `hcs` alone lists them.
//!
//! ```text
//! cargo run --release -p hcs-experiments -- fig5 --runs 2 --csv out/fig5.csv
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use hcs_experiments::*;

/// Every experiment: subcommand, its flags, its compute, one-line
/// description.
type Experiment = (
    &'static str,
    &'static str,
    fn(&Args) -> Report,
    &'static str,
);

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1::FLAGS, table1::compute, "the modeled machines (Table I)"),
    ("fig2", fig2::FLAGS, fig2::compute, "clock drift over 500 s / 10 s (Fig. 2)"),
    ("fig3", fig3::FLAGS, fig3::compute, "HCA/HCA2/HCA3/JK duration vs accuracy (Fig. 3)"),
    ("fig4", hier::FLAGS, |a| hier::compute(4, a), "HCA3 vs H2HCA on Jupiter (Fig. 4)"),
    ("fig5", hier::FLAGS, |a| hier::compute(5, a), "HCA3 vs H2HCA on Hydra (Fig. 5)"),
    ("fig6", hier::TITAN_FLAGS, |a| hier::compute(6, a), "HCA3 vs H2HCA at scale on Titan (Fig. 6)"),
    ("fig7", fig7::FLAGS, fig7::compute, "Allreduce latency per suite x barrier (Fig. 7)"),
    ("fig8", fig8::FLAGS, fig8::compute, "barrier exit imbalance (Fig. 8)"),
    ("fig9", fig9::FLAGS, fig9::compute, "OSU vs Round-Time over message sizes (Fig. 9)"),
    ("fig10", fig10::FLAGS, fig10::compute, "global vs local clock traces of the AMG proxy (Fig. 10)"),
    ("tuner", tuner::FLAGS, tuner::compute, "scheme-dependent collective tuning (§I)"),
    ("interp_study", interp_study::FLAGS, interp_study::compute, "Scalasca-style interpolation vs resync (§II)"),
    ("amg_profile", amg_profile::FLAGS, amg_profile::compute, "span profile of the AMG proxy: its 8 B Allreduce share (§V-C)"),
    ("window_study", window_study::FLAGS, window_study::compute, "window-size sensitivity vs Round-Time (§II)"),
    ("chaos", chaos::FLAGS, chaos::compute, "JK vs HCA2 vs HCA3 under injected faults (CI chaos smoke)"),
    ("trace_smoke", trace_smoke::FLAGS, trace_smoke::compute, "Chrome trace + summary of one observed run (CI trace smoke)"),
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    match EXPERIMENTS.iter().find(|(n, ..)| *n == name) {
        Some((_, flags, compute, _)) => compute(&Args::parse(argv, flags)).emit(),
        None => {
            if !name.is_empty() {
                eprintln!("unknown experiment `{name}`\n");
            }
            eprintln!("usage: hcs <experiment> [--flag value ...]\n\nexperiments:");
            for (name, .., about) in EXPERIMENTS {
                eprintln!("  {name:<14} {about}");
            }
            ExitCode::from(2)
        }
    }
}
