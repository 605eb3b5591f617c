//! The `hcs` driver end to end: every experiment runs at a tiny shape
//! and replays byte for byte (stdout and every file it writes), and
//! usage errors name what is allowed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every experiment with a shape small enough for the debug profile.
/// Output files use relative paths: each run writes into its own
/// directory, so the two runs' stdout can be compared as-is.
#[rustfmt::skip]
const TINY: &[(&str, &str)] = &[
    ("table1", ""),
    ("fig2", "--ranks 3 --span 8 --csv fig2.csv"),
    ("fig3", "--nodes 2 --ppn 2 --runs 1 --fitpoints 8 --pingpongs 2 --wait 1 --csv fig3.csv"),
    ("fig4", "--nodes 2 --ppn 2 --runs 2 --fithi 8 --fitlo 4 --pingpongs 2 --wait 1 --csv fig4.csv"),
    ("fig5", "--nodes 2 --ppn 2 --runs 2 --fithi 8 --fitlo 4 --pingpongs 2 --wait 1 --jobs 1 --csv fig5.csv"),
    ("fig6", "--nodes 1 --runs 1 --fithi 8 --fitlo 4 --pingpongs 2 --wait 1 --sample 0.5 --csv fig6.csv"),
    ("fig7", "--nodes 2 --ppn 2 --reps 4 --csv fig7.csv"),
    ("fig8", "--nodes 2 --ppn 2 --calls 4 --runs 1 --csv fig8.csv"),
    ("fig9", "--nodes 1 --runs 1 --reps 4 --slice 0.01 --csv fig9.csv"),
    ("fig10", "--nodes 2 --ppn 2 --iter 2 --csv fig10.csv"),
    ("reprompi", "--nodes 2 --ppn 2 --ops allreduce,bcast --msizes 8,64 --reps 4 --slice 0.01"),
    ("tuner", "--nodes 2 --ppn 2 --msizes 8,64 --reps 4"),
    ("guidelines", "--nodes 2 --ppn 2 --msizes 8 --reps 4"),
    ("interp_study", "--ranks 3 --span 12 --resync 6"),
    ("amg_profile", "--nodes 2 --ppn 2 --iters 4"),
    ("window_study", "--nodes 2 --ppn 2 --reps 4"),
    ("chaos", "--nodes 2 --ppn 2 --csv chaos.csv --out chaos.json"),
    ("trace_smoke", "--nodes 2 --ppn 2 --out trace.json"),
];

fn hcs(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hcs"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn hcs")
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcs-driver-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read run dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read output file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

#[test]
fn every_experiment_replays_byte_identically() {
    let root = scratch("replay");
    for &(name, args) in TINY {
        let argv: Vec<&str> = std::iter::once(name)
            .chain(args.split_whitespace())
            .collect();
        let runs: Vec<(Output, BTreeMap<String, Vec<u8>>)> = (0..2)
            .map(|i| {
                let dir = root.join(format!("{name}-{i}"));
                std::fs::create_dir_all(&dir).expect("create run dir");
                let out = hcs(&argv, &dir);
                assert!(
                    out.status.success(),
                    "hcs {argv:?} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                (out, files(&dir))
            })
            .collect();
        assert!(!runs[0].0.stdout.is_empty(), "hcs {name} printed nothing");
        assert!(
            runs[0].0.stdout == runs[1].0.stdout,
            "hcs {name}: stdout differs between two runs"
        );
        let wanted = argv
            .iter()
            .filter(|a| a.ends_with(".csv") || a.ends_with(".json"));
        assert!(
            runs[0].1.len() >= wanted.count(),
            "hcs {name} wrote {:?}",
            runs[0].1.keys()
        );
        assert!(
            runs[0].1 == runs[1].1,
            "hcs {name}: written files differ between two runs"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn no_or_unknown_experiment_exits_2_and_lists_all() {
    let dir = scratch("usage");
    for argv in [&[][..], &["fig11"][..]] {
        let out = hcs(argv, &dir);
        assert_eq!(out.status.code(), Some(2), "hcs {argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for (name, _) in TINY {
            assert!(
                stderr
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "hcs {argv:?} does not list {name}:\n{stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flag_fails_and_names_the_allowed_ones() {
    let dir = scratch("flag");
    let out = hcs(&["fig5", "--bogus"], &dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    for flag in ["nodes", "ppn", "fithi", "fitlo", "jobs", "csv"] {
        assert!(stderr.contains(&format!("\"{flag}\"")), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
