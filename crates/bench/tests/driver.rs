//! The `hcs` driver end to end: every experiment runs at a tiny shape,
//! replays byte for byte (stdout and every file it writes) and matches
//! its pinned output; the usage lists exactly the experiments run here,
//! each anchored to the paper or a CI job; the docs name no other
//! experiment; and usage errors name what is allowed.

use std::collections::{BTreeMap, BTreeSet};
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
    ("tuner", "--nodes 2 --ppn 2 --msizes 8,64 --reps 4"),
    ("interp_study", "--ranks 3 --span 12 --resync 6"),
    ("amg_profile", "--nodes 2 --ppn 2 --iters 4"),
    ("window_study", "--nodes 2 --ppn 2 --reps 4"),
    ("chaos", "--nodes 2 --ppn 2 --csv chaos.csv --out chaos.json"),
    ("trace_smoke", "--nodes 2 --ppn 2 --out trace.json"),
];

/// One output's pin: `(output, length, FNV-1a-64)`.
type Pin = (&'static str, usize, u64);

/// The [`Pin`]s of every [`TINY`] run's stdout (`"stdout"`) and of
/// every file it writes, in [`TINY`] order,
/// recorded from the driver before the experiment layer was cut down
/// (5d9dac7). Replaying twice proves determinism; this table proves
/// that a refactor kept every byte.
#[rustfmt::skip]
const OUTPUT_PINS: &[(&str, &[Pin])] = &[
    ("table1", &[("stdout", 814, 0x6803161c11368d7a)]),
    ("fig2", &[("stdout", 1047, 0xdc13aa0a3662f5a8), ("fig2.csv", 168, 0xb4a50c40b1ce5df2)]),
    ("fig3", &[("stdout", 1209, 0xc892dd6a7b1ff12a), ("fig3.csv", 410, 0xfb846caecddd95a5)]),
    ("fig4", &[("stdout", 1589, 0xa75fd50760b93ec6), ("fig4.csv", 895, 0x38401c099bc2f0dc)]),
    ("fig5", &[("stdout", 1648, 0xca4d4755851d25fb), ("fig5.csv", 906, 0x6dcd0e77c96f60b2)]),
    ("fig6", &[("stdout", 1294, 0x1c2355b3803ce71d), ("fig6.csv", 488, 0x101ae07522e56cea)]),
    ("fig7", &[("stdout", 1027, 0x44a686b1a1ea37f0), ("fig7.csv", 1020, 0x9f2cedcccbca2ea6)]),
    ("fig8", &[("stdout", 3443, 0x23de9156beabb397), ("fig8.csv", 500, 0xb87048a15ac916e2)]),
    ("fig9", &[("stdout", 1228, 0xadfa1854305f4b9f), ("fig9.csv", 574, 0xa152c587b3f0c6ec)]),
    ("fig10", &[("stdout", 842, 0xf89c5c3e10b1385d), ("fig10.csv", 969, 0x432b6592e2f0556a)]),
    ("tuner", &[("stdout", 1319, 0xfef3c2b3303086cf)]),
    ("interp_study", &[("stdout", 1002, 0xf88d34ded5cb9957)]),
    ("amg_profile", &[("stdout", 562, 0xccff3dbfe4bd9090)]),
    ("window_study", &[("stdout", 1186, 0x835d24062c94a475)]),
    ("chaos", &[("stdout", 1370, 0xf1f24d750b0ab76a), ("chaos.csv", 522, 0x0d91772254e0c2f5), ("chaos.json", 2148, 0x865b1f2d80deb934)]),
    ("trace_smoke", &[("stdout", 1201, 0x698a8c10aafebb0e), ("trace.json", 1472104, 0xc397fcc6af348992), ("trace.summary.json", 1737, 0x996b6fe676c1d84e)]),
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

/// Runs one [`TINY`] row in `dir`: its stdout and every file it wrote.
fn run_tiny(name: &str, args: &str, dir: &Path) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    let argv: Vec<&str> = std::iter::once(name)
        .chain(args.split_whitespace())
        .collect();
    std::fs::create_dir_all(dir).expect("create run dir");
    let out = hcs(&argv, dir);
    assert!(
        out.status.success(),
        "hcs {argv:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, files(dir))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_experiment_replays_byte_identically() {
    let root = scratch("replay");
    for &(name, args) in TINY {
        let runs: Vec<_> = (0..2)
            .map(|i| run_tiny(name, args, &root.join(format!("{name}-{i}"))))
            .collect();
        assert!(!runs[0].0.is_empty(), "hcs {name} printed nothing");
        assert!(
            runs[0].0 == runs[1].0,
            "hcs {name}: stdout differs between two runs"
        );
        let wanted = args
            .split_whitespace()
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
fn every_experiment_matches_its_output_pins() {
    let root = scratch("pins");
    assert_eq!(OUTPUT_PINS.len(), TINY.len());
    for (&(name, args), &(pinned_name, pins)) in TINY.iter().zip(OUTPUT_PINS) {
        assert_eq!(name, pinned_name, "OUTPUT_PINS is out of TINY order");
        let (stdout, files) = run_tiny(name, args, &root.join(name));
        let outputs: Vec<(&str, &[u8])> = std::iter::once(("stdout", &stdout[..]))
            .chain(files.iter().map(|(f, b)| (f.as_str(), &b[..])))
            .collect();
        let got: Vec<(&str, usize, u64)> = outputs
            .iter()
            .map(|&(f, b)| (f, b.len(), fnv1a(b)))
            .collect();
        assert_eq!(
            got, pins,
            "hcs {name}: outputs drifted from their pinned (length, FNV-1a-64)"
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

/// The `(name, description)` rows of the usage `hcs` prints alone.
fn usage_rows() -> Vec<(String, String)> {
    let dir = scratch("rows");
    let out = hcs(&[], &dir);
    std::fs::remove_dir_all(&dir).ok();
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .skip_while(|l| !l.starts_with("experiments:"))
        .skip(1)
        .filter_map(|l| {
            let (name, about) = l.trim().split_once(' ')?;
            Some((name.to_string(), about.trim().to_string()))
        })
        .collect()
}

#[test]
fn tiny_covers_exactly_the_listed_experiments() {
    let listed: Vec<String> = usage_rows().into_iter().map(|(n, _)| n).collect();
    let tiny: Vec<&str> = TINY.iter().map(|&(n, _)| n).collect();
    assert_eq!(listed, tiny, "TINY and the usage list differ");
}

/// What a usage line cites: a paper artifact or the CI job it backs.
const ANCHORS: &[&str] = &["Table ", "Fig. ", "§", "CI "];

#[test]
fn every_experiment_names_its_paper_artifact_or_ci_job() {
    let rows = usage_rows();
    assert!(!rows.is_empty(), "hcs printed no experiments");
    for (name, about) in rows {
        assert!(
            ANCHORS.iter().any(|a| about.contains(a)),
            "hcs {name}: `{about}` names no paper artifact (Table/Fig./§) or CI job"
        );
    }
}

/// Every experiment `text` names as `hcs <name>` (alternatives written
/// `hcs fig4|fig5`) or `hcs-experiments -- <name>`.
fn experiments_named_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for prefix in ["hcs ", "hcs-experiments -- "] {
        for (at, _) in text.match_indices(prefix) {
            let glued = text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
            if glued {
                continue;
            }
            let word: String = text[at + prefix.len()..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '|')
                .collect();
            out.extend(word.split('|').filter(|w| !w.is_empty()).map(String::from));
        }
    }
    out
}

#[test]
fn docs_name_only_listed_experiments() {
    let listed: BTreeSet<String> = usage_rows().into_iter().map(|(n, _)| n).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut named = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for name in experiments_named_in(&text) {
            assert!(
                listed.contains(&name),
                "{doc} names `hcs {name}`, which is not an experiment"
            );
            named += 1;
        }
    }
    assert!(named > 0, "the docs name no experiment at all");
}
