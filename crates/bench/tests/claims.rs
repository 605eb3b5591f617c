//! Paper claims checked on the experiments' tables, computed in-process.

use hcs_experiments::{hier, Args, Cell};

/// Fig. 4: the hierarchical H2HCA synchronizes faster than flat HCA3
/// at equal fit points.
#[test]
fn h2hca_syncs_faster_than_flat_hca3_at_equal_fit_points() {
    let argv = "--nodes 2 --ppn 2 --runs 2 --fithi 8 --fitlo 4 --pingpongs 2 --wait 1";
    let args = Args::parse(argv.split_whitespace().map(String::from), hier::FLAGS);
    let report = hier::compute(4, &args);
    let rows = report
        .table_with("duration_s")
        .expect("a table of durations");
    let mean_duration = |prefix: &str, fit: usize| {
        let fit = format!("/{fit}/");
        let cells = rows.column("configuration").zip(rows.column("duration_s"));
        let durations: Vec<f64> = cells
            .filter_map(|cells| match cells {
                (Cell::Text(l), Cell::Num(d)) if l.starts_with(prefix) && l.contains(&fit) => {
                    Some(*d)
                }
                _ => None,
            })
            .collect();
        assert_eq!(durations.len(), 2, "{prefix}..{fit}: one row per run");
        durations.iter().sum::<f64>() / 2.0
    };
    for fit in [8, 4] {
        let (h2hca, flat) = (mean_duration("Top/hca3/", fit), mean_duration("hca3/", fit));
        assert!(
            h2hca < flat,
            "{fit} fit points: H2HCA {h2hca} s vs HCA3 {flat} s"
        );
    }
}
