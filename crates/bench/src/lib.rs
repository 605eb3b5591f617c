#![warn(missing_docs)]

//! # hcs-experiments — shared experiment plumbing
//!
//! The actual experiments live in `src/bin/` (one binary per paper
//! figure/table, see `DESIGN.md`); their host cost is measured by the
//! separate `benchmark/` package. This library hosts the bits they
//! share: CLI flag parsing, CSV emission and small formatting helpers.

pub mod cli;
pub mod csv;
pub mod hier_experiment;

pub use cli::Args;
pub use csv::CsvWriter;

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
