//! Minimal CSV emission for experiment outputs.
//!
//! Every figure experiment prints a human-readable table to stdout and
//! (optionally, with `--csv <path>`) writes the raw series as CSV so the
//! plots can be regenerated with any plotting tool.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A CSV file writer with simple quoting.
pub struct CsvWriter {
    out: BufWriter<File>,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates/truncates the file and writes the header row.
    pub fn create(path: &Path, header: &[&str]) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut w = Self {
            out: BufWriter::new(File::create(path)?),
            path: path.to_path_buf(),
        };
        w.row(header)?;
        Ok(w)
    }

    /// [`CsvWriter::create`] for an optional `--csv` path: `None` when
    /// `path` is empty. Panics if the file cannot be created.
    pub fn open(path: &str, header: &[&str]) -> Option<Self> {
        (!path.is_empty()).then(|| Self::create(path.as_ref(), header).unwrap())
    }

    /// Writes one row, quoting fields that contain separators.
    pub fn row<S: AsRef<str>>(&mut self, fields: &[S]) -> std::io::Result<()> {
        let mut first = true;
        for f in fields {
            if !first {
                write!(self.out, ",")?;
            }
            first = false;
            let f = f.as_ref();
            if f.contains([',', '"', '\n']) {
                write!(self.out, "\"{}\"", f.replace('"', "\"\""))?;
            } else {
                write!(self.out, "{f}")?;
            }
        }
        writeln!(self.out)
    }

    /// Flushes buffered rows to disk and returns the file's path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows_with_quoting() {
        let dir = std::env::temp_dir().join("hcs_csv_test");
        let path = dir.join("t.csv");
        let mut w = CsvWriter::create(&path, &["a", "b"]).unwrap();
        w.row(&["1", "plain"]).unwrap();
        w.row(&["2", "with,comma"]).unwrap();
        w.row(&["3", "with\"quote"]).unwrap();
        assert_eq!(w.finish().unwrap(), path);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            content,
            "a,b\n1,plain\n2,\"with,comma\"\n3,\"with\"\"quote\"\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_path_opens_nothing() {
        assert!(CsvWriter::open("", &["a"]).is_none());
    }
}
