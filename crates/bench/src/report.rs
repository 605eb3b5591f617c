//! The one renderer of every `hcs` output.
//!
//! An experiment's `compute` returns a [`Report`]: an ordered list of
//! stdout lines and [`Table`]s, plus the files to write. [`Report::emit`]
//! prints the stdout, writes every CSV, JSON and trace file, and turns a
//! recorded failure into exit code 1. A [`Table`] is typed columns over
//! typed [`Cell`]s, so the same rows render as aligned stdout columns,
//! as CSV and as JSON, and tests read them in-process.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use hcs_sim::Span;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, also preformatted stdout cells (`min..max`, `4/4`, `12.3%`).
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement, rounded per its column's [`Fmt`].
    Num(f64),
    /// No value: `-` on stdout and in CSV, `null` in JSON.
    Missing,
}

macro_rules! cell_from {
    ($($t:ty => $cell:expr),* $(,)?) => {
        $(impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                let cell: fn($t) -> Cell = $cell;
                cell(v)
            }
        })*
    };
}

cell_from! {
    &str => |s| Cell::Text(s.to_string()),
    String => Cell::Text,
    usize => |n| Cell::Int(n as u64),
    u64 => Cell::Int,
    f64 => Cell::Num,
    Span => |s| Cell::Num(s.seconds()),
    Option<f64> => |v| v.map_or(Cell::Missing, Cell::Num),
}

/// A row of [`Cell`]s from anything convertible: `cells![label, 3, 0.5]`.
#[macro_export]
macro_rules! cells {
    ($($c:expr),* $(,)?) => { vec![$($crate::report::Cell::from($c)),*] };
}

/// How a column aligns and rounds its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (counts, preformatted cells).
    Right,
    /// Right-aligned; this many digits on stdout, exact in files.
    Num(usize),
    /// Right-aligned; this many digits everywhere.
    Fixed(usize),
    /// The same in every row: left to the heading text on stdout,
    /// written once beside the rows in JSON, repeated in CSV.
    Const,
}

/// One column: its CSV/JSON key, its stdout heading and width, and
/// its [`Fmt`].
#[derive(Debug, Clone)]
pub struct Col {
    key: &'static str,
    head: String,
    width: usize,
    fmt: Fmt,
}

impl Col {
    /// A column keyed `key`, headed `head` in `width` stdout characters.
    pub fn new(key: &'static str, head: impl Into<String>, width: usize, fmt: Fmt) -> Self {
        let head = head.into();
        Self {
            key,
            head,
            width,
            fmt,
        }
    }

    /// The cell's text, `None` when missing; `stdout` rounds
    /// [`Fmt::Num`] cells too.
    fn format(&self, cell: &Cell, stdout: bool) -> Option<String> {
        Some(match (cell, self.fmt) {
            (Cell::Text(s), _) => s.clone(),
            (Cell::Int(n), _) => n.to_string(),
            (Cell::Num(v), Fmt::Fixed(p)) => format!("{v:.p$}"),
            (Cell::Num(v), Fmt::Num(p)) if stdout => format!("{v:.p$}"),
            (Cell::Num(v), _) => v.to_string(),
            (Cell::Missing, _) => return None,
        })
    }
}

/// Typed columns over rows of [`Cell`]s.
#[derive(Debug, Clone)]
pub struct Table {
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
    heading: bool,
}

impl Table {
    /// An empty table with a heading line.
    pub fn new(cols: Vec<Col>) -> Self {
        Self {
            cols,
            rows: Vec::new(),
            heading: true,
        }
    }

    /// A table only written to files: columns keyed `keys`, numbers
    /// exact.
    pub fn raw(keys: &[&'static str]) -> Self {
        Self::new(
            keys.iter()
                .map(|&k| Col::new(k, k, 0, Fmt::Right))
                .collect(),
        )
    }

    /// Drops the heading line on stdout (a table continuing the columns
    /// of the one above it).
    pub fn headless(mut self) -> Self {
        self.heading = false;
        self
    }

    /// Appends a row, one cell per column.
    ///
    /// # Panics
    /// Panics if the row's length differs from the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.cols.len(), "row length != column count");
        self.rows.push(cells);
    }

    /// The cells of the column keyed `key`, top to bottom.
    ///
    /// # Panics
    /// Panics if no column has that key.
    pub fn column(&self, key: &str) -> impl Iterator<Item = &Cell> {
        let i = self
            .index(key)
            .unwrap_or_else(|| panic!("no column {key:?}"));
        self.rows.iter().map(move |r| &r[i])
    }

    fn index(&self, key: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.key == key)
    }

    fn text(&self, out: &mut String) {
        let shown: Vec<(usize, &Col)> = (self.cols.iter().enumerate())
            .filter(|(_, c)| c.fmt != Fmt::Const)
            .collect();
        let mut line = |cell: &dyn Fn(usize, &Col) -> String| {
            let padded: Vec<String> = (shown.iter())
                .map(|&(i, c)| match (cell(i, c), c.width) {
                    (s, w) if c.fmt == Fmt::Left => format!("{s:<w$}"),
                    (s, w) => format!("{s:>w$}"),
                })
                .collect();
            out.push_str(&padded.join(" "));
            out.push('\n');
        };
        if self.heading {
            line(&|_, c| c.head.clone());
        }
        for row in &self.rows {
            line(&|i, c| c.format(&row[i], true).unwrap_or_else(|| "-".into()));
        }
    }

    fn csv(&self) -> String {
        let quote = |s: String| match s.contains([',', '"', '\n']) {
            true => format!("\"{}\"", s.replace('"', "\"\"")),
            false => s,
        };
        let line = |fields: Vec<String>| {
            let fields: Vec<String> = fields.into_iter().map(quote).collect();
            fields.join(",") + "\n"
        };
        let mut out = line(self.cols.iter().map(|c| c.key.to_string()).collect());
        for row in &self.rows {
            let fields = self.cols.iter().zip(row).map(|(c, v)| c.format(v, false));
            out += &line(fields.map(|f| f.unwrap_or_else(|| "-".into())).collect());
        }
        out
    }

    /// `{"bench": <bench>, <Const columns>, "cases": [<one object per
    /// row>]}`.
    fn json(&self, bench: &str) -> String {
        let value = |c: &Col, v: &Cell| match (v, c.format(v, false)) {
            (Cell::Text(s), _) => {
                let s = s.replace('\\', "\\\\").replace('"', "\\\"");
                format!("\"{}\"", s.replace('\n', "\\n"))
            }
            (_, v) => v.unwrap_or_else(|| "null".into()),
        };
        let pair = |(c, v): (&Col, &Cell)| format!("\"{}\": {}", c.key, value(c, v));
        let mut s = format!("{{\n  \"bench\": \"{bench}\",\n");
        let first = self.rows.first().into_iter().flatten();
        for kv in self
            .cols
            .iter()
            .zip(first)
            .filter(|(c, _)| c.fmt == Fmt::Const)
        {
            s += &format!("  {},\n", pair(kv));
        }
        s += "  \"cases\": [\n";
        for (n, row) in self.rows.iter().enumerate() {
            let kvs = self
                .cols
                .iter()
                .zip(row)
                .filter(|(c, _)| c.fmt != Fmt::Const);
            let kvs: Vec<String> = kvs.map(pair).collect();
            let comma = if n + 1 < self.rows.len() { "," } else { "" };
            s += &format!("    {{{}}}{comma}\n", kvs.join(", "));
        }
        s + "  ]\n}\n"
    }
}

/// Streams a file's bytes into its writer.
pub type Writer = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()>>;

/// What a file written by [`Report::file`] holds.
pub enum Body {
    /// The table as CSV, keys as the header row.
    Csv(Table),
    /// The table as JSON, named `"bench": <name>`.
    Json(&'static str, Table),
    /// Text produced elsewhere (a summary JSON).
    Text(String),
    /// A writer that streams the file (a Chrome trace).
    Stream(Writer),
}

enum Item {
    Line(String),
    Table(Table),
    File(String, Body),
}

/// An experiment's result: what it prints, in order, and the files it
/// writes.
#[derive(Default)]
pub struct Report {
    items: Vec<Item>,
    failure: Option<String>,
}

impl Report {
    /// Appends a stdout line (it may hold `\n`s).
    pub fn line(&mut self, line: impl Into<String>) {
        self.items.push(Item::Line(line.into()));
    }

    /// Appends a table to stdout.
    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    /// Writes `body` to `path` (creating its directory) on emit.
    pub fn file(&mut self, path: &str, body: Body) {
        self.items.push(Item::File(path.to_string(), body));
    }

    /// The `--csv <path>` output: writes `table` and says so, or does
    /// nothing when `path` is empty (the flag's default).
    pub fn csv(&mut self, path: &str, table: Table) {
        if !path.is_empty() {
            self.file(path, Body::Csv(table));
            self.line(format!("raw rows written to {path}"));
        }
    }

    /// Marks the run failed: emit reports `error: <msg>` on stderr and
    /// exits 1.
    pub fn fail(&mut self, msg: String) {
        self.failure = Some(msg);
    }

    /// The first table, printed or written, with a column keyed `key`.
    pub fn table_with(&self, key: &str) -> Option<&Table> {
        self.items.iter().find_map(|item| match item {
            Item::Table(t) | Item::File(_, Body::Csv(t) | Body::Json(_, t)) => {
                t.index(key).is_some().then_some(t)
            }
            _ => None,
        })
    }

    /// Writes every file, prints the stdout, and returns the exit code.
    ///
    /// # Panics
    /// Panics if a file cannot be written.
    pub fn emit(self) -> ExitCode {
        let mut out = String::new();
        for item in self.items {
            match item {
                Item::Line(l) => out.push_str(&format!("{l}\n")),
                Item::Table(t) => t.text(&mut out),
                Item::File(path, body) => {
                    write_file(Path::new(&path), body)
                        .unwrap_or_else(|e| panic!("write {path}: {e}"));
                }
            }
        }
        print!("{out}");
        let Some(msg) = self.failure else {
            return ExitCode::SUCCESS;
        };
        eprintln!("error: {msg}");
        ExitCode::from(1)
    }
}

fn write_file(path: &Path, body: Body) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    match body {
        Body::Csv(t) => w.write_all(t.csv().as_bytes())?,
        Body::Json(name, t) => w.write_all(t.json(name).as_bytes())?,
        Body::Text(s) => w.write_all(s.as_bytes())?,
        Body::Stream(f) => f(&mut w)?,
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Alignment, rounding, `Fixed`, `Const`, missing cells and headless
    // tables are pinned byte for byte by the driver's `OUTPUT_PINS`;
    // these cover what no experiment's output exercises.

    #[test]
    fn csv_quotes_and_json_escapes_text_cells() {
        let mut t = Table::raw(&["label", "x"]);
        t.row(cells!["a,b", 0.25]);
        t.row(cells!["say \"hi\"\\\n", None]);
        let csv = "label,x\n\"a,b\",0.25\n\"say \"\"hi\"\"\\\n\",-\n";
        assert_eq!(t.csv(), csv);
        let cases = "{\"label\": \"a,b\", \"x\": 0.25},\n    {\"label\": \"say \\\"hi\\\"\\\\\\n\", \"x\": null}";
        let json = format!("{{\n  \"bench\": \"t\",\n  \"cases\": [\n    {cases}\n  ]\n}}\n");
        assert_eq!(t.json("t"), json);
    }

    #[test]
    fn an_empty_csv_path_writes_and_prints_nothing() {
        let mut r = Report::default();
        r.csv("", Table::raw(&["x"]));
        assert!(r.items.is_empty() && r.table_with("x").is_none());
    }
}
