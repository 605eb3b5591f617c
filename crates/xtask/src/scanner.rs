//! Rust source scanner: one token tree per file.
//!
//! Every pass asks its structural questions — where a test region or a
//! `fn` signature begins and ends — of one tree per file: comments
//! dropped, each
//! literal (string, char, number) a single token, every token tagged
//! with its line, and each `(` / `[` / `{` linked to its close. The
//! word-level lints keep a per-line view instead: the source with
//! comments and literal contents blanked (newlines preserved, so line
//! numbers survive), which is what stops forbidden identifiers in docs
//! or error messages from firing.
//!
//! This is deliberately not a full lexer: it handles line comments,
//! nested block comments, string / raw-string / byte-string literals,
//! char and byte literals, number literals, and distinguishes lifetimes
//! (`'a`) from char literals (`'a'`). Only `(`, `[` and `{` are
//! delimiters.

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// String, byte-string, char, byte or number literal, verbatim.
    Lit,
    /// Operator, delimiter or lifetime.
    Punct,
}

/// One token of the tree.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: Kind,
    /// 0-based line the token starts on.
    pub line: usize,
    start: usize,
    end: usize,
    /// Opener: index of its close (`toks.len()` when unclosed). Closer:
    /// index of its opener. Anything else: its own index.
    pair: usize,
}

/// One scanned source file.
pub struct FileScan {
    /// Original source lines.
    pub raw: Vec<String>,
    /// Source lines with comments and literal contents blanked.
    pub code: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]` / `#[test]` item.
    pub is_test: Vec<bool>,
    /// The token tree, in source order.
    pub toks: Vec<Tok>,
    src: String,
    blank: String,
}

/// Scans `source` into raw/code line pairs, its token tree and the
/// test-region flags.
pub fn scan(source: &str) -> FileScan {
    let (blank, toks) = lex(source);
    let raw: Vec<String> = source.lines().map(str::to_string).collect();
    let mut code: Vec<String> = blank.lines().map(str::to_string).collect();
    // `lines()` drops a trailing empty segment; keep the vectors aligned.
    while code.len() < raw.len() {
        code.push(String::new());
    }
    let mut scan = FileScan {
        is_test: vec![false; raw.len()],
        raw,
        code,
        toks,
        src: source.to_string(),
        blank,
    };
    scan.mark_test_items();
    scan
}

/// `true` if `b` can continue a Rust identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whole-word containment: `word` occurs in `line` not surrounded by
/// identifier characters (so `Instant` does not match `Instantaneous`).
pub fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let p = start + pos;
        let before_ok = p == 0 || !is_ident_byte(bytes[p - 1]);
        let after = p + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = p + word.len();
    }
    false
}

/// Finds `marker` on line `ln` itself or in the contiguous run of
/// comment / attribute lines directly above it, returning the trimmed
/// text after the marker. This is the lookup for justification
/// comments (`atomics:`): an annotation belongs to the first
/// non-comment line below it.
pub fn annotation_above<'a>(scan: &'a FileScan, ln: usize, marker: &str) -> Option<&'a str> {
    if let Some(pos) = scan.raw[ln].find(marker) {
        return Some(scan.raw[ln][pos + marker.len()..].trim());
    }
    let mut i = ln;
    while i > 0 {
        i -= 1;
        let t = scan.raw[i].trim_start();
        if t.starts_with("//") {
            if let Some(pos) = t.find(marker) {
                return Some(t[pos + marker.len()..].trim());
            }
        } else if !t.starts_with("#[") {
            break;
        }
    }
    None
}

impl FileScan {
    /// Source text of token `i` (literals verbatim); empty past the end.
    pub fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| &self.src[t.start..t.end])
    }

    /// Is token `i` exactly `s`?
    pub fn is(&self, i: usize, s: &str) -> bool {
        i < self.toks.len() && self.text(i) == s
    }

    /// Is token `i` an identifier?
    pub fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == Kind::Ident)
    }

    /// 0-based line of token `i`; past the end, the last token's line.
    pub fn line(&self, i: usize) -> usize {
        self.toks.get(i).or(self.toks.last()).map_or(0, |t| t.line)
    }

    /// The delimiter paired with token `i`: an opener's close
    /// (`toks.len()` when unclosed), a closer's opener; any other token
    /// pairs with itself.
    pub fn pair(&self, i: usize) -> usize {
        self.toks[i].pair
    }

    /// The blanked code from token `from` up to (not including) token
    /// `to`, newlines as spaces: the text of a condition, signature or
    /// argument.
    pub fn span(&self, from: usize, to: usize) -> String {
        let at = |i: usize| self.toks.get(i).map_or(self.blank.len(), |t| t.start);
        let (a, z) = (at(from), at(to));
        self.blank[a..z.max(a)].replace('\n', " ")
    }

    /// The first token at `from`'s nesting level that ends a head — of
    /// an item, an `if` condition or a match guard: `{`, `;`, `=>` or
    /// the close of the enclosing group — stepping over `(..)` and
    /// `[..]`. `toks.len()` at end of file.
    pub fn head_end(&self, from: usize) -> usize {
        let mut k = from;
        while k < self.toks.len() {
            match self.text(k) {
                "(" | "[" => k = self.pair(k),
                "{" | ";" | "=>" | ")" | "]" | "}" => return k,
                _ => {}
            }
            k += 1;
        }
        self.toks.len()
    }

    /// Flags the lines of every item carrying `#[cfg(test)]` or
    /// `#[test]`, from the attribute to the item's end: the close of its
    /// first top-level `{..}`, its `;`, or the end of the enclosing group.
    fn mark_test_items(&mut self) {
        let n = self.toks.len();
        for i in 0..n {
            if !(self.is(i, "#") && self.is(i + 1, "[")) {
                continue;
            }
            let close = self.pair(i + 1);
            let attr: Vec<&str> = (i + 2..close).map(|k| self.text(k)).collect();
            if attr != ["test"] && attr != ["cfg", "(", "test", ")"] {
                continue;
            }
            let mut k = close + 1;
            while self.is(k, "#") && self.is(k + 1, "[") {
                k = self.pair(k + 1) + 1;
            }
            let head = self.head_end(k);
            let end = match self.text(head) {
                "{" => self.pair(head),
                ";" | "=>" => head,
                _ => head.saturating_sub(1).max(k),
            };
            let (first, last) = (self.line(i), self.line(end));
            for flag in self.is_test.iter_mut().take(last + 1).skip(first) {
                *flag = true;
            }
        }
    }
}

/// Multi-character operators lexed as one token, longest first.
const MULTI_PUNCT: &[&str] = &[
    "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "&&", "||", "..",
];

/// Lexes `src` into its blanked copy and its token tree.
fn lex(src: &str) -> (String, Vec<Tok>) {
    let b = src.as_bytes();
    let n = b.len();
    let mut blank = b.to_vec();
    let mut toks: Vec<Tok> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut line = 0;
    let mut i = 0;
    while i < n {
        let start = i;
        let kind = if b[i].is_ascii_whitespace() {
            i += 1;
            None
        } else if b[i..].starts_with(b"//") {
            i = b[i..].iter().position(|&c| c == b'\n').map_or(n, |p| i + p);
            None
        } else if b[i..].starts_with(b"/*") {
            i = block_comment_end(b, i);
            None
        } else if let Some(end) = literal_end(src, i) {
            i = end;
            Some(Kind::Lit)
        } else {
            let (kind, end) = word_or_punct(b, i);
            i = end;
            Some(kind)
        };
        let tok_line = line;
        line += b[start..i].iter().filter(|&&c| c == b'\n').count();
        let Some(kind) = kind else {
            if b[start] == b'/' {
                wipe(&mut blank[start..i]);
            }
            continue;
        };
        // Numbers stay readable: tag values and float literals are code.
        if kind == Kind::Lit && !b[start].is_ascii_digit() {
            wipe(&mut blank[start..i]);
        }
        let idx = toks.len();
        let mut tok = Tok {
            kind,
            line: tok_line,
            start,
            end: i,
            pair: idx,
        };
        match &src[start..i] {
            "(" | "[" | "{" => {
                tok.pair = usize::MAX;
                open.push(idx);
            }
            c @ (")" | "]" | "}") => {
                let opener = match c {
                    ")" => "(",
                    "]" => "[",
                    _ => "{",
                };
                if let Some(&o) = open
                    .last()
                    .filter(|&&o| &src[toks[o].start..toks[o].end] == opener)
                {
                    open.pop();
                    toks[o].pair = idx;
                    tok.pair = o;
                }
            }
            _ => {}
        }
        toks.push(tok);
    }
    for o in open {
        toks[o].pair = toks.len();
    }
    let blank = String::from_utf8(blank).expect("blanking only writes ASCII spaces");
    (blank, toks)
}

/// Replaces everything but newlines with spaces.
fn wipe(bytes: &mut [u8]) {
    for c in bytes.iter_mut().filter(|c| **c != b'\n') {
        *c = b' ';
    }
}

/// End of the (nested) block comment opening at `i`.
fn block_comment_end(b: &[u8], i: usize) -> usize {
    let mut depth = 0usize;
    let mut k = i;
    while k < b.len() {
        if b[k..].starts_with(b"/*") {
            depth += 1;
            k += 2;
        } else if b[k..].starts_with(b"*/") {
            depth -= 1;
            k += 2;
            if depth == 0 {
                return k;
            }
        } else {
            k += 1;
        }
    }
    b.len()
}

/// Identifier or punctuation token starting at `i`: `(kind, end)`.
fn word_or_punct(b: &[u8], i: usize) -> (Kind, usize) {
    let ident_end = |from: usize| {
        from + b[from..]
            .iter()
            .take_while(|&&c| is_ident_byte(c) || c >= 0x80)
            .count()
    };
    let c = b[i];
    if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 {
        // `r#ident` is one raw identifier.
        let raw = c == b'r'
            && b.get(i + 1) == Some(&b'#')
            && b.get(i + 2)
                .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_');
        return (Kind::Ident, ident_end(if raw { i + 2 } else { i }));
    }
    if c == b'\'' {
        return (Kind::Punct, ident_end(i + 1)); // lifetime
    }
    let len = if b.get(i + 1).is_some_and(u8::is_ascii_punctuation) {
        MULTI_PUNCT
            .iter()
            .find(|p| b[i..].starts_with(p.as_bytes()))
            .map_or(1, |p| p.len())
    } else {
        1
    };
    (Kind::Punct, i + len)
}

/// End of the literal starting at `i`, if one does.
fn literal_end(src: &str, i: usize) -> Option<usize> {
    let b = src.as_bytes();
    match b[i] {
        b'"' => Some(string_end(b, i + 1)),
        b'\'' if is_char_literal(src, i) => Some(char_end(b, i + 1)),
        b'0'..=b'9' => Some(number_end(b, i)),
        b'b' | b'r' => {
            let mut j = i + 1;
            if b[i] == b'b' {
                match b.get(j) {
                    Some(b'\'') => return Some(char_end(b, j + 1)),
                    Some(b'"') => return Some(string_end(b, j + 1)),
                    Some(b'r') => j += 1,
                    _ => return None,
                }
            }
            let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
            (b.get(j + hashes) == Some(&b'"')).then(|| raw_string_end(b, j + hashes + 1, hashes))
        }
        _ => None,
    }
}

/// End of a string body starting at `k` (just past the opening quote).
fn string_end(b: &[u8], mut k: usize) -> usize {
    while k < b.len() {
        match b[k] {
            b'\\' => k += 2,
            b'"' => return k + 1,
            _ => k += 1,
        }
    }
    b.len()
}

/// End of a raw string body starting at `k`, closed by `"` + `hashes` `#`.
fn raw_string_end(b: &[u8], mut k: usize, hashes: usize) -> usize {
    while k < b.len() {
        if b[k] == b'"'
            && b[k + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return k + 1 + hashes;
        }
        k += 1;
    }
    b.len()
}

/// End of a char literal body starting at `k` (just past the `'`).
fn char_end(b: &[u8], mut k: usize) -> usize {
    while k < b.len() {
        match b[k] {
            b'\\' => k += 2,
            b'\'' => return k + 1,
            _ => k += 1,
        }
    }
    b.len()
}

/// Is the `'` at `i` the start of a char literal (vs a lifetime)?
fn is_char_literal(src: &str, i: usize) -> bool {
    match src[i + 1..].chars().next() {
        Some('\\') => true,
        // One non-quote char followed by a closing quote: 'a', '€'.
        Some(c) if c != '\'' => src.as_bytes().get(i + 1 + c.len_utf8()) == Some(&b'\''),
        _ => false,
    }
}

/// End of the number literal starting at `i`: digits, suffixes, one
/// fractional part and an exponent sign (`1.5e-9f64`, `0x1F`, `7u32`).
fn number_end(b: &[u8], i: usize) -> usize {
    let mut k = i + 1;
    let mut dot = false;
    while let Some(&c) = b.get(k) {
        let exponent_sign = matches!(c, b'+' | b'-')
            && matches!(b[k - 1], b'e' | b'E')
            && b[i..k - 1]
                .iter()
                .all(|&d| d.is_ascii_digit() || d == b'_' || d == b'.');
        if is_ident_byte(c) || exponent_sign {
            k += 1;
        } else if c == b'.' && !dot && b.get(k + 1).is_some_and(u8::is_ascii_digit) {
            dot = true;
            k += 1;
        } else {
            break;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = r#"
// HashMap in a comment
let x = "HashMap in a string";
/* block HashMap */ let y = 1;
let s = 'h'; // char
"#;
        let scan = scan(src);
        for line in &scan.code {
            assert!(!line.contains("HashMap"), "leaked into code: {line}");
        }
        assert!(scan.code[2].contains("let x ="));
        assert!(scan.code[3].contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"Instant::now()\"#; }";
        let scan = scan(src);
        assert!(!scan.code[0].contains("Instant"));
        assert!(scan.code[0].contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* nested */ still comment */ let z = 2;";
        let scan = scan(src);
        assert!(!scan.code[0].contains("nested"));
        assert!(scan.code[0].contains("let z = 2;"));
    }

    #[test]
    fn byte_and_escaped_char_literals() {
        let src = "let a = b'x'; let b = '\\''; let c = b\"bytes\";";
        let scan = scan(src);
        assert!(!scan.code[0].contains('x'));
        assert!(!scan.code[0].contains("bytes"));
        assert!(scan.code[0].contains("let a ="));
        assert!(scan.code[0].contains("let c ="));
    }

    #[test]
    fn cfg_test_regions_are_flagged() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let scan = scan(src);
        assert!(!scan.is_test[0]);
        assert!(scan.is_test[3]);
        assert!(!scan.is_test[5]);
    }

    #[test]
    fn braceless_test_items_end_at_their_semicolon() {
        let src = "#[cfg(test)]\nuse std::sync::Arc;\nfn lib() {}\n";
        let scan = scan(src);
        assert!(scan.is_test[1]);
        assert!(!scan.is_test[2]);
    }

    #[test]
    fn literals_are_tokens_and_delimiters_pair() {
        let scan = scan("f(\"a, (b\", [1.5e-3, 'x'], {\n 7u32 })");
        let texts: Vec<&str> = (0..scan.toks.len()).map(|i| scan.text(i)).collect();
        assert_eq!(
            texts,
            [
                "f",
                "(",
                "\"a, (b\"",
                ",",
                "[",
                "1.5e-3",
                ",",
                "'x'",
                "]",
                ",",
                "{",
                "7u32",
                "}",
                ")"
            ]
        );
        assert_eq!(scan.pair(1), 13);
        assert_eq!(scan.pair(4), 8);
        assert_eq!(scan.toks[11].line, 1);
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("use std::collections::HashMap;", "HashMap"));
        assert!(!has_word("Instantaneous frequency", "Instant"));
        assert!(has_word("Instant::now()", "Instant"));
    }
}
