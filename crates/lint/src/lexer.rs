//! A hand-rolled Rust surface lexer.
//!
//! The audit rules need to know, for every source line, *what is code*
//! and *what is commentary* — nothing more. A full parse (syn) would be
//! overkill and would drag a heavyweight dependency into a workspace
//! whose philosophy is vendored shims; the lint only has to be exact
//! about the four lexical shapes that can make naive text search lie:
//!
//! * line comments (`//`, `///`, `//!`) and *nested* block comments
//!   (`/* /* */ */` — Rust block comments nest),
//! * string literals (`"..."` with escapes) and byte strings,
//! * raw strings (`r"..."`, `r#"..."#`, … with any number of `#`s) and
//!   raw byte strings,
//! * char literals (`'x'`, `'\n'`) versus lifetimes (`'a`), which share
//!   an opening quote.
//!
//! The output is a per-line split: [`LexedFile::code`] holds each line
//! with comment text removed and string/char *contents* blanked (the
//! delimiting quotes survive so token shapes stay visible), and
//! [`LexedFile::comments`] holds each line's comment text. String
//! literal contents are additionally collected into
//! [`LexedFile::strings`] in source order for the rules (metrics
//! liveness) that need to read them.

/// A string literal's content and the line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// Zero-based line of the opening quote.
    pub line: usize,
    /// The literal's content, escapes left as written.
    pub text: String,
}

/// The per-line code/comment split of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Line text with comments removed and literal contents blanked.
    pub code: Vec<String>,
    /// Comment text per line (line + block comments, doc or plain).
    pub comments: Vec<String>,
    /// Every string literal in source order.
    pub strings: Vec<StrLit>,
}

impl LexedFile {
    /// The number of lines in the file.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the file had no lines at all.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth; depth 0 means the comment just closed.
    BlockComment(u32),
    Str {
        raw_hashes: Option<u32>,
    },
    CharLit,
}

/// Splits `src` into per-line code and comment channels.
///
/// The lexer is a single forward pass; it never backtracks and it never
/// allocates proportionally to anything but the input size. Unterminated
/// literals or comments simply run to end of file — the audit is a lint,
/// not a compiler, and the compiler will reject such a file anyway.
pub fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let mut code = String::new();
    let mut comment = String::new();
    let mut cur_string = String::new();
    let mut cur_string_line = 0usize;
    let mut line = 0usize;
    let mut state = State::Code;

    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {{
            out.code.push(std::mem::take(&mut code));
            out.comments.push(std::mem::take(&mut comment));
            line += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '\n' => {
                    flush_line!();
                    i += 1;
                }
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    i += 2;
                    // Skip the doc-comment marker so `comment` holds text.
                    if matches!(bytes.get(i), Some('/') | Some('!')) {
                        i += 1;
                    }
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    cur_string.clear();
                    cur_string_line = line;
                    state = State::Str { raw_hashes: None };
                    i += 1;
                }
                'r' | 'b' if is_raw_or_byte_string(&bytes, i) => {
                    // Consume the prefix (`r`, `b`, `br`, `rb`) plus hashes
                    // up to the opening quote.
                    let mut j = i;
                    while matches!(bytes.get(j), Some('r') | Some('b')) {
                        code.push(bytes[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        code.push('#');
                        hashes += 1;
                        j += 1;
                    }
                    // is_raw_or_byte_string guarantees a quote is here.
                    code.push('"');
                    j += 1;
                    cur_string.clear();
                    cur_string_line = line;
                    state = State::Str {
                        raw_hashes: Some(hashes),
                    };
                    i = j;
                }
                '\'' => {
                    // Char literal or lifetime? A lifetime is `'` + ident
                    // with no closing quote right after one char; a char
                    // literal is `'x'` or `'\...'`.
                    if next == Some('\\') {
                        code.push('\'');
                        state = State::CharLit;
                        i += 1;
                    } else if bytes.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        // 'x' — blank the content, keep the quotes.
                        code.push('\'');
                        code.push(' ');
                        code.push('\'');
                        i += 3;
                    } else {
                        // Lifetime (or the rare `'static`): keep as code.
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    // A bare `//` or `///` is a paragraph break inside a
                    // comment, not a blank line: keep it visible as one, or
                    // the `# Safety` heading of a doc comment is cut off
                    // from the `unsafe fn` under it.
                    if comment.is_empty() {
                        comment.push(' ');
                    }
                    flush_line!();
                } else {
                    comment.push(c);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    flush_line!();
                    i += 1;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        cur_string.push(c);
                        if let Some(n) = next {
                            cur_string.push(n);
                        }
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        out.strings.push(StrLit {
                            line: cur_string_line,
                            text: std::mem::take(&mut cur_string),
                        });
                        state = State::Code;
                        i += 1;
                    } else {
                        if c == '\n' {
                            flush_line!();
                        }
                        cur_string.push(c);
                        i += 1;
                    }
                }
                Some(hashes) => {
                    if c == '"' && closes_raw(&bytes, i, hashes) {
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        out.strings.push(StrLit {
                            line: cur_string_line,
                            text: std::mem::take(&mut cur_string),
                        });
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        if c == '\n' {
                            flush_line!();
                        }
                        cur_string.push(c);
                        i += 1;
                    }
                }
            },
            State::CharLit => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    code.push(' ');
                    code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    if c == '\n' {
                        // Malformed; bail back to code so we don't eat the file.
                        flush_line!();
                        state = State::Code;
                    }
                    i += 1;
                }
            }
        }
    }
    // Final (possibly unterminated) line.
    if !code.is_empty() || !comment.is_empty() || out.code.is_empty() || src.ends_with('\n') {
        out.code.push(code);
        out.comments.push(comment);
    }
    out
}

/// Whether `bytes[i..]` starts a raw/byte string prefix (`r"`, `r#`,
/// `b"`, `br"`, `rb#`, …) rather than a plain identifier like `radius`.
fn is_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    // Must not be preceded by an identifier character (else `r` is just
    // the last letter of some identifier's prefix — callers only invoke
    // this at an identifier *start*, but be defensive).
    if i > 0 {
        let p = bytes[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i;
    let mut prefix = 0;
    while matches!(bytes.get(j), Some('r') | Some('b')) && prefix < 2 {
        j += 1;
        prefix += 1;
    }
    // `b"..."` (plain byte string) and `r`-prefixed forms both count; the
    // content must still be blanked either way.
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Whether the quote at `bytes[i]` is followed by `hashes` `#`s.
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if bytes.get(i + 1 + k) != Some(&'#') {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comment_split() {
        let f = lex("let x = 1; // trailing note\n");
        assert_eq!(f.code[0], "let x = 1; ");
        assert_eq!(f.comments[0], " trailing note");
    }

    #[test]
    fn doc_comment_marker_stripped() {
        let f = lex("/// SAFETY: documented\nfn f() {}\n");
        assert_eq!(f.comments[0], " SAFETY: documented");
        assert_eq!(f.code[0], "");
    }

    #[test]
    fn bare_comment_marker_is_not_a_blank_line() {
        let f = lex("/// # Safety\n///\n/// Caller checks.\n\nunsafe fn f() {}\n");
        assert_eq!(f.comments[1], " ", "a paragraph break stays commentary");
        assert_eq!((f.code[3].as_str(), f.comments[3].as_str()), ("", ""));
    }

    #[test]
    fn nested_block_comment() {
        let f = lex("a /* outer /* inner */ still */ b\n");
        assert_eq!(f.code[0], "a  b");
        assert!(f.comments[0].contains("outer"));
        assert!(f.comments[0].contains("inner"));
    }

    #[test]
    fn string_contents_blanked_and_collected() {
        let f = lex("call(\"// not a comment\", x);\n");
        assert_eq!(f.code[0], "call(\"\", x);");
        assert_eq!(f.comments[0], "");
        assert_eq!(f.strings[0].text, "// not a comment");
    }

    #[test]
    fn raw_string_with_hashes() {
        let f = lex("let s = r#\"unsafe { \"quoted\" }\"#;\n");
        assert_eq!(f.code[0], "let s = r#\"\"#;");
        assert_eq!(f.strings[0].text, "unsafe { \"quoted\" }");
    }

    #[test]
    fn multiline_string_spans_lines() {
        let f = lex("let s = \"line one\nunsafe here too\";\nlet y = 2;\n");
        assert_eq!(f.code[0], "let s = \"");
        assert_eq!(f.code[1], "\";");
        assert_eq!(f.code[2], "let y = 2;");
        assert_eq!(f.strings[0].text, "line one\nunsafe here too");
        assert_eq!(f.strings[0].line, 0);
    }

    #[test]
    fn char_literal_versus_lifetime() {
        let f = lex("let c: char = '/'; fn g<'a>(x: &'a str) {}\n");
        assert_eq!(f.code[0], "let c: char = ' '; fn g<'a>(x: &'a str) {}");
        let f = lex("let c = '\\n'; let d = '\\'';\n");
        assert!(!f.code[0].contains('n') || f.code[0].contains("let"));
        assert_eq!(f.comments[0], "");
    }

    #[test]
    fn escaped_quote_in_string() {
        let f = lex("let s = \"a\\\"b // c\";\nlet t = 1;\n");
        assert_eq!(f.code[0], "let s = \"\";");
        assert_eq!(f.code[1], "let t = 1;");
    }

    #[test]
    fn byte_string_blanked() {
        let f = lex("w.append(b\"unsafe bytes\")?;\n");
        assert_eq!(f.code[0], "w.append(b\"\")?;");
        assert_eq!(f.strings[0].text, "unsafe bytes");
    }
}
