//! Tokenizer for ftsh scripts.
//!
//! ftsh is line-oriented like the Bourne shell: statements end at a
//! newline, keywords are recognized positionally, and bare words may mix
//! literal text with `${var}` substitutions. The lexer resolves quoting
//! (`"..."` groups spaces and still substitutes, `'...'` is fully
//! literal), strips `#` comments, honours `\` line continuations, and
//! emits redirection operators (`>`, `>>`, `<`, `>&`, `->`, `->>`,
//! `->&`, `-<`) as distinct tokens when they stand alone. Every token
//! carries the byte [`Span`] of its source text, which the parser
//! threads into the AST for diagnostics.
//!
//! The lexer scans bytes and emits spans: a word token is `Copy` and
//! its text is `&src[span]`. It slices only at ASCII delimiters, so
//! every span falls on a UTF-8 boundary. A *plain* word (no quote,
//! escape or `$`) is its own literal; any other word is decoded, when a
//! caller wants its segments, by [`scan_word`] — the function that
//! found where the word ends, so every quoting rule, error message and
//! error span lives in one place.

use crate::ast::{Seg, Span, Word};
use crate::errors::ParseError;
use std::borrow::Cow;

/// A lexical token: what was read, where, and on which line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// What was read.
    pub kind: TokenKind,
    /// Source line (1-based) the token ends on: a word joined across a
    /// `\`-newline or holding a quoted newline ends on a later line
    /// than it starts.
    pub line: u32,
    /// Byte range of the token's source text.
    pub span: Span,
}

/// The kinds of token ftsh understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// A word: its text is `&src[span]`, and [`Token::word`] decodes
    /// its segments.
    Word {
        /// No quote, escape or `$`: the text is the word's literal.
        plain: bool,
    },
    /// `>` or `->` etc.; `var` is true for the dash-prefixed variable
    /// forms, `append` for `>>` forms, `both` for `>&` forms.
    RedirOut {
        /// Dash-prefixed form targets a shell variable.
        var: bool,
        /// `>>` appends instead of truncating.
        append: bool,
        /// `>&` also captures standard error.
        both: bool,
    },
    /// `<` or `-<`.
    RedirIn {
        /// Dash-prefixed form reads from a shell variable.
        var: bool,
    },
    /// End of a statement line.
    Newline,
    /// End of input.
    Eof,
}

impl Token {
    /// The word this token spells, decoded from `src` (the text it was
    /// lexed from); `None` for operators, newlines and end of input.
    ///
    /// # Panics
    /// May panic if `src` is not the text this token was lexed from.
    pub fn word(&self, src: &str) -> Option<Word> {
        matches!(self.kind, TokenKind::Word { .. }).then(|| Words::default().word(src, *self))
    }
}

/// The source text of `span`.
fn text(src: &str, span: Span) -> &str {
    &src[span.start as usize..span.end as usize]
}

/// Lex a whole script into tokens. Returns a token stream always
/// terminated by [`TokenKind::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    let token = |kind, line, start: usize, end: usize| Token {
        kind,
        line,
        span: Span::new(start as u32, end as u32),
    };
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\n' => {
                // Blank lines collapse into one newline token.
                if !at_line_start(&out) {
                    out.push(token(TokenKind::Newline, line, i, i + 1));
                }
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            // A comment runs to the newline, which ends the line as usual.
            b'#' => {
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(len, |n| i + n);
            }
            // A continuation between words: the newline is swallowed.
            b'\\' if bytes.get(i + 1) == Some(&b'\n') => {
                line += 1;
                i += 2;
            }
            b'<' => {
                out.push(token(TokenKind::RedirIn { var: false }, line, i, i + 1));
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'<') => {
                out.push(token(TokenKind::RedirIn { var: true }, line, i, i + 2));
                i += 2;
            }
            b'>' | b'-' if b == b'>' || bytes.get(i + 1) == Some(&b'>') => {
                let var = b == b'-';
                let start = i;
                i += 1 + usize::from(var);
                let append = bytes.get(i) == Some(&b'>');
                i += usize::from(append);
                let both = bytes.get(i) == Some(&b'&');
                i += usize::from(both);
                let kind = TokenKind::RedirOut { var, append, both };
                out.push(token(kind, line, start, i));
            }
            _ => {
                let (end, plain) = scan_word(src, i, &mut line, &mut ())?;
                out.push(token(TokenKind::Word { plain }, line, i, end));
                i = end;
            }
        }
    }
    if !at_line_start(&out) {
        out.push(token(TokenKind::Newline, line, len, len));
    }
    out.push(token(TokenKind::Eof, line, len, len));
    Ok(out)
}

/// True when no statement line is open: nothing lexed yet, or a newline
/// last.
fn at_line_start(out: &[Token]) -> bool {
    matches!(out.last().map(|t| t.kind), Some(TokenKind::Newline) | None)
}

/// Receives a word's segments as [`scan_word`] decodes them: literal
/// runs in order, consecutive runs belonging to one literal segment,
/// and substitutions.
trait WordSink {
    /// A run of literal text (possibly empty).
    fn lit(&mut self, run: &str);
    /// A `${name}` or `$name` substitution.
    fn var(&mut self, name: &str);
}

/// Finding where a word ends needs none of its segments.
impl WordSink for () {
    fn lit(&mut self, _: &str) {}
    fn var(&mut self, _: &str) {}
}

/// The literal a word spells, or `None` once a substitution shows it
/// has none.
impl WordSink for Option<String> {
    fn lit(&mut self, run: &str) {
        if let Some(s) = self {
            s.push_str(run);
        }
    }
    fn var(&mut self, _: &str) {
        *self = None;
    }
}

/// Scan the word starting at byte `start` of `src`, reporting its
/// segments to `out`, and return where it ends and whether it is plain.
/// A word ends at unquoted whitespace, a newline, a `#` or the end of
/// input; `line` advances past the newlines it swallows.
fn scan_word(
    src: &str,
    start: usize,
    line: &mut u32,
    out: &mut impl WordSink,
) -> Result<(usize, bool), ParseError> {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let mut i = start;
    // Start of the literal run not yet reported.
    let mut run = start;
    let mut plain = true;
    loop {
        // Skip the plain run: word ends, quotes, escapes and
        // substitutions stop it.
        while i < len
            && !matches!(
                bytes[i],
                b' ' | b'\t' | b'\r' | b'\n' | b'#' | b'\\' | b'"' | b'\'' | b'$'
            )
        {
            i += 1;
        }
        let Some(&b) = bytes.get(i) else { break };
        if matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'#') {
            break;
        }
        plain = false;
        out.lit(&src[run..i]);
        (i, run) = match b {
            b'\\' => match bytes.get(i + 1) {
                Some(b'\n') => {
                    *line += 1;
                    (i + 2, i + 2)
                }
                // The escaped character starts the next run.
                Some(_) => (i + 2, i + 1),
                None => {
                    return Err(ParseError::new(*line, "trailing backslash")
                        .with_span(Span::new(i as u32, len as u32)))
                }
            },
            b'"' => {
                let end = double_quoted(src, i, line, out)?;
                (end, end)
            }
            b'\'' => {
                let close = single_quoted(src, i, line)?;
                out.lit(&src[i + 1..close]);
                (close + 1, close + 1)
            }
            _ => {
                let end = substitution(src, i, *line, out)?;
                (end, end)
            }
        };
    }
    out.lit(&src[run..i]);
    Ok((i, plain))
}

/// The `"..."` opening at byte `open`: newlines and escaped characters
/// are literal, `\`-newline is swallowed, `$` substitutes. Returns the
/// offset past the closing quote.
fn double_quoted(
    src: &str,
    open: usize,
    line: &mut u32,
    out: &mut impl WordSink,
) -> Result<usize, ParseError> {
    let bytes = src.as_bytes();
    let len = bytes.len();
    let unterminated = |line| {
        ParseError::new(line, "unterminated double quote")
            .with_span(Span::new(open as u32, len as u32))
    };
    let mut i = open + 1;
    let mut run = i;
    loop {
        while i < len && !matches!(bytes[i], b'"' | b'\\' | b'$' | b'\n') {
            i += 1;
        }
        match bytes.get(i) {
            None => return Err(unterminated(*line)),
            Some(b'"') => {
                out.lit(&src[run..i]);
                return Ok(i + 1);
            }
            Some(b'\n') => {
                *line += 1;
                i += 1;
            }
            Some(b'\\') => {
                out.lit(&src[run..i]);
                (i, run) = match bytes.get(i + 1) {
                    Some(b'\n') => {
                        *line += 1;
                        (i + 2, i + 2)
                    }
                    Some(_) => (i + 2, i + 1),
                    None => return Err(unterminated(*line)),
                };
            }
            Some(_) => {
                out.lit(&src[run..i]);
                i = substitution(src, i, *line, out)?;
                run = i;
            }
        }
    }
}

/// The `'...'` opening at byte `open`, all literal: returns the offset
/// of the closing quote.
fn single_quoted(src: &str, open: usize, line: &mut u32) -> Result<usize, ParseError> {
    for (n, &b) in src.as_bytes()[open + 1..].iter().enumerate() {
        match b {
            b'\'' => return Ok(open + 1 + n),
            b'\n' => *line += 1,
            _ => {}
        }
    }
    Err(ParseError::new(*line, "unterminated single quote")
        .with_span(Span::new(open as u32, src.len() as u32)))
}

/// The `${name}` or `$name` at byte `dollar`: reports the name and
/// returns the offset past it.
fn substitution(
    src: &str,
    dollar: usize,
    line: u32,
    out: &mut impl WordSink,
) -> Result<usize, ParseError> {
    let bytes = src.as_bytes();
    let at = |end: usize| Span::new(dollar as u32, end as u32);
    if bytes.get(dollar + 1) == Some(&b'{') {
        let from = dollar + 2;
        let Some(n) = bytes[from..].iter().position(|&b| b == b'}' || b == b'\n') else {
            return Err(ParseError::new(line, "unterminated ${...}").with_span(at(dollar + 2)));
        };
        let to = from + n;
        if bytes[to] == b'\n' {
            return Err(ParseError::new(line, "unterminated ${...}").with_span(at(to)));
        }
        if to == from {
            return Err(
                ParseError::new(line, "empty variable name in ${}").with_span(at(dollar + 3))
            );
        }
        out.var(&src[from..to]);
        Ok(to + 1)
    } else {
        let from = dollar + 1;
        let n = bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count();
        if n == 0 {
            return Err(
                ParseError::new(line, "lone '$' (use \\$ for a literal)").with_span(at(dollar + 1))
            );
        }
        out.var(&src[from..from + n]);
        Ok(from + n)
    }
}

/// The literal spelling of `tok` if it is a fully literal word:
/// borrowed from `src` for a plain word, decoded for any other.
pub(crate) fn literal(src: &str, tok: Token) -> Option<Cow<'_, str>> {
    match tok.kind {
        TokenKind::Word { plain: true } => Some(Cow::Borrowed(text(src, tok.span))),
        TokenKind::Word { plain: false } => {
            let mut lit = Some(String::new());
            decode(src, tok, &mut lit);
            lit.map(Cow::Owned)
        }
        _ => None,
    }
}

/// Re-scan word token `tok`, which [`lex`] accepted from `src`,
/// reporting its segments to `out`.
fn decode(src: &str, tok: Token, out: &mut impl WordSink) {
    let mut line = tok.line;
    scan_word(src, tok.span.start as usize, &mut line, out)
        .expect("lex accepted this word from this source");
}

/// Builds [`Word`]s from word tokens, reusing its buffers from one
/// word to the next.
#[derive(Default)]
pub(crate) struct Words {
    /// The literal segment being decoded.
    lit: String,
    /// The segments decoded so far.
    segs: Vec<Seg>,
}

impl Words {
    /// The word that word token `tok`, lexed from `src`, spells.
    pub(crate) fn word(&mut self, src: &str, tok: Token) -> Word {
        let word = if tok.kind == (TokenKind::Word { plain: true }) {
            Word::lit(text(src, tok.span))
        } else {
            decode(src, tok, self);
            self.end_lit();
            Word::from_merged(self.segs.drain(..))
        };
        word.with_span(tok.span)
    }

    fn end_lit(&mut self) {
        if !self.lit.is_empty() {
            self.segs.push(Seg::Lit(self.lit.as_str().into()));
            self.lit.clear();
        }
    }
}

impl WordSink for Words {
    fn lit(&mut self, run: &str) {
        self.lit.push_str(run);
    }

    fn var(&mut self, name: &str) {
        self.end_lit();
        self.segs.push(Seg::Var(name.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoded words of `src`, in order.
    fn words(src: &str) -> Vec<Word> {
        lex(src)
            .unwrap()
            .iter()
            .filter_map(|t| t.word(src))
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_words() {
        let ks = kinds("wget http://server/file.tar.gz\n");
        assert_eq!(ks.len(), 4); // two words, newline, eof
        assert!(matches!(ks[0], TokenKind::Word { plain: true }));
        assert!(matches!(ks[2], TokenKind::Newline));
        assert!(matches!(ks[3], TokenKind::Eof));
    }

    #[test]
    fn variables_brace_and_bare() {
        let ws = words("echo ${server} $x\n");
        assert_eq!(ws[1].segs(), &[Seg::Var("server".into())]);
        assert_eq!(ws[2].segs(), &[Seg::Var("x".into())]);
        assert!(matches!(
            kinds("echo ${server}\n")[1],
            TokenKind::Word { plain: false }
        ));
    }

    #[test]
    fn mixed_word_segments() {
        assert_eq!(
            words("wget http://${server}/file\n")[1].segs(),
            &[
                Seg::Lit("http://".into()),
                Seg::Var("server".into()),
                Seg::Lit("/file".into())
            ]
        );
    }

    #[test]
    fn double_quotes_group_and_substitute() {
        assert_eq!(
            words("echo \"got file from ${server}\"\n")[1].segs(),
            &[Seg::Lit("got file from ".into()), Seg::Var("server".into())]
        );
    }

    #[test]
    fn single_quotes_are_literal() {
        assert_eq!(
            words("echo '${not_a_var}'\n")[1].segs(),
            &[Seg::Lit("${not_a_var}".into())]
        );
    }

    #[test]
    fn empty_quoted_word_is_a_word() {
        assert!(words("echo \"\"\n")[1].segs().is_empty());
    }

    #[test]
    fn comments_stripped() {
        let ks = kinds("wget url # fetch it\nnext\n");
        let n_words = ks
            .iter()
            .filter(|k| matches!(k, TokenKind::Word { .. }))
            .count();
        assert_eq!(n_words, 3); // wget, url, next
    }

    #[test]
    fn line_continuation() {
        let ks = kinds("wget \\\n url\n");
        let n_newlines = ks
            .iter()
            .filter(|k| matches!(k, TokenKind::Newline))
            .count();
        assert_eq!(n_newlines, 1);
    }

    #[test]
    fn redirect_operators() {
        assert!(matches!(
            kinds("cmd > f\n")[1],
            TokenKind::RedirOut {
                var: false,
                append: false,
                both: false
            }
        ));
        assert!(matches!(
            kinds("cmd >> f\n")[1],
            TokenKind::RedirOut {
                var: false,
                append: true,
                both: false
            }
        ));
        assert!(matches!(
            kinds("cmd >& f\n")[1],
            TokenKind::RedirOut {
                var: false,
                append: false,
                both: true
            }
        ));
        assert!(matches!(
            kinds("cmd -> v\n")[1],
            TokenKind::RedirOut {
                var: true,
                append: false,
                both: false
            }
        ));
        assert!(matches!(
            kinds("cmd ->& v\n")[1],
            TokenKind::RedirOut {
                var: true,
                append: false,
                both: true
            }
        ));
        assert!(matches!(
            kinds("cmd ->> v\n")[1],
            TokenKind::RedirOut {
                var: true,
                append: true,
                both: false
            }
        ));
        assert!(matches!(
            kinds("cmd < f\n")[1],
            TokenKind::RedirIn { var: false }
        ));
        assert!(matches!(
            kinds("cmd -< v\n")[1],
            TokenKind::RedirIn { var: true }
        ));
    }

    #[test]
    fn dash_not_followed_by_angle_is_a_word() {
        assert_eq!(words("rm -f file\n")[1].segs(), [Seg::Lit("-f".into())]);
    }

    #[test]
    fn angle_inside_word_is_literal() {
        // `a>b` as a single word: the operator form requires a word break.
        // 'a' is under construction when '>' arrives, so it stays literal.
        assert_eq!(words("echo a>b\n")[1].segs(), [Seg::Lit("a>b".into())]);
    }

    #[test]
    fn errors() {
        assert!(lex("echo ${unterminated\n").is_err());
        assert!(lex("echo \"open\n").is_err());
        assert!(lex("echo 'open").is_err());
        assert!(lex("echo $ \n").is_err());
        assert!(lex("echo ${}\n").is_err());
        assert!(lex("trailing \\").is_err());
    }

    #[test]
    fn multiple_blank_lines_collapse() {
        let ks = kinds("a\n\n\n\nb\n");
        let n_newlines = ks
            .iter()
            .filter(|k| matches!(k, TokenKind::Newline))
            .count();
        assert_eq!(n_newlines, 2);
    }

    #[test]
    fn escaped_dollar() {
        assert_eq!(
            words("echo \\$HOME\n")[1].segs(),
            [Seg::Lit("$HOME".into())]
        );
    }

    #[test]
    fn words_debug_smoke() {
        // Exercise the helper to keep it honest.
        assert_eq!(words("a b\n").len(), 2);
    }

    #[test]
    fn word_spans_are_byte_ranges() {
        let src = "wget http://server/f\n";
        let toks = lex(src).unwrap();
        let spans: Vec<Span> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Word { .. }))
            .map(|t| t.span)
            .collect();
        assert_eq!(spans, vec![Span::new(0, 4), Span::new(5, 20)]);
        // The Word carries the same span as its token.
        assert_eq!(toks[0].word(src).unwrap().span(), Span::new(0, 4));
        assert_eq!(&src[0..4], "wget");
        assert_eq!(&src[5..20], "http://server/f");
    }

    #[test]
    fn quoted_and_var_word_spans_cover_source() {
        let src = "echo \"a b\" ${x}y\n";
        let toks = lex(src).unwrap();
        let spans: Vec<Span> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Word { .. }))
            .map(|t| t.span)
            .collect();
        assert_eq!(spans[1], Span::new(5, 10)); // "a b" including quotes
        assert_eq!(spans[2], Span::new(11, 16)); // ${x}y
        assert_eq!(&src[11..16], "${x}y");
    }

    #[test]
    fn redir_token_spans() {
        let src = "cmd ->> v\n";
        let toks = lex(src).unwrap();
        assert_eq!(toks[1].span, Span::new(4, 7));
        assert_eq!(&src[4..7], "->>");
    }

    #[test]
    fn multiline_spans_advance() {
        let src = "a\nbb\n";
        let toks = lex(src).unwrap();
        let words: Vec<&Token> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Word { .. }))
            .collect();
        assert_eq!(words[0].span, Span::new(0, 1));
        assert_eq!(words[1].span, Span::new(2, 4));
        assert_eq!(words[1].line, 2);
    }

    #[test]
    fn error_spans_point_at_offender() {
        let e = lex("echo ${}\n").unwrap_err();
        assert_eq!(e.span.map(|s| s.start), Some(5));
        let e = lex("hello $ \n").unwrap_err();
        assert_eq!(e.span.map(|s| s.start), Some(6));
    }
}
