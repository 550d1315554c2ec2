//! Recursive-descent parser for ftsh.
//!
//! Keywords (`try`, `forany`, `forall`, `if`, `else`, `catch`, `end`,
//! `failure`, `success`) are recognized positionally: only a fully
//! literal word at the start of a statement can open a construct, as in
//! the Bourne shell family.
//!
//! The parser walks the lexer's `Copy` tokens by index. Keywords,
//! numbers, units and operators are read as `&str` slices of the source
//! and never allocated; only the words that land in the AST are built.

use crate::ast::{
    Block, Command, Cond, CondOp, Redir, RedirTarget, Script, Seg, Span, Stmt, TrySpec, Word,
};
use crate::errors::ParseError;
use crate::lexer::{lex, literal, Token, TokenKind, Words};
use retry::time::parse_duration;
use std::borrow::Cow;

/// Parse a complete script.
///
/// ```
/// use ftsh::{parse, Stmt};
///
/// let s = parse("try for 5 minutes\n  condor_submit job\nend\n").unwrap();
/// assert!(matches!(s.stmts[0], Stmt::Try { .. }));
/// assert!(parse("try without end\n").is_err());
/// ```
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let mut p = Parser {
        src,
        toks: lex(src)?,
        pos: 0,
        last_span: Span::default(),
        words: Words::default(),
    };
    let stmts = p.stmt_list(&[])?;
    p.expect_eof()?;
    Ok(Script { stmts })
}

struct Parser<'s> {
    src: &'s str,
    toks: Vec<Token>,
    pos: usize,
    /// Span of the last consumed non-newline token; statement spans
    /// run from their first token to this.
    last_span: Span,
    /// Builds the words that enter the AST.
    words: Words,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Token {
        self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        if !matches!(t.kind, TokenKind::Newline | TokenKind::Eof) {
            self.last_span = t.span;
        }
        t
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    /// An error at the next token, carrying its span.
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line(), msg).with_span(self.peek().span)
    }

    /// The literal spelling of `tok` if it is a fully literal word.
    fn lit(&self, tok: Token) -> Option<Cow<'s, str>> {
        literal(self.src, tok)
    }

    /// The literal spelling of the next token if it is a fully literal
    /// word.
    fn peek_lit(&self) -> Option<Cow<'s, str>> {
        self.lit(self.peek())
    }

    fn eat_newlines(&mut self) {
        while matches!(self.peek().kind, TokenKind::Newline) {
            self.next();
        }
    }

    fn expect_newline(&mut self, what: &str) -> Result<(), ParseError> {
        match self.peek().kind {
            TokenKind::Newline => {
                self.next();
                Ok(())
            }
            TokenKind::Eof => Ok(()),
            _ => Err(self.err(format!("expected end of line after {what}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.eat_newlines();
        match self.peek().kind {
            TokenKind::Eof => Ok(()),
            _ => Err(self.err("unexpected text after script (stray 'end'?)")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.peek_lit().as_deref() == Some(kw) {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    /// The next token, which must be a word.
    fn next_word_token(&mut self, what: &str) -> Result<Token, ParseError> {
        let t = self.next();
        match t.kind {
            TokenKind::Word { .. } => Ok(t),
            _ => Err(ParseError::new(t.line, format!("expected {what}")).with_span(t.span)),
        }
    }

    fn next_word(&mut self, what: &str) -> Result<Word, ParseError> {
        let t = self.next_word_token(what)?;
        Ok(self.words.word(self.src, t))
    }

    fn next_number(&mut self, what: &str) -> Result<u64, ParseError> {
        let t = self.next_word_token(what)?;
        self.lit(t)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| {
                ParseError::new(t.line, format!("expected a number for {what}")).with_span(t.span)
            })
    }

    /// The next word as an identifier (a function name, a loop
    /// variable); `msg` if it is not one.
    fn next_ident(&mut self, what: &str, msg: &str) -> Result<String, ParseError> {
        let t = self.next_word_token(what)?;
        self.lit(t)
            .filter(|n| is_ident(n))
            .map(Cow::into_owned)
            .ok_or_else(|| ParseError::new(t.line, msg).with_span(t.span))
    }

    /// Parse statements until one of `terminators` appears in command
    /// position (the terminator is not consumed).
    fn stmt_list(&mut self, terminators: &[&str]) -> Result<Block, ParseError> {
        let mut out = Vec::new();
        let mut spans = Vec::new();
        loop {
            self.eat_newlines();
            let t = self.peek();
            match t.kind {
                TokenKind::Eof => return Ok(Block::with_spans(out, spans)),
                TokenKind::Word { .. } => {
                    let kw = self.lit(t);
                    if let Some(l) = kw.as_deref() {
                        if terminators.contains(&l) {
                            return Ok(Block::with_spans(out, spans));
                        }
                        if l == "end" || l == "catch" || l == "else" {
                            return Err(self.err(format!("'{l}' without a matching construct")));
                        }
                    }
                    out.push(self.stmt(kw.as_deref())?);
                    spans.push(Span::new(t.span.start, self.last_span.end));
                }
                _ => return Err(self.err("statement cannot begin with a redirection")),
            }
        }
    }

    /// The statement starting at the next token, whose literal spelling
    /// is `kw`.
    fn stmt(&mut self, kw: Option<&str>) -> Result<Stmt, ParseError> {
        match kw {
            Some("try") => self.try_stmt(),
            Some("forany") => self.for_stmt(false),
            Some("forall") => self.for_stmt(true),
            Some("if") => self.if_stmt(),
            Some("failure") => {
                self.next();
                self.expect_newline("'failure'")?;
                Ok(Stmt::Failure)
            }
            Some("success") => {
                self.next();
                self.expect_newline("'success'")?;
                Ok(Stmt::Success)
            }
            Some("function") => self.function_stmt(),
            _ => self.command_or_assign(),
        }
    }

    /// `try [for N unit] [or] [N times] [every N unit]` — both orders of
    /// the `for`/`times` clauses are accepted.
    fn try_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let header_start = self.peek().span.start;
        self.expect_keyword("try")?;
        let mut spec = TrySpec::default();
        loop {
            match self.peek_lit().as_deref() {
                Some("for") => {
                    self.next();
                    let n = self.next_number("a time limit")?;
                    let d = self.time_unit(n)?;
                    if spec.time.replace(d).is_some() {
                        return Err(ParseError::new(self.line(), "duplicate 'for' clause")
                            .with_span(self.last_span));
                    }
                }
                Some("or") => {
                    self.next();
                }
                Some("every") => {
                    self.next();
                    let n = self.next_number("an interval")?;
                    let d = self.time_unit(n)?;
                    if spec.every.replace(d).is_some() {
                        return Err(ParseError::new(self.line(), "duplicate 'every' clause")
                            .with_span(self.last_span));
                    }
                }
                Some(_) if self.looks_like_times() => {
                    let count_span = self.peek().span;
                    let n = self.next_number("an attempt count")?;
                    self.expect_keyword("times")
                        .or_else(|_| self.expect_keyword("time"))?;
                    let n = u32::try_from(n).map_err(|_| {
                        ParseError::new(line, "attempt count too large").with_span(count_span)
                    })?;
                    if spec.attempts.replace(n).is_some() {
                        return Err(ParseError::new(line, "duplicate 'times' clause")
                            .with_span(self.last_span));
                    }
                }
                _ => break,
            }
        }
        spec.span = Span::new(header_start, self.last_span.end);
        self.expect_newline("'try' header")?;
        let body = self.stmt_list(&["catch", "end"])?;
        let catch = if self.peek_lit().as_deref() == Some("catch") {
            self.next();
            self.expect_newline("'catch'")?;
            Some(self.stmt_list(&["end"])?)
        } else {
            None
        };
        self.expect_keyword("end").map_err(|_| {
            ParseError::new(line, "'try' without matching 'end'").with_span(spec.span)
        })?;
        self.expect_newline("'end'")?;
        Ok(Stmt::Try { spec, body, catch })
    }

    /// Parse the unit word of a `for`/`every` clause into a duration.
    fn time_unit(&mut self, amount: u64) -> Result<retry::Dur, ParseError> {
        let t = self.next_word_token("a time unit")?;
        let unit = self.lit(t).ok_or_else(|| {
            ParseError::new(t.line, "time unit must be literal").with_span(t.span)
        })?;
        parse_duration(amount, &unit).ok_or_else(|| {
            ParseError::new(t.line, format!("unknown time unit '{unit}'")).with_span(t.span)
        })
    }

    fn function_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let header_start = self.peek().span.start;
        self.expect_keyword("function")?;
        let name = self.next_ident("a function name", "function name must be an identifier")?;
        let header = Span::new(header_start, self.last_span.end);
        self.expect_newline("'function' header")?;
        let body = self.stmt_list(&["end"])?;
        self.expect_keyword("end").map_err(|_| {
            ParseError::new(line, "'function' without matching 'end'").with_span(header)
        })?;
        self.expect_newline("'end'")?;
        Ok(Stmt::Function { name, body })
    }

    /// Does the upcoming input look like `<N> times`?
    fn looks_like_times(&self) -> bool {
        let is_num = self
            .peek_lit()
            .is_some_and(|l| !l.is_empty() && l.bytes().all(|c| c.is_ascii_digit()));
        is_num
            && self
                .toks
                .get(self.pos + 1)
                .and_then(|&t| self.lit(t))
                .is_some_and(|l| matches!(&*l, "times" | "time"))
    }

    fn for_stmt(&mut self, all: bool) -> Result<Stmt, ParseError> {
        let line = self.line();
        let kw = if all { "forall" } else { "forany" };
        let header_start = self.peek().span.start;
        self.expect_keyword(kw)?;
        let var = self.next_ident("a loop variable", "loop variable must be an identifier")?;
        self.expect_keyword("in")?;
        let mut values = Vec::new();
        while let TokenKind::Word { .. } = self.peek().kind {
            values.push(self.next_word("a value")?);
        }
        let header = Span::new(header_start, self.last_span.end);
        if values.is_empty() {
            return Err(
                ParseError::new(line, format!("'{kw}' needs at least one value")).with_span(header),
            );
        }
        self.expect_newline(&format!("'{kw}' header"))?;
        let body = self.stmt_list(&["end"])?;
        self.expect_keyword("end").map_err(|_| {
            ParseError::new(line, format!("'{kw}' without matching 'end'")).with_span(header)
        })?;
        self.expect_newline("'end'")?;
        if all {
            Ok(Stmt::ForAll { var, values, body })
        } else {
            Ok(Stmt::ForAny { var, values, body })
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let header_start = self.peek().span.start;
        self.expect_keyword("if")?;
        let lhs = self.next_word("a comparison operand")?;
        let t = self.next_word_token("a comparison operator")?;
        let op = self
            .lit(t)
            .and_then(|op| CondOp::from_spelling(&op))
            .ok_or_else(|| {
                ParseError::new(
                    t.line,
                    "expected .lt. .le. .gt. .ge. .eq. .ne. .eql. or .neql.",
                )
                .with_span(t.span)
            })?;
        let rhs = self.next_word("a comparison operand")?;
        let header = Span::new(header_start, self.last_span.end);
        self.expect_newline("'if' condition")?;
        let then = self.stmt_list(&["else", "end"])?;
        let els = if self.peek_lit().as_deref() == Some("else") {
            self.next();
            self.expect_newline("'else'")?;
            Some(self.stmt_list(&["end"])?)
        } else {
            None
        };
        self.expect_keyword("end")
            .map_err(|_| ParseError::new(line, "'if' without matching 'end'").with_span(header))?;
        self.expect_newline("'end'")?;
        Ok(Stmt::If {
            cond: Cond { lhs, op, rhs },
            then,
            els,
        })
    }

    fn command_or_assign(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let first = self.next_word("a command")?;

        // Assignment: a lone word of the shape name=value.
        if matches!(self.peek().kind, TokenKind::Newline | TokenKind::Eof) {
            if let Some((var, value)) = split_assignment(&first) {
                self.expect_newline("assignment")?;
                return Ok(Stmt::Assign { var, value });
            }
        }

        let mut cmd = Command {
            words: vec![first],
            redirs: Vec::new(),
        };
        loop {
            let t = self.peek();
            match t.kind {
                TokenKind::Word { .. } => {
                    if !cmd.redirs.is_empty() {
                        return Err(ParseError::new(
                            line,
                            "command arguments must precede redirections",
                        )
                        .with_span(t.span));
                    }
                    let w = self.next_word("a word")?;
                    cmd.words.push(w);
                }
                TokenKind::RedirOut { var, append, both } => {
                    self.next();
                    let target = self.next_word("a redirection target")?;
                    cmd.redirs.push(Redir::Out {
                        to: if var {
                            RedirTarget::Variable
                        } else {
                            RedirTarget::File
                        },
                        append,
                        both,
                        target,
                    });
                }
                TokenKind::RedirIn { var } => {
                    self.next();
                    let source = self.next_word("a redirection source")?;
                    cmd.redirs.push(Redir::In {
                        from: if var {
                            RedirTarget::Variable
                        } else {
                            RedirTarget::File
                        },
                        source,
                    });
                }
                TokenKind::Newline | TokenKind::Eof => break,
            }
        }
        self.expect_newline("command")?;
        Ok(Stmt::Command(cmd))
    }
}

/// Is `s` a valid shell identifier?
pub fn is_ident(s: &str) -> bool {
    let mut cs = s.chars();
    match cs.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    cs.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// If `w` looks like `name=value` (name a valid identifier), split it.
fn split_assignment(w: &Word) -> Option<(String, Word)> {
    let segs = w.segs();
    let Some(Seg::Lit(first)) = segs.first() else {
        return None;
    };
    let eq = first.find('=')?;
    let name = &first[..eq];
    if !is_ident(name) {
        return None;
    }
    let rest = &first[eq + 1..];
    let rest = (!rest.is_empty()).then(|| Seg::Lit(rest.into()));
    let value = Word::from_merged(rest.into_iter().chain(segs[1..].iter().cloned()));
    Some((name.to_string(), value.with_span(w.span())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retry::Dur;

    #[test]
    fn parse_group() {
        let s = parse("wget url\ngunzip f\ntar xvf f\n").unwrap();
        assert_eq!(s.len(), 3);
        assert!(matches!(s.stmts[0], Stmt::Command(_)));
    }

    #[test]
    fn parse_try_for_minutes() {
        let s = parse("try for 30 minutes\n  wget url\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::Try { spec, body, catch } => {
                assert_eq!(spec.time, Some(Dur::from_mins(30)));
                assert_eq!(spec.attempts, None);
                assert_eq!(body.len(), 1);
                assert!(catch.is_none());
            }
            other => panic!("expected try, got {other:?}"),
        }
    }

    #[test]
    fn parse_try_times() {
        let s = parse("try 5 times\n  wget url\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::Try { spec, .. } => {
                assert_eq!(spec.attempts, Some(5));
                assert_eq!(spec.time, None);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_try_both_orders() {
        for src in [
            "try for 1 hour or 3 times\nx\nend\n",
            "try 3 times or for 1 hour\nx\nend\n",
        ] {
            let s = parse(src).unwrap();
            match &s.stmts[0] {
                Stmt::Try { spec, .. } => {
                    assert_eq!(spec.time, Some(Dur::from_hours(1)));
                    assert_eq!(spec.attempts, Some(3));
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn parse_try_every() {
        let s = parse("try for 1 hour every 10 seconds\nx\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::Try { spec, .. } => {
                assert_eq!(spec.every, Some(Dur::from_secs(10)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_try_catch() {
        let s = parse("try 5 times\n wget u\ncatch\n rm -f t\n failure\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::Try { catch, .. } => {
                let c = catch.as_ref().unwrap();
                assert_eq!(c.len(), 2);
                assert!(matches!(c[1], Stmt::Failure));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_forany() {
        let s = parse("forany server in xxx yyy zzz\n wget http://${server}/f\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::ForAny { var, values, body } => {
                assert_eq!(var, "server");
                assert_eq!(values.len(), 3);
                assert_eq!(body.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_forall() {
        let s = parse("forall file in a b c\n wget http://s/${file}\nend\n").unwrap();
        assert!(matches!(&s.stmts[0], Stmt::ForAll { values, .. } if values.len() == 3));
    }

    #[test]
    fn parse_if_else() {
        let s = parse("if ${n} .lt. 1000\n failure\nelse\n condor_submit j\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::If { cond, then, els } => {
                assert_eq!(cond.op, CondOp::NumLt);
                assert_eq!(then.len(), 1);
                assert!(matches!(then[0], Stmt::Failure));
                assert_eq!(els.as_ref().unwrap().len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_nested_try_from_paper() {
        let src = "try for 30 minutes\n\
                   try for 5 minutes\n\
                   wget http://server/file.tar.gz\n\
                   end\n\
                   try for 1 minute or 3 times\n\
                   gunzip file.tar.gz\n\
                   tar xvf file.tar\n\
                   end\n\
                   end\n";
        let s = parse(src).unwrap();
        match &s.stmts[0] {
            Stmt::Try { body, .. } => {
                assert_eq!(body.len(), 2);
                assert!(matches!(body[0], Stmt::Try { .. }));
                assert!(matches!(body[1], Stmt::Try { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_forany_with_inner_try() {
        let src = "try for 1 hour\n\
                   forany host in xxx yyy zzz\n\
                   try for 5 minutes\n\
                   fetch-file ${host} filename\n\
                   end\n\
                   end\n\
                   end\n";
        let s = parse(src).unwrap();
        match &s.stmts[0] {
            Stmt::Try { body, .. } => match &body[0] {
                Stmt::ForAny { body, .. } => assert!(matches!(body[0], Stmt::Try { .. })),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_redirections() {
        let s = parse("run-simulation ->& tmp\ncat -< tmp\n").unwrap();
        match &s.stmts[0] {
            Stmt::Command(c) => {
                assert_eq!(c.redirs.len(), 1);
                assert!(matches!(
                    c.redirs[0],
                    Redir::Out {
                        to: RedirTarget::Variable,
                        both: true,
                        append: false,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
        match &s.stmts[1] {
            Stmt::Command(c) => {
                assert!(matches!(
                    c.redirs[0],
                    Redir::In {
                        from: RedirTarget::Variable,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_assignment() {
        let s = parse("x=5\nurl=http://${h}/f\n").unwrap();
        assert!(
            matches!(&s.stmts[0], Stmt::Assign { var, value } if var == "x" && value.as_lit() == Some("5"))
        );
        assert!(
            matches!(&s.stmts[1], Stmt::Assign { var, value } if var == "url" && value.has_vars())
        );
    }

    #[test]
    fn word_with_equals_in_command_is_not_assignment() {
        let s = parse("env x=5 cmd\n").unwrap();
        assert!(matches!(&s.stmts[0], Stmt::Command(c) if c.words.len() == 3));
    }

    #[test]
    fn carrier_sense_fragment_from_paper() {
        let src = "try for 5 minutes\n\
                   cut -f2 /proc/sys/fs/file-nr -> n\n\
                   if ${n} .lt. 1000\n\
                   failure\n\
                   else\n\
                   condor_submit submit.job\n\
                   end\n\
                   end\n";
        let s = parse(src).unwrap();
        match &s.stmts[0] {
            Stmt::Try { body, .. } => {
                assert_eq!(body.len(), 2);
                assert!(matches!(body[0], Stmt::Command(_)));
                assert!(matches!(body[1], Stmt::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_function() {
        let s = parse("function fetch\n wget ${1}\nend\n").unwrap();
        match &s.stmts[0] {
            Stmt::Function { name, body } => {
                assert_eq!(name, "fetch");
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn function_errors() {
        assert!(parse("function\nx\nend\n").is_err()); // missing name
        assert!(parse("function 9bad\nx\nend\n").is_err()); // bad name
        assert!(parse("function f\nx\n").is_err()); // missing end
    }

    #[test]
    fn errors() {
        assert!(parse("try for 5 minutes\nx\n").is_err()); // missing end
        assert!(parse("end\n").is_err());
        assert!(parse("catch\n").is_err());
        assert!(parse("forany in a b\nx\nend\n").is_err()); // missing var
        assert!(parse("forany v in\nx\nend\n").is_err()); // no values
        assert!(parse("if a .zz. b\nx\nend\n").is_err()); // bad op
        assert!(parse("try for 5 fortnights\nx\nend\n").is_err());
        assert!(parse("> f\n").is_err()); // redirection with no command
        assert!(parse("try for x minutes\ny\nend\n").is_err()); // non-numeric
        assert!(parse("cmd > \n").is_err()); // missing target
    }

    #[test]
    fn args_after_redirection_rejected() {
        assert!(parse("cmd > f extra\n").is_err());
    }

    #[test]
    fn empty_script() {
        let s = parse("").unwrap();
        assert!(s.is_empty());
        let s = parse("\n\n\n").unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn statement_spans_resolve_to_source_lines() {
        use crate::errors::line_col;
        let src = "wget url\ntry for 5 minutes\n  gunzip f\nend\nx=1\n";
        let s = parse(src).unwrap();
        // Top-level statement spans point at their first token.
        let (l0, c0) = line_col(src, s.stmts.span_of(0).start);
        assert_eq!((l0, c0), (1, 1));
        let (l1, _) = line_col(src, s.stmts.span_of(1).start);
        assert_eq!(l1, 2);
        // The try construct's span runs through its `end`.
        let (lend, _) = line_col(src, s.stmts.span_of(1).end - 1);
        assert_eq!(lend, 4);
        let (l2, _) = line_col(src, s.stmts.span_of(2).start);
        assert_eq!(l2, 5);
        // Nested body statements carry their own spans.
        match &s.stmts[1] {
            Stmt::Try { spec, body, .. } => {
                let (lb, cb) = line_col(src, body.span_of(0).start);
                assert_eq!((lb, cb), (3, 3));
                // The try header span covers `try for 5 minutes`.
                assert_eq!(
                    &src[spec.span.start as usize..spec.span.end as usize],
                    "try for 5 minutes"
                );
            }
            _ => panic!(),
        }
        // Word spans slice back to their source spelling.
        match &s.stmts[0] {
            Stmt::Command(c) => {
                let sp = c.words[1].span();
                assert_eq!(&src[sp.start as usize..sp.end as usize], "url");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors_carry_spans() {
        let src = "try for 5 fortnights\nx\nend\n";
        let e = parse(src).unwrap_err();
        let sp = e.span.expect("span");
        assert_eq!(&src[sp.start as usize..sp.end as usize], "fortnights");
        let r = e.render(src);
        assert!(r.contains("parse error at 1:11"), "{r}");
        assert!(r.contains("^^^^^^^^^^"), "{r}");

        // A construct left open points back at its header.
        let e = parse("try for 5 minutes\nx\n").unwrap_err();
        let sp = e.span.expect("span");
        assert_eq!(sp.start, 0);
        // So does every other open construct, and a loop short of a
        // value; a count too large points at the count.
        for (src, at) in [
            ("function f\nx\n", "function f"),
            ("forany v in a b\nx\n", "forany v in a b"),
            ("forall v in\nx\nend\n", "forall v in"),
            ("if a .lt. b\nx\n", "if a .lt. b"),
            ("try 99999999999 times\nx\nend\n", "99999999999"),
        ] {
            let sp = parse(src).unwrap_err().span.expect("span");
            assert_eq!(&src[sp.start as usize..sp.end as usize], at, "{src:?}");
        }

        // Stray terminator points at itself.
        let src = "wget u\nend\n";
        let e = parse(src).unwrap_err();
        let sp = e.span.expect("span");
        assert_eq!(&src[sp.start as usize..sp.end as usize], "end");
    }

    #[test]
    fn is_ident_cases() {
        assert!(is_ident("abc"));
        assert!(is_ident("_x9"));
        assert!(!is_ident("9x"));
        assert!(!is_ident(""));
        assert!(!is_ident("a-b"));
    }
}
