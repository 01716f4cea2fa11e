//! **SAQL** — the textual surface for the *full* query algebra.
//!
//! SAQL covers every [`QueryExpr`] shape: `and` / `or` / `not` with
//! conventional precedence and parentheses, trailing `limit n` / `topk k`
//! truncations, id-range leaves (`id in [lo..hi]`), value-band leaves
//! (`band [t:v, …] delta δ slack s`) and one feature clause per query
//! dimension (`shape`, `peaks`, `interval`, `steepness`). A parsed
//! expression lowers onto the existing [`Planner`] / [`QueryEngine`](crate::algebra::QueryEngine)
//! machinery — SAQL adds no execution semantics of its own.
//!
//! ## Grammar
//!
//! Keywords are case-insensitive; `#` starts a comment to end of line.
//! The full EBNF, the precedence table and worked examples live in
//! `docs/SAQL.md`.
//!
//! ```text
//! query     := expr
//! expr      := or-expr { ('limit' | 'topk') UINT }      # loosest
//! or-expr   := and-expr { 'or' and-expr }
//! and-expr  := not-expr { 'and' not-expr }
//! not-expr  := 'not' not-expr | primary
//! primary   := '(' expr ')' | leaf
//! leaf      := 'shape' STRING
//!            | 'peaks' '=' UINT [ 'tol' UINT ]
//!            | 'interval' '=' INT [ 'tol' INT ]
//!            | 'steepness' ('all' | 'any') '>=' FLOAT [ 'slack' FLOAT ]
//!            | 'id' 'in' '[' UINT '..' UINT ']'
//!            | 'band' '[' [ point { ',' point } ] ']' 'delta' FLOAT [ 'slack' FLOAT ]
//! point     := FLOAT ':' FLOAT                          # timestamp : value
//! ```
//!
//! `limit`/`topk` bind loosest (`a and b limit 3` truncates the whole
//! conjunction, as in SQL), `or` binds looser than `and`, and `not` binds
//! tightest of the operators. `not not x` is **not** simplified: `Not`
//! flattens tiers (its result is all-exact), so double negation keeps
//! `x`'s ids but deliberately forgets its deviations.
//!
//! ## Round-tripping
//!
//! [`QueryExpr::to_saql`] (also [`print()`]) renders an expression back to
//! SAQL such that `parse(print(e)) == e` exactly — structurally identical
//! trees, bit-identical numbers (floats print in Rust's shortest
//! round-trip form) — property-tested in `tests/prop_saql.rs`. The two
//! shapes no text can distinguish are single-operand `And`/`Or` wrappers,
//! which print as their operand (the planner's normalizer unwraps them
//! anyway, so plans and results are unchanged).
//!
//! ## Errors
//!
//! Every parse error carries the byte [`Span`] of the offending token;
//! [`SaqlError::render`] turns it into a caret diagnostic:
//!
//! ```text
//! error: expected `=`, got `2`
//!   | peaks 2 and interval = 8
//!   |       ^
//! ```
//!
//! ## Example
//!
//! ```
//! use saq_core::algebra::{QueryEngine as _, StoreEngine};
//! use saq_core::lang::saql;
//! use saq_core::store::SequenceStore;
//! use saq_sequence::generators::{goalpost, GoalpostSpec};
//!
//! let mut store = SequenceStore::default();
//! let id = store.insert(&goalpost(GoalpostSpec::default())).unwrap();
//!
//! let expr = saql::parse(
//!     r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*" and interval = 10 tol 3
//!        and not id in [1000..2000] topk 5"#,
//! )
//! .unwrap();
//! assert_eq!(StoreEngine::new(&store).execute(&expr).unwrap().exact, vec![id]);
//! // …and back: the printed form parses to the identical tree.
//! let printed = expr.to_saql().unwrap();
//! assert_eq!(saql::parse(&printed).unwrap(), expr);
//! ```

use crate::algebra::{PhysicalPlan, Planner, Pred, QueryExpr};
use crate::error::{Error, Result};
use crate::query::QuerySpec;
use saq_sequence::{Point, Sequence};
use std::fmt;
use std::fmt::Write as _;

/// Parser recursion limit: parenthesis/`not` nesting deeper than this is
/// rejected with a clean error instead of risking stack exhaustion.
pub const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Spans and errors
// ---------------------------------------------------------------------------

/// A half-open byte range `start..end` into the query source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

/// A SAQL parse error: a message plus the [`Span`] it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaqlError {
    message: String,
    span: Span,
}

impl SaqlError {
    fn new(message: impl Into<String>, span: Span) -> SaqlError {
        SaqlError { message: message.into(), span }
    }

    /// The human-readable message (without source context).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The byte span of the offending token (empty at end of input).
    pub fn span(&self) -> Span {
        self.span
    }

    /// Renders a caret diagnostic against the original source text:
    /// the message, the offending line, and a `^^^` underline.
    pub fn render(&self, source: &str) -> String {
        let start = self.span.start.min(source.len());
        let end = self.span.end.clamp(start, source.len());
        let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = source[start..].find('\n').map_or(source.len(), |i| start + i);
        let line = &source[line_start..line_end];
        let col = source[line_start..start].chars().count();
        let width = source[start..end.max(start).min(line_end)].chars().count().max(1);
        let mut out = format!("error: {}\n", self.message);
        let _ = writeln!(out, "  | {line}");
        let _ = write!(out, "  | {}{}", " ".repeat(col), "^".repeat(width));
        out
    }
}

impl fmt::Display for SaqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}..{}", self.message, self.span.start, self.span.end)
    }
}

impl std::error::Error for SaqlError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// A bare word, lowercased (keywords are case-insensitive).
    Word(String),
    /// A double-quoted string (no escapes).
    Str(String),
    /// A numeric literal, kept as its raw lexeme so integer contexts can
    /// parse it with full `u64`/`i64` precision.
    Number(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Ge,
    DotDot,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Str(_) => "a string".into(),
            Tok::Number(n) => format!("`{n}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Ge => "`>=`".into(),
            Tok::DotDot => "`..`".into(),
        }
    }
}

type Lexed = (Tok, Span);

fn lex(text: &str) -> std::result::Result<Vec<Lexed>, SaqlError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(SaqlError::new(
                        "unterminated string literal",
                        Span::new(start, bytes.len()),
                    ));
                }
                out.push((Tok::Str(text[start + 1..i].to_string()), Span::new(start, i + 1)));
                i += 1;
            }
            b'(' => {
                out.push((Tok::LParen, Span::new(i, i + 1)));
                i += 1;
            }
            b')' => {
                out.push((Tok::RParen, Span::new(i, i + 1)));
                i += 1;
            }
            b'[' => {
                out.push((Tok::LBracket, Span::new(i, i + 1)));
                i += 1;
            }
            b']' => {
                out.push((Tok::RBracket, Span::new(i, i + 1)));
                i += 1;
            }
            b',' => {
                out.push((Tok::Comma, Span::new(i, i + 1)));
                i += 1;
            }
            b':' => {
                out.push((Tok::Colon, Span::new(i, i + 1)));
                i += 1;
            }
            b'=' => {
                out.push((Tok::Eq, Span::new(i, i + 1)));
                i += 1;
            }
            b'>' if bytes.get(i + 1) == Some(&b'=') => {
                out.push((Tok::Ge, Span::new(i, i + 2)));
                i += 2;
            }
            b'.' if bytes.get(i + 1) == Some(&b'.') => {
                out.push((Tok::DotDot, Span::new(i, i + 2)));
                i += 2;
            }
            _ if b.is_ascii_digit()
                || b == b'.'
                || (b == b'-' && next_starts_number(bytes, i + 1)) =>
            {
                let (tok, span) = lex_number(text, i)?;
                i = span.end;
                out.push((tok, span));
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push((Tok::Word(text[start..i].to_lowercase()), Span::new(start, i)));
            }
            _ => {
                let ch_len = text[i..].chars().next().map_or(1, char::len_utf8);
                return Err(SaqlError::new(
                    format!("unexpected character `{}`", &text[i..i + ch_len]),
                    Span::new(i, i + ch_len),
                ));
            }
        }
    }
    Ok(out)
}

fn next_starts_number(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i) {
        Some(b) if b.is_ascii_digit() => true,
        // `-.5`: a dot starts a number only when a digit follows (`..` is
        // the range token).
        Some(b'.') => bytes.get(i + 1).is_some_and(u8::is_ascii_digit),
        _ => false,
    }
}

/// Lexes one numeric literal starting at `start`: optional sign, digits,
/// at most one fraction, optional exponent. The lexeme is kept raw so the
/// parser can apply full-precision integer parsing where the grammar
/// demands integers. Trailing garbage that would silently split into two
/// adjacent tokens (`12.3.4`, `1x`) is rejected here, with a span covering
/// the whole malformed run.
fn lex_number(text: &str, start: usize) -> std::result::Result<Lexed, SaqlError> {
    let bytes = text.as_bytes();
    let mut i = start;
    if bytes.get(i) == Some(&b'-') {
        i += 1;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    // One fraction part — but never swallow the `..` range token.
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1) != Some(&b'.') {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let malformed = match bytes.get(i) {
        Some(b'.') if bytes.get(i + 1) != Some(&b'.') => true,
        Some(b) if b.is_ascii_alphanumeric() || *b == b'_' => true,
        _ => false,
    };
    if malformed {
        let mut j = i;
        while j < bytes.len()
            && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'.' || bytes[j] == b'_')
        {
            j += 1;
        }
        return Err(SaqlError::new(
            format!("malformed number `{}`", &text[start..j]),
            Span::new(start, j),
        ));
    }
    let lexeme = &text[start..i];
    if !lexeme.bytes().any(|b| b.is_ascii_digit()) {
        return Err(SaqlError::new(
            format!("malformed number `{lexeme}`"),
            Span::new(start, i.max(start + 1)),
        ));
    }
    Ok((Tok::Number(lexeme.to_string()), Span::new(start, i)))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses a SAQL query into a [`QueryExpr`], with span-carrying errors.
///
/// Use [`parse`] when an ordinary [`crate::Error`] (rendering the caret
/// diagnostic through its `Display`) is more convenient.
pub fn parse_spanned(text: &str) -> std::result::Result<QueryExpr, SaqlError> {
    let tokens = lex(text)?;
    if tokens.is_empty() {
        return Err(SaqlError::new("empty query", Span::new(text.len(), text.len())));
    }
    let mut p = Parser { tokens, pos: 0, eof: text.len() };
    let expr = p.expr(0)?;
    if let Some((tok, span)) = p.peek_with_span() {
        return Err(SaqlError::new(
            format!(
                "expected `and`, `or`, `limit`, `topk`, or end of input, got {}",
                tok.describe()
            ),
            span,
        ));
    }
    Ok(expr)
}

/// Parses a SAQL query into a [`QueryExpr`].
///
/// On failure the returned [`Error::Saql`] carries the structured
/// [`SaqlError`] plus the query text; its `Display` embeds the caret
/// diagnostic of [`SaqlError::render`], so it can be shown to a user
/// directly.
pub fn parse(text: &str) -> Result<QueryExpr> {
    parse_spanned(text).map_err(|e| Error::Saql { error: e, query: text.to_string() })
}

/// Parses a SAQL query and plans it in one step, for callers that want
/// the plan without running it; to run text, send a
/// [`QueryRequest::saql`](crate::request::QueryRequest::saql).
///
/// ```
/// use saq_core::algebra::{IndexCaps, Planner};
/// use saq_core::lang::saql;
///
/// let planner = Planner::new(IndexCaps::all());
/// let (expr, plan) = saql::parse_and_plan("shape \"1+ (-1)+\" and peaks = 1", &planner).unwrap();
/// assert_eq!(plan.leaf_count(), 2);
/// assert!(plan.explain().contains("pattern-index"));
/// assert_eq!(saql::parse(&expr.to_saql().unwrap()).unwrap(), expr);
/// ```
pub fn parse_and_plan(text: &str, planner: &Planner) -> Result<(QueryExpr, PhysicalPlan)> {
    let expr = parse(text)?;
    let plan = planner.plan(&expr)?;
    Ok((expr, plan))
}

struct Parser {
    tokens: Vec<Lexed>,
    pos: usize,
    eof: usize,
}

type PResult<T> = std::result::Result<T, SaqlError>;

impl Parser {
    fn eof_span(&self) -> Span {
        Span::new(self.eof, self.eof)
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek_with_span(&self) -> Option<(&Tok, Span)> {
        self.tokens.get(self.pos).map(|(t, s)| (t, *s))
    }

    fn next(&mut self, expected: &str) -> PResult<(Tok, Span)> {
        match self.tokens.get(self.pos) {
            Some((t, s)) => {
                self.pos += 1;
                Ok((t.clone(), *s))
            }
            None => Err(SaqlError::new(
                format!("expected {expected}, got end of input"),
                self.eof_span(),
            )),
        }
    }

    fn eat_word(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Word(w)) if w == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> PResult<Span> {
        let (t, span) = self.next(what)?;
        if t == tok {
            Ok(span)
        } else {
            Err(SaqlError::new(format!("expected {what}, got {}", t.describe()), span))
        }
    }

    /// `expr := or-expr { ('limit' | 'topk') UINT }`
    fn expr(&mut self, depth: usize) -> PResult<QueryExpr> {
        let mut expr = self.or_expr(depth)?;
        loop {
            if self.eat_word("limit") {
                expr = QueryExpr::Limit(Box::new(expr), self.uint("a `limit` count")? as usize);
            } else if self.eat_word("topk") {
                expr = QueryExpr::TopK(Box::new(expr), self.uint("a `topk` count")? as usize);
            } else {
                return Ok(expr);
            }
        }
    }

    /// `or-expr := and-expr { 'or' and-expr }`
    fn or_expr(&mut self, depth: usize) -> PResult<QueryExpr> {
        let mut operands = vec![self.and_expr(depth)?];
        while self.eat_word("or") {
            operands.push(self.and_expr(depth)?);
        }
        Ok(if operands.len() == 1 {
            operands.pop().expect("one operand")
        } else {
            QueryExpr::Or(operands)
        })
    }

    /// `and-expr := not-expr { 'and' not-expr }`
    fn and_expr(&mut self, depth: usize) -> PResult<QueryExpr> {
        let mut operands = vec![self.not_expr(depth)?];
        while self.eat_word("and") {
            operands.push(self.not_expr(depth)?);
        }
        Ok(if operands.len() == 1 {
            operands.pop().expect("one operand")
        } else {
            QueryExpr::And(operands)
        })
    }

    /// `not-expr := 'not' not-expr | primary`
    fn not_expr(&mut self, depth: usize) -> PResult<QueryExpr> {
        if depth >= MAX_DEPTH {
            let span = self.peek_with_span().map_or(self.eof_span(), |(_, s)| s);
            return Err(SaqlError::new(
                format!("query nested deeper than {MAX_DEPTH} levels"),
                span,
            ));
        }
        if self.eat_word("not") {
            Ok(QueryExpr::Not(Box::new(self.not_expr(depth + 1)?)))
        } else {
            self.primary(depth)
        }
    }

    /// `primary := '(' expr ')' | leaf`
    fn primary(&mut self, depth: usize) -> PResult<QueryExpr> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let inner = self.expr(depth + 1)?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(inner);
        }
        self.leaf()
    }

    fn leaf(&mut self) -> PResult<QueryExpr> {
        let (tok, span) = self.next("a clause")?;
        let head = match tok {
            Tok::Word(w) => w,
            other => {
                return Err(SaqlError::new(
                    format!("expected a clause, got {}", other.describe()),
                    span,
                ))
            }
        };
        match head.as_str() {
            "shape" => {
                let (tok, span) = self.next("a quoted pattern")?;
                match tok {
                    Tok::Str(pattern) => Ok(QueryExpr::feature(QuerySpec::Shape { pattern })),
                    other => Err(SaqlError::new(
                        format!("`shape` expects a quoted pattern, got {}", other.describe()),
                        span,
                    )),
                }
            }
            "peaks" => {
                self.expect(Tok::Eq, "`=`")?;
                let count = self.uint("a peak count")? as usize;
                let tolerance =
                    if self.eat_word("tol") { self.uint("a tolerance")? as usize } else { 0 };
                Ok(QueryExpr::feature(QuerySpec::PeakCount { count, tolerance }))
            }
            "interval" => {
                self.expect(Tok::Eq, "`=`")?;
                let interval = self.int("an interval")?;
                let epsilon = if self.eat_word("tol") { self.int("a tolerance")? } else { 0 };
                Ok(QueryExpr::feature(QuerySpec::PeakInterval { interval, epsilon }))
            }
            "steepness" => {
                let (tok, span) = self.next("`all` or `any`")?;
                let universal = match tok {
                    Tok::Word(w) if w == "all" => true,
                    Tok::Word(w) if w == "any" => false,
                    other => {
                        return Err(SaqlError::new(
                            format!("`steepness` expects `all` or `any`, got {}", other.describe()),
                            span,
                        ))
                    }
                };
                self.expect(Tok::Ge, "`>=`")?;
                let steepness = self.float("a steepness")?;
                let slack = if self.eat_word("slack") { self.float("a slack")? } else { 0.0 };
                Ok(QueryExpr::feature(if universal {
                    QuerySpec::MinPeakSteepness { steepness, slack }
                } else {
                    QuerySpec::HasSteepPeak { steepness, slack }
                }))
            }
            "id" => {
                if !self.eat_word("in") {
                    let span = self.peek_with_span().map_or(self.eof_span(), |(_, s)| s);
                    return Err(SaqlError::new("`id` expects `in [lo..hi]`", span));
                }
                self.expect(Tok::LBracket, "`[`")?;
                let lo_span = self.peek_with_span().map_or(self.eof_span(), |(_, s)| s);
                let lo = self.uint("a lower id bound")?;
                self.expect(Tok::DotDot, "`..`")?;
                let hi_span = self.peek_with_span().map_or(self.eof_span(), |(_, s)| s);
                let hi = self.uint("an upper id bound")?;
                self.expect(Tok::RBracket, "`]`")?;
                if lo > hi {
                    return Err(SaqlError::new(
                        format!(
                            "reversed id range: lower bound {lo} exceeds upper bound {hi} \
                             (did you mean `[{hi}..{lo}]`?)"
                        ),
                        Span::new(lo_span.start, hi_span.end),
                    ));
                }
                Ok(QueryExpr::id_range(lo, hi))
            }
            "band" => self.band(),
            other => Err(SaqlError::new(
                format!(
                    "unknown clause `{other}` (expected `shape`, `peaks`, `interval`, \
                     `steepness`, `id`, `band`, `not`, or `(`)"
                ),
                span,
            )),
        }
    }

    /// `band '[' [ t ':' v { ',' t ':' v } ] ']' 'delta' FLOAT [ 'slack' FLOAT ]`
    fn band(&mut self) -> PResult<QueryExpr> {
        let open = self.expect(Tok::LBracket, "`[`")?;
        let mut points = Vec::new();
        if !matches!(self.peek(), Some(Tok::RBracket)) {
            loop {
                let t = self.float("a timestamp")?;
                self.expect(Tok::Colon, "`:`")?;
                let v = self.float("a value")?;
                points.push(Point::new(t, v));
                if !matches!(self.peek(), Some(Tok::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let close = self.expect(Tok::RBracket, "`]` or `,`")?;
        let query = Sequence::new(points).map_err(|e| {
            SaqlError::new(format!("invalid band samples: {e}"), Span::new(open.start, close.end))
        })?;
        if !self.eat_word("delta") {
            let span = self.peek_with_span().map_or(self.eof_span(), |(_, s)| s);
            return Err(SaqlError::new("`band` expects `delta <width>` after its samples", span));
        }
        let delta = self.float("a delta")?;
        let slack = if self.eat_word("slack") { self.float("a slack")? } else { 0.0 };
        Ok(QueryExpr::value_band(query, delta, slack))
    }

    /// A non-negative integer, parsed from the raw lexeme at full `u64`
    /// precision (so id bounds survive beyond 2⁵³).
    fn uint(&mut self, what: &str) -> PResult<u64> {
        let (tok, span) = self.next(what)?;
        match tok {
            Tok::Number(raw) => raw.parse::<u64>().map_err(|e| {
                let msg = if *e.kind() == std::num::IntErrorKind::PosOverflow {
                    format!("integer `{raw}` for {what} exceeds the maximum ({})", u64::MAX)
                } else {
                    format!("expected a non-negative integer for {what}, got `{raw}`")
                };
                SaqlError::new(msg, span)
            }),
            other => Err(SaqlError::new(
                format!("expected {what} (a non-negative integer), got {}", other.describe()),
                span,
            )),
        }
    }

    fn int(&mut self, what: &str) -> PResult<i64> {
        let (tok, span) = self.next(what)?;
        match tok {
            Tok::Number(raw) => raw.parse::<i64>().map_err(|e| {
                let msg = match e.kind() {
                    std::num::IntErrorKind::PosOverflow | std::num::IntErrorKind::NegOverflow => {
                        format!(
                            "integer `{raw}` for {what} is outside the supported range \
                             ({}..={})",
                            i64::MIN,
                            i64::MAX
                        )
                    }
                    _ => format!("expected an integer for {what}, got `{raw}`"),
                };
                SaqlError::new(msg, span)
            }),
            other => Err(SaqlError::new(
                format!("expected {what} (an integer), got {}", other.describe()),
                span,
            )),
        }
    }

    fn float(&mut self, what: &str) -> PResult<f64> {
        let (tok, span) = self.next(what)?;
        match tok {
            Tok::Number(raw) => match raw.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(SaqlError::new(
                    format!("expected a finite number for {what}, got `{raw}`"),
                    span,
                )),
            },
            other => Err(SaqlError::new(
                format!("expected {what} (a number), got {}", other.describe()),
                span,
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Unparser
// ---------------------------------------------------------------------------

/// Renders an expression as SAQL text such that parsing it back yields a
/// structurally identical tree (`parse(print(e)) == e`).
///
/// Errors on the shapes no query can denote: empty `And`/`Or` operand
/// lists (which every planner rejects too), shape patterns containing a
/// `"` (the string syntax has no escapes), and non-finite numeric
/// parameters (the parser only accepts finite numbers; leaf validation
/// rejects them at plan time anyway). Single-operand `And`/`Or` wrappers
/// print as their operand — the one lossy case, and a plan-neutral one
/// (normalization unwraps them).
pub fn print(expr: &QueryExpr) -> Result<String> {
    let mut out = String::new();
    fmt_expr(expr, &mut out, 0)?;
    Ok(out)
}

impl QueryExpr {
    /// Renders this expression as SAQL text (see [`print()`]).
    pub fn to_saql(&self) -> Result<String> {
        print(self)
    }
}

/// Binding strength: truncations (0) < `or` (1) < `and` (2) < `not` (3) <
/// atoms (4). A node prints parenthesized whenever its own level is below
/// what its context requires.
fn level(expr: &QueryExpr) -> usize {
    match expr {
        QueryExpr::Limit(..) | QueryExpr::TopK(..) => 0,
        QueryExpr::Or(cs) if cs.len() != 1 => 1,
        QueryExpr::And(cs) if cs.len() != 1 => 2,
        // Single-operand wrappers print as their operand.
        QueryExpr::Or(cs) | QueryExpr::And(cs) => level(&cs[0]),
        QueryExpr::Not(_) => 3,
        QueryExpr::Leaf(_) => 4,
    }
}

fn fmt_expr(expr: &QueryExpr, out: &mut String, min_level: usize) -> Result<()> {
    if level(expr) < min_level {
        out.push('(');
        fmt_expr(expr, out, 0)?;
        out.push(')');
        return Ok(());
    }
    match expr {
        QueryExpr::Leaf(pred) => fmt_leaf(pred, out),
        QueryExpr::And(children) | QueryExpr::Or(children) => {
            let (joiner, child_level) =
                if matches!(expr, QueryExpr::And(_)) { (" and ", 3) } else { (" or ", 2) };
            match children.as_slice() {
                [] => Err(Error::BadConfig(
                    "cannot print an `And`/`Or` with no operands as SAQL".into(),
                )),
                [only] => fmt_expr(only, out, min_level),
                many => {
                    for (i, child) in many.iter().enumerate() {
                        if i > 0 {
                            out.push_str(joiner);
                        }
                        fmt_expr(child, out, child_level)?;
                    }
                    Ok(())
                }
            }
        }
        QueryExpr::Not(child) => {
            out.push_str("not ");
            fmt_expr(child, out, 3)
        }
        QueryExpr::Limit(child, n) => {
            fmt_expr(child, out, 0)?;
            let _ = write!(out, " limit {n}");
            Ok(())
        }
        QueryExpr::TopK(child, k) => {
            fmt_expr(child, out, 0)?;
            let _ = write!(out, " topk {k}");
            Ok(())
        }
    }
}

fn fmt_leaf(pred: &Pred, out: &mut String) -> Result<()> {
    match pred {
        Pred::Feature(QuerySpec::Shape { pattern }) => {
            if pattern.contains('"') {
                return Err(Error::BadConfig(format!(
                    "shape pattern {pattern:?} contains `\"`, which SAQL strings cannot escape"
                )));
            }
            let _ = write!(out, "shape \"{pattern}\"");
        }
        Pred::Feature(QuerySpec::PeakCount { count, tolerance }) => {
            let _ = write!(out, "peaks = {count}");
            if *tolerance != 0 {
                let _ = write!(out, " tol {tolerance}");
            }
        }
        Pred::Feature(QuerySpec::PeakInterval { interval, epsilon }) => {
            let _ = write!(out, "interval = {interval}");
            if *epsilon != 0 {
                let _ = write!(out, " tol {epsilon}");
            }
        }
        Pred::Feature(QuerySpec::MinPeakSteepness { steepness, slack }) => {
            let _ = write!(out, "steepness all >= {}", finite(*steepness, "steepness")?);
            if *slack != 0.0 {
                let _ = write!(out, " slack {}", finite(*slack, "slack")?);
            }
        }
        Pred::Feature(QuerySpec::HasSteepPeak { steepness, slack }) => {
            let _ = write!(out, "steepness any >= {}", finite(*steepness, "steepness")?);
            if *slack != 0.0 {
                let _ = write!(out, " slack {}", finite(*slack, "slack")?);
            }
        }
        Pred::IdRange { lo, hi } => {
            let _ = write!(out, "id in [{lo}..{hi}]");
        }
        Pred::ValueBand { query, delta, slack } => {
            // Band samples are finite by `Sequence`'s construction
            // invariant; only the parameters need checking.
            out.push_str("band [");
            for (i, p) in query.points().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}:{}", p.t, p.v);
            }
            let _ = write!(out, "] delta {}", finite(*delta, "delta")?);
            if *slack != 0.0 {
                let _ = write!(out, " slack {}", finite(*slack, "slack")?);
            }
        }
    }
    Ok(())
}

/// SAQL numbers must be finite (the parser rejects `nan`/`inf`), so
/// printing a non-finite parameter would silently produce unparseable
/// text — error instead, per [`print()`]'s contract.
fn finite(v: f64, what: &str) -> Result<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(Error::BadConfig(format!("cannot print non-finite {what} ({v}) as SAQL")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{IndexCaps, QueryEngine as _, StoreEngine};
    use crate::store::{SequenceStore, StoreConfig};
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    const GOALPOST: &str = "0* 1+ (-1)+ 0* 1+ (-1)+ 0*";

    fn roundtrip(expr: &QueryExpr) {
        let text = print(expr).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(&back, expr, "round-trip through `{text}`");
    }

    #[test]
    fn parses_every_leaf_kind() {
        for (text, expect) in [
            ("shape \"1+ (-1)+\"", QueryExpr::shape("1+ (-1)+")),
            ("peaks = 2 tol 1", QueryExpr::peak_count(2, 1)),
            ("PEAKS = 2", QueryExpr::peak_count(2, 0)),
            ("interval = -3 tol 2", QueryExpr::peak_interval(-3, 2)),
            ("steepness all >= 2.5 slack 0.25", QueryExpr::min_steepness(2.5, 0.25)),
            ("steepness any >= 5", QueryExpr::has_steep_peak(5.0, 0.0)),
            ("id in [3..17]", QueryExpr::id_range(3, 17)),
            (
                "band [0:98.6, 1:101.5, 2.5:-7] delta 0.5 slack 1",
                QueryExpr::value_band(
                    Sequence::new(vec![
                        Point::new(0.0, 98.6),
                        Point::new(1.0, 101.5),
                        Point::new(2.5, -7.0),
                    ])
                    .unwrap(),
                    0.5,
                    1.0,
                ),
            ),
            ("band [] delta 1", QueryExpr::value_band(Sequence::new(vec![]).unwrap(), 1.0, 0.0)),
        ] {
            assert_eq!(parse_spanned(text).unwrap(), expect, "`{text}`");
        }
    }

    #[test]
    fn precedence_and_parens() {
        // `or` looser than `and`, `not` tighter than both, truncations loosest.
        let a = || QueryExpr::peak_count(1, 0);
        let b = || QueryExpr::peak_count(2, 0);
        let c = || QueryExpr::peak_count(3, 0);
        assert_eq!(
            parse_spanned("peaks = 1 or peaks = 2 and peaks = 3").unwrap(),
            a().or(b().and(c())),
        );
        assert_eq!(
            parse_spanned("(peaks = 1 or peaks = 2) and peaks = 3").unwrap(),
            a().or(b()).and(c()),
        );
        assert_eq!(parse_spanned("not peaks = 1 and peaks = 2").unwrap(), a().negate().and(b()),);
        assert_eq!(parse_spanned("not (peaks = 1 and peaks = 2)").unwrap(), a().and(b()).negate(),);
        assert_eq!(
            parse_spanned("peaks = 1 and peaks = 2 limit 3").unwrap(),
            a().and(b()).limit(3),
        );
        assert_eq!(
            parse_spanned("(peaks = 1 limit 3) or peaks = 2").unwrap(),
            a().limit(3).or(b()),
        );
        assert_eq!(parse_spanned("peaks = 1 limit 3 topk 2").unwrap(), a().limit(3).top_k(2),);
    }

    #[test]
    fn flat_chains_parse_as_flat_nodes() {
        // `a and b and c` must build And([a, b, c]), exactly like the
        // chained constructor, so printed trees re-parse identically.
        let expr = parse_spanned("peaks = 1 and peaks = 2 and peaks = 3").unwrap();
        assert_eq!(
            expr,
            QueryExpr::peak_count(1, 0)
                .and(QueryExpr::peak_count(2, 0))
                .and(QueryExpr::peak_count(3, 0))
        );
        match &expr {
            QueryExpr::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn double_negation_is_preserved() {
        // `Not` flattens tiers, so `not not x` must keep both nodes.
        let expr = parse_spanned("not not peaks = 2").unwrap();
        assert_eq!(expr, QueryExpr::peak_count(2, 0).negate().negate());
        roundtrip(&expr);
    }

    #[test]
    fn deeply_nested_parens_parse_up_to_the_depth_cap() {
        let deep = |n: usize| format!("{}peaks = 1{}", "(".repeat(n), ")".repeat(n));
        let ok = parse_spanned(&deep(100)).unwrap();
        assert_eq!(ok, QueryExpr::peak_count(1, 0));
        let err = parse_spanned(&deep(MAX_DEPTH + 8)).unwrap_err();
        assert!(err.message().contains("nested deeper"), "{err}");
    }

    #[test]
    fn limit_zero_and_topk_zero_parse_and_run() {
        let (store, _) = corpus();
        for text in ["peaks = 2 limit 0", "peaks = 2 topk 0"] {
            let expr = parse_spanned(text).unwrap();
            roundtrip(&expr);
            let out = StoreEngine::new(&store).execute(&expr).unwrap();
            assert!(out.exact.is_empty() && out.approximate.is_empty(), "`{text}` -> {out:?}");
        }
    }

    #[test]
    fn malformed_inputs_error_with_useful_spans() {
        for (text, needle) in [
            ("", "empty query"),
            ("   # only a comment", "empty query"),
            ("peaks = 12.3.4", "malformed number"),
            ("peaks = 1x", "malformed number"),
            ("peaks = -", "unexpected character `-`"),
            ("peaks = 2.5", "non-negative integer"),
            ("peaks = -2", "non-negative integer"),
            ("steepness all >= 1e999", "finite number"),
            ("peaks = 2 limit", "got end of input"),
            ("(peaks = 2", "expected `)`"),
            ("peaks = 2)", "end of input, got `)`"),
            ("id in [5..]", "expected an upper id bound"),
            ("id [5..9]", "`id` expects `in"),
            ("band [0:1] slack 2", "expects `delta"),
            ("band [1:0, 0:1] delta 1", "invalid band samples"),
            ("shape 'x'", "unexpected character `'`"),
            (r#"shape "unterminated"#, "unterminated string"),
            ("bogus = 1", "unknown clause `bogus`"),
            ("peaks = 2 peaks = 3", "expected `and`, `or`, `limit`, `topk`"),
            ("id in [9..5]", "reversed id range: lower bound 9 exceeds upper bound 5"),
            ("id in [18446744073709551616..5]", "exceeds the maximum (18446744073709551615)"),
            ("peaks = 99999999999999999999", "exceeds the maximum"),
            ("interval = 99999999999999999999", "outside the supported range"),
        ] {
            let err = parse_spanned(text).unwrap_err();
            assert!(err.message().contains(needle), "`{text}` -> `{}`", err.message());
            // Every span lies inside the source (or is the EOF marker).
            assert!(err.span().start <= err.span().end && err.span().end <= text.len().max(1));
        }
    }

    #[test]
    fn caret_diagnostics_point_at_the_offending_token() {
        let text = "peaks 2 and interval = 8";
        let err = parse_spanned(text).unwrap_err();
        let rendered = err.render(text);
        assert!(rendered.contains("expected `=`"), "{rendered}");
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(caret_line, "  |       ^", "{rendered}");

        // Multi-line sources point at the right line.
        let text = "peaks = 2\nand bogus = 1";
        let err = parse_spanned(text).unwrap_err();
        let rendered = err.render(text);
        assert!(rendered.contains("| and bogus = 1"), "{rendered}");
        assert!(rendered.lines().last().unwrap().contains("^^^^^"), "{rendered}");
    }

    #[test]
    fn numeric_edge_cases_point_at_the_literal() {
        // A reversed range underlines the whole `lo..hi` region and
        // suggests the swapped form.
        let text = "id in [9..5]";
        let err = parse_spanned(text).unwrap_err();
        let rendered = err.render(text);
        assert!(rendered.contains("did you mean `[5..9]`?"), "{rendered}");
        assert_eq!(rendered.lines().last().unwrap(), "  |        ^^^^", "{rendered}");

        // An oversized literal underlines exactly that literal; equal
        // bounds and the extremes stay accepted.
        let text = "id in [0..18446744073709551616]";
        let err = parse_spanned(text).unwrap_err();
        assert_eq!(&text[err.span().start..err.span().end], "18446744073709551616");
        assert_eq!(parse("id in [7..7]").unwrap(), QueryExpr::id_range(7, 7));
        assert_eq!(
            parse("id in [0..18446744073709551615]").unwrap(),
            QueryExpr::id_range(0, u64::MAX)
        );
    }

    #[test]
    fn print_round_trips_compound_expressions() {
        let band = QueryExpr::value_band(
            Sequence::from_samples(&[98.6, 101.5, 98.4]).unwrap(),
            0.75,
            0.25,
        );
        let exprs = [
            QueryExpr::shape(GOALPOST).and(QueryExpr::peak_interval(10, 3)).top_k(5),
            QueryExpr::peak_count(2, 1)
                .or(QueryExpr::peak_count(3, 0))
                .and(QueryExpr::id_range(0, 99).negate()),
            QueryExpr::peak_count(1, 0).limit(3).or(QueryExpr::has_steep_peak(1.0, 0.3).limit(2)),
            QueryExpr::min_steepness(0.5, 0.125).negate().negate(),
            band.clone().and(QueryExpr::peak_count(2, 0)).limit(4).top_k(2),
            QueryExpr::And(vec![
                QueryExpr::peak_count(1, 0).and(QueryExpr::peak_count(2, 0)),
                QueryExpr::peak_count(3, 0),
            ]),
            QueryExpr::id_range(0, u64::MAX),
        ];
        for expr in &exprs {
            roundtrip(expr);
        }
        // Spot-check rendering shapes.
        assert_eq!(
            exprs[1].to_saql().unwrap(),
            "(peaks = 2 tol 1 or peaks = 3) and not id in [0..99]"
        );
        assert_eq!(
            exprs[5].to_saql().unwrap(),
            "(peaks = 1 and peaks = 2) and peaks = 3",
            "nested And keeps its structure via parens"
        );
    }

    #[test]
    fn print_rejects_undenotable_shapes() {
        assert!(print(&QueryExpr::And(vec![])).is_err());
        assert!(print(&QueryExpr::Or(vec![])).is_err());
        assert!(print(&QueryExpr::shape("say \"hi\"")).is_err());
        // Non-finite parameters would print as text the parser rejects.
        assert!(print(&QueryExpr::min_steepness(f64::NAN, 0.0)).is_err());
        assert!(print(&QueryExpr::has_steep_peak(1.0, f64::INFINITY)).is_err());
        assert!(print(&QueryExpr::value_band(
            Sequence::from_samples(&[1.0]).unwrap(),
            f64::NEG_INFINITY,
            0.0
        ))
        .is_err());
        // Single-operand wrappers are plan-neutral and print as the child.
        let single = QueryExpr::And(vec![QueryExpr::peak_count(1, 0)]);
        assert_eq!(print(&single).unwrap(), "peaks = 1");
    }

    fn corpus() -> (SequenceStore, Vec<u64>) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        for seq in [
            peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }),
            goalpost(GoalpostSpec::default()),
            peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() }),
        ] {
            ids.push(store.insert(&seq).unwrap());
        }
        (store, ids)
    }

    #[test]
    fn parse_and_plan_surfaces_plan_errors() {
        let planner = Planner::new(IndexCaps::all());
        // Parses fine, but the pattern is invalid — planning must fail.
        assert!(parse_and_plan("shape \"((\"", &planner).is_err());
        // Inverted id ranges parse but fail validation.
        assert!(parse_and_plan("id in [9..2]", &planner).is_err());
    }
}
