//! Recursive-descent parser for the pattern language.
//!
//! Grammar (whitespace between tokens is ignored):
//!
//! ```text
//! alt    := concat ('|' concat)*
//! concat := repeat+
//! repeat := atom ('*' | '+' | '?')*
//! atom   := SYMBOL | '(' alt ')'
//! ```
//!
//! `SYMBOL` is any single character belonging to the [`Alphabet`]. The
//! paper's `(-1)` notation for the Down symbol is handled by
//! `saq-core::alphabet::parse_slope_pattern`, which rewrites it into a
//! single-character symbol before calling this parser.

use crate::alphabet::Alphabet;
use crate::ast::Ast;
use crate::dfa::Dfa;
use crate::error::{Error, Result};
use crate::nfa::Nfa;

/// A parsed pattern together with its [`Dfa`], built once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regex {
    ast: Ast,
    dfa: Dfa,
}

impl Regex {
    /// Parses `pattern` over `alphabet` and builds its DFA; a pattern whose
    /// DFA would exceed [`crate::MAX_DFA_STATES`] is refused with
    /// [`Error::TooManyStates`].
    pub fn parse(pattern: &str, alphabet: &Alphabet) -> Result<Regex> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = Parser { chars: &chars, pos: 0, alphabet };
        p.skip_ws();
        if p.at_end() {
            return Regex::from_ast(Ast::Epsilon, alphabet.len());
        }
        let ast = p.parse_alt()?;
        p.skip_ws();
        if !p.at_end() {
            return Err(Error::Syntax {
                position: p.pos,
                message: format!("unexpected `{}`", p.chars[p.pos]),
            });
        }
        Regex::from_ast(ast, alphabet.len())
    }

    /// Builds a regex and its DFA directly from an AST, under the same
    /// state cap as [`Regex::parse`].
    pub fn from_ast(ast: Ast, alphabet_size: usize) -> Result<Regex> {
        let dfa = Dfa::from_nfa(&Nfa::from_ast(&ast), alphabet_size)?;
        Ok(Regex { ast, dfa })
    }

    /// The underlying AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// Compiles to a Thompson NFA.
    pub fn to_nfa(&self) -> Nfa {
        Nfa::from_ast(&self.ast)
    }

    /// The pattern's DFA, built by subset construction when the regex
    /// was made.
    pub fn compile(&self) -> &Dfa {
        &self.dfa
    }
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
    alphabet: &'a Alphabet,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_alt(&mut self) -> Result<Ast> {
        let mut node = self.parse_concat()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.pos += 1;
                let rhs = self.parse_concat()?;
                node = Ast::Alt(Box::new(node), Box::new(rhs));
            } else {
                return Ok(node);
            }
        }
    }

    fn parse_concat(&mut self) -> Result<Ast> {
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => parts.push(self.parse_repeat()?),
            }
        }
        if parts.is_empty() {
            return Err(Error::Syntax { position: self.pos, message: "empty branch".into() });
        }
        Ok(Ast::concat_all(parts))
    }

    fn parse_repeat(&mut self) -> Result<Ast> {
        let mut node = self.parse_atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    node = Ast::Star(Box::new(node));
                }
                Some('+') => {
                    self.pos += 1;
                    node = Ast::Plus(Box::new(node));
                }
                Some('?') => {
                    self.pos += 1;
                    node = Ast::Optional(Box::new(node));
                }
                _ => return Ok(node),
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Ast> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_alt()?;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return Err(Error::Syntax {
                        position: self.pos,
                        message: "expected `)`".into(),
                    });
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) => match self.alphabet.id_of(c) {
                Some(id) => {
                    self.pos += 1;
                    Ok(Ast::Symbol(id))
                }
                None => Err(Error::Syntax {
                    position: self.pos,
                    message: format!("`{c}` is not in the alphabet"),
                }),
            },
            None => Err(Error::Syntax { position: self.pos, message: "unexpected end".into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(&['u', 'd', 'f']).unwrap()
    }

    #[test]
    fn parses_symbols_and_concat() {
        let r = Regex::parse("ud", &ab()).unwrap();
        assert_eq!(*r.ast(), Ast::Concat(Box::new(Ast::Symbol(0)), Box::new(Ast::Symbol(1))));
    }

    #[test]
    fn whitespace_ignored() {
        let a = Regex::parse("u d f", &ab()).unwrap();
        let b = Regex::parse("udf", &ab()).unwrap();
        assert_eq!(a.ast(), b.ast());
    }

    #[test]
    fn repetition_binds_tighter_than_concat() {
        let r = Regex::parse("ud*", &ab()).unwrap();
        assert_eq!(
            *r.ast(),
            Ast::Concat(Box::new(Ast::Symbol(0)), Box::new(Ast::Star(Box::new(Ast::Symbol(1)))))
        );
    }

    #[test]
    fn alternation_lowest_precedence() {
        let r = Regex::parse("u|df", &ab()).unwrap();
        match r.ast() {
            Ast::Alt(l, _) => assert_eq!(**l, Ast::Symbol(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn groups_and_stacked_operators() {
        let r = Regex::parse("(ud)+?", &ab()).unwrap();
        match r.ast() {
            Ast::Optional(inner) => match &**inner {
                Ast::Plus(_) => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_is_epsilon() {
        let r = Regex::parse("   ", &ab()).unwrap();
        assert_eq!(*r.ast(), Ast::Epsilon);
    }

    #[test]
    fn error_positions() {
        assert!(matches!(Regex::parse("u(d", &ab()), Err(Error::Syntax { .. })));
        assert!(matches!(Regex::parse("uz", &ab()), Err(Error::Syntax { position: 1, .. })));
        assert!(matches!(Regex::parse("|u", &ab()), Err(Error::Syntax { .. })));
        assert!(matches!(Regex::parse("u)", &ab()), Err(Error::Syntax { .. })));
    }

    #[test]
    fn goalpost_pattern_parses() {
        let r = Regex::parse("f* u+ d+ f* u+ d+ f*", &ab());
        assert!(r.is_ok());
    }
}
