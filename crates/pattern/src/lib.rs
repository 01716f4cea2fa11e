//! # saq-pattern
//!
//! A small regular-expression engine over *symbolic alphabets* — the query
//! side of §4.4. The paper poses the goal-post fever query as the regular
//! expression `0* 1+ (-1)+ 0* 1+ (-1)+ 0*` over the slope-sign alphabet
//! `{+1, 0, -1}`; this crate supplies the pattern language and matching
//! machinery (Thompson NFA → subset-construction DFA, capped at
//! [`MAX_DFA_STATES`]) that `saq-core` and `saq-index` build on.
//!
//! The engine is deliberately generic over any alphabet of up to 255
//! single-`char` symbols; `saq-core::alphabet` instantiates it for slope
//! signs.
//!
//! ```
//! use saq_pattern::{Alphabet, Regex};
//!
//! let ab = Alphabet::new(&['u', 'd', 'f']).unwrap();
//! let re = Regex::parse("f* u+ d+ f* u+ d+ f*", &ab).unwrap();
//! let dfa = re.compile();
//! let two_peaks: Vec<u8> = ab.encode("uuddfudd").unwrap();
//! assert!(dfa.is_match(&two_peaks));
//! let one_peak: Vec<u8> = ab.encode("uudd").unwrap();
//! assert!(!dfa.is_match(&one_peak));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alphabet;
mod ast;
mod dfa;
mod error;
mod nfa;
mod parser;

pub use alphabet::Alphabet;
pub use ast::Ast;
pub use dfa::{Dfa, Match, MAX_DFA_STATES};
pub use error::{Error, Result};
pub use nfa::Nfa;
pub use parser::Regex;
