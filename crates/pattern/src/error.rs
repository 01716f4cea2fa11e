use std::fmt;

/// Errors from alphabet construction, parsing and encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The alphabet was empty or contained duplicate symbols.
    BadAlphabet(String),
    /// A character outside the alphabet appeared in input text.
    UnknownSymbol {
        /// The offending character.
        ch: char,
    },
    /// Pattern syntax error.
    Syntax {
        /// Byte offset in the pattern string.
        position: usize,
        /// Description.
        message: String,
    },
    /// The pattern's DFA would need more than `limit` states
    /// ([`crate::MAX_DFA_STATES`]).
    TooManyStates {
        /// The state cap.
        limit: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadAlphabet(msg) => write!(f, "bad alphabet: {msg}"),
            Error::UnknownSymbol { ch } => write!(f, "unknown symbol `{ch}`"),
            Error::Syntax { position, message } => {
                write!(f, "pattern syntax error at {position}: {message}")
            }
            Error::TooManyStates { limit } => {
                write!(f, "pattern needs more than {limit} DFA states")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::BadAlphabet("dup".into()).to_string().contains("dup"));
        assert!(Error::UnknownSymbol { ch: 'z' }.to_string().contains('z'));
        assert!(Error::Syntax { position: 3, message: "eh".into() }.to_string().contains('3'));
        assert!(Error::TooManyStates { limit: 7 }.to_string().contains('7'));
    }
}
