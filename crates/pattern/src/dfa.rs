//! Deterministic automaton via subset construction, plus scanning helpers.
//!
//! The index of §4.4 answers "positions of the first point of all stored
//! sequences that match the pattern" — [`Dfa::find_matches`] provides that
//! scan over a symbol string.

use crate::error::{Error, Result};
use crate::nfa::Nfa;
use std::collections::HashMap;

/// The most states a pattern's DFA may have. Subset construction can
/// blow up exponentially — `(u|d|f)* u` followed by `k` more `(u|d|f)`
/// groups needs `3·2^k + 1` states — so a cap bounds what one pattern
/// can cost its caller. Every shipped pattern needs a few dozen states
/// at most; the goal-post pattern needs 8.
pub const MAX_DFA_STATES: usize = 4096;

/// A match occurrence inside a symbol string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Start offset (inclusive).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl Match {
    /// Length of the matched run.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A dense-table DFA over alphabet ids `0..alphabet_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    /// `transitions[state * alphabet_size + symbol]`, `usize::MAX` = dead.
    transitions: Vec<usize>,
    accepting: Vec<bool>,
    alphabet_size: usize,
    start: usize,
}

const DEAD: usize = usize::MAX;

impl Dfa {
    /// Subset construction from a Thompson NFA; refuses, with
    /// [`Error::TooManyStates`], a pattern whose DFA would exceed
    /// [`MAX_DFA_STATES`].
    pub fn from_nfa(nfa: &Nfa, alphabet_size: usize) -> Result<Dfa> {
        let start_set = nfa.epsilon_closure(&[nfa.start]);
        let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        let mut transitions: Vec<usize> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();

        ids.insert(start_set.clone(), 0);
        sets.push(start_set);
        let mut next_unprocessed = 0;

        while next_unprocessed < sets.len() {
            let current = sets[next_unprocessed].clone();
            next_unprocessed += 1;
            accepting.push(current.contains(&nfa.accept));
            let base = transitions.len();
            transitions.resize(base + alphabet_size, DEAD);
            for sym in 0..alphabet_size {
                let mut moved: Vec<usize> = Vec::new();
                for &s in &current {
                    for &(edge_sym, t) in &nfa.states[s].on_symbol {
                        if edge_sym as usize == sym {
                            moved.push(t);
                        }
                    }
                }
                if moved.is_empty() {
                    continue;
                }
                let closure = nfa.epsilon_closure(&moved);
                let id = match ids.get(&closure) {
                    Some(&id) => id,
                    None if sets.len() == MAX_DFA_STATES => {
                        return Err(Error::TooManyStates { limit: MAX_DFA_STATES });
                    }
                    None => {
                        ids.insert(closure.clone(), sets.len());
                        sets.push(closure);
                        sets.len() - 1
                    }
                };
                transitions[base + sym] = id;
            }
        }

        Ok(Dfa { transitions, accepting, alphabet_size, start: 0 })
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    #[inline]
    fn step(&self, state: usize, sym: u8) -> usize {
        debug_assert!((sym as usize) < self.alphabet_size, "symbol outside alphabet");
        self.transitions[state * self.alphabet_size + sym as usize]
    }

    /// Does the DFA accept exactly `input`?
    pub fn is_match(&self, input: &[u8]) -> bool {
        let mut state = self.start;
        for &sym in input {
            state = self.step(state, sym);
            if state == DEAD {
                return false;
            }
        }
        self.accepting[state]
    }

    /// Longest match starting at `start`, if any (possibly empty when the
    /// pattern is nullable).
    pub fn longest_match_at(&self, input: &[u8], start: usize) -> Option<Match> {
        let mut state = self.start;
        let mut best_end: Option<usize> = if self.accepting[state] { Some(start) } else { None };
        let mut pos = start;
        while pos < input.len() {
            state = self.step(state, input[pos]);
            if state == DEAD {
                break;
            }
            pos += 1;
            if self.accepting[state] {
                best_end = Some(pos);
            }
        }
        best_end.map(|end| Match { start, end })
    }

    /// All leftmost-longest, non-overlapping, non-empty matches.
    pub fn find_matches(&self, input: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < input.len() {
            match self.longest_match_at(input, pos) {
                Some(m) if !m.is_empty() => {
                    out.push(m);
                    pos = m.end;
                }
                _ => pos += 1,
            }
        }
        out
    }

    /// Start offsets of *all* (possibly overlapping) non-empty matches — the
    /// "positions of the first point" view the paper's index uses.
    pub fn match_starts(&self, input: &[u8]) -> Vec<usize> {
        (0..input.len())
            .filter(|&i| self.longest_match_at(input, i).is_some_and(|m| !m.is_empty()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::parser::Regex;

    fn dfa(pattern: &str) -> Dfa {
        let ab = Alphabet::new(&['u', 'd', 'f']).unwrap();
        Regex::parse(pattern, &ab).unwrap().compile().clone()
    }

    fn enc(text: &str) -> Vec<u8> {
        Alphabet::new(&['u', 'd', 'f']).unwrap().encode(text).unwrap()
    }

    #[test]
    fn agrees_with_nfa_on_goalpost() {
        let ab = Alphabet::new(&['u', 'd', 'f']).unwrap();
        let re = Regex::parse("f* u+ d+ f* u+ d+ f*", &ab).unwrap();
        let nfa = re.to_nfa();
        let dfa = re.compile();
        for text in ["uddud", "uudd", "fuudddffuddff", "", "ud", "ududud", "fff"] {
            let ids = ab.encode(text).unwrap();
            assert_eq!(nfa.is_match(&ids), dfa.is_match(&ids), "text {text}");
        }
    }

    #[test]
    fn two_peak_semantics() {
        let d = dfa("f* u+ d+ f* u+ d+ f*");
        assert!(d.is_match(&enc("uuddfudd")));
        assert!(d.is_match(&enc("udud")));
        assert!(!d.is_match(&enc("ud")), "one peak");
        assert!(!d.is_match(&enc("ududud")), "three peaks");
        assert!(!d.is_match(&enc("")), "no peaks");
    }

    #[test]
    fn longest_match_prefers_length() {
        let d = dfa("u+");
        let input = enc("uuudu");
        let m = d.longest_match_at(&input, 0).unwrap();
        assert_eq!((m.start, m.end), (0, 3));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn longest_match_none_when_dead() {
        let d = dfa("u");
        assert_eq!(d.longest_match_at(&enc("d"), 0), None);
    }

    #[test]
    fn nullable_pattern_gives_empty_match() {
        let d = dfa("u*");
        let m = d.longest_match_at(&enc("d"), 0).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn find_matches_non_overlapping() {
        let d = dfa("ud");
        let ms = d.find_matches(&enc("udfudud"));
        assert_eq!(
            ms,
            vec![
                Match { start: 0, end: 2 },
                Match { start: 3, end: 5 },
                Match { start: 5, end: 7 }
            ]
        );
    }

    #[test]
    fn match_starts_allows_overlap() {
        let d = dfa("u d? u?");
        let starts = d.match_starts(&enc("uud"));
        assert_eq!(starts, vec![0, 1]);
    }

    #[test]
    fn peak_scan_on_slope_string() {
        // A "peak" is u+ d+ — scan an ECG-like slope string.
        let d = dfa("u+ d+");
        let ms = d.find_matches(&enc("ffuudfffuddff"));
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0], Match { start: 2, end: 5 });
        assert_eq!(ms[1], Match { start: 8, end: 11 });
    }

    #[test]
    fn dfa_is_small_for_simple_patterns() {
        assert!(dfa("u+d+").state_count() <= 8);
    }

    /// `(u|d|f)* u` followed by `groups` more `(u|d|f)`: `3·2^groups + 1`
    /// DFA states.
    fn blowup(groups: usize) -> String {
        format!("(u|d|f)* u{}", " (u|d|f)".repeat(groups))
    }

    #[test]
    fn shipped_patterns_fit_under_the_state_cap() {
        // The six shape templates the benchmark generator draws from
        // (`benchmark/src/gen.rs`); the first is the goal-post query.
        for pattern in [
            "f* u+ d+ f* u+ d+ f*",
            "f* u+ d+ f*",
            "u+ d+ f* u+ d+ f* u+ d+",
            "f+",
            "f* (u|d) f*",
            "f* u+ d+ (u|d|f)*",
        ] {
            assert!(dfa(pattern).state_count() < MAX_DFA_STATES / 100, "{pattern}");
        }
        assert_eq!(dfa("f* u+ d+ f* u+ d+ f*").state_count(), 8);
        // The largest blowup under the cap still compiles; one more group
        // is refused.
        assert_eq!(dfa(&blowup(10)).state_count(), 3 * (1 << 10) + 1);
        let ab = Alphabet::new(&['u', 'd', 'f']).unwrap();
        let refused = Regex::parse(&blowup(11), &ab).unwrap_err();
        assert_eq!(refused, Error::TooManyStates { limit: MAX_DFA_STATES });
    }
}
