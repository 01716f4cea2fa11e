//! The slope-pattern index of §4.4.
//!
//! Stored sequences are kept as strings over the slope-sign alphabet; a
//! query pattern compiles to a DFA and the index returns, per sequence, the
//! positions where matches begin ("by using the index we get the positions
//! of the first point of all stored sequences that match that pattern").
//!
//! A 1-gram occurrence table accelerates scans: sequences lacking some
//! symbol that every match must contain are skipped without running the
//! DFA.

use crate::stats::{required_symbols, PatternStats};
use saq_pattern::{Dfa, Regex};
use std::collections::HashMap;

/// A per-sequence pattern-match result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHit {
    /// Sequence identifier.
    pub sequence: u64,
    /// Start offsets (in segments) of every match.
    pub positions: Vec<usize>,
}

/// Index over symbol strings (one per stored sequence representation).
#[derive(Debug, Clone, Default)]
pub struct PatternIndex {
    docs: Vec<(u64, Vec<u8>)>,
    ids: HashMap<u64, usize>,
    /// `contains[sym]` = sorted list of doc slots whose string contains sym.
    contains: HashMap<u8, Vec<usize>>,
}

impl PatternIndex {
    /// An empty index.
    pub fn new() -> Self {
        PatternIndex::default()
    }

    /// Inserts (or replaces) the symbol string of a sequence.
    pub fn insert(&mut self, sequence: u64, symbols: Vec<u8>) {
        match self.ids.get(&sequence) {
            Some(&slot) => {
                self.docs[slot].1 = symbols;
                self.rebuild_contains();
            }
            None => {
                let slot = self.docs.len();
                for &sym in symbols.iter() {
                    let list = self.contains.entry(sym).or_default();
                    if list.last() != Some(&slot) {
                        list.push(slot);
                    }
                }
                self.docs.push((sequence, symbols));
                self.ids.insert(sequence, slot);
            }
        }
    }

    /// Removes a sequence's symbol string; returns whether it was indexed.
    /// The vacated doc slot is back-filled by the last document, and only
    /// the occurrence lists of the two affected documents' symbols are
    /// patched — cost is proportional to those documents, not the index.
    pub fn remove(&mut self, sequence: u64) -> bool {
        let Some(slot) = self.ids.remove(&sequence) else {
            return false;
        };
        let (_, removed_symbols) = self.docs.swap_remove(slot);
        // Drop the vacated slot from the removed doc's symbol lists.
        for sym in distinct_symbols(&removed_symbols) {
            if let Some(list) = self.contains.get_mut(&sym) {
                if let Ok(i) = list.binary_search(&slot) {
                    list.remove(i);
                }
                if list.is_empty() {
                    self.contains.remove(&sym);
                }
            }
        }
        // Re-address the back-filled doc: it moved from the old last slot
        // (the largest slot number, so the tail of each sorted list) to
        // the vacated one.
        if slot < self.docs.len() {
            let last = self.docs.len();
            let (moved_id, moved_symbols) = &self.docs[slot];
            self.ids.insert(*moved_id, slot);
            for sym in distinct_symbols(moved_symbols) {
                if let Some(list) = self.contains.get_mut(&sym) {
                    if let Ok(i) = list.binary_search(&last) {
                        list.remove(i);
                    }
                    if let Err(i) = list.binary_search(&slot) {
                        list.insert(i, slot);
                    }
                }
            }
        }
        true
    }

    /// Snapshots per-symbol document and prefix counts for planning.
    pub fn stats(&self) -> PatternStats {
        let containing =
            self.contains.iter().map(|(&sym, list)| (sym, list.len() as u64)).collect();
        let mut prefixes = std::collections::BTreeMap::new();
        let mut empty_docs = 0;
        for (_, symbols) in &self.docs {
            match symbols.first() {
                Some(&first) => *prefixes.entry(first).or_insert(0) += 1,
                None => empty_docs += 1,
            }
        }
        PatternStats { docs: self.docs.len() as u64, empty_docs, containing, prefixes }
    }

    fn rebuild_contains(&mut self) {
        self.contains.clear();
        for (slot, (_, symbols)) in self.docs.iter().enumerate() {
            for &sym in symbols {
                let list = self.contains.entry(sym).or_default();
                if list.last() != Some(&slot) {
                    list.push(slot);
                }
            }
        }
    }

    /// Number of indexed sequences.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The stored symbol string of a sequence, if present.
    pub fn symbols_of(&self, sequence: u64) -> Option<&[u8]> {
        self.ids.get(&sequence).map(|&slot| self.docs[slot].1.as_slice())
    }

    /// Sequences whose *entire* symbol string matches the pattern — the
    /// goal-post query semantics (a 24-hour log with exactly two peaks).
    pub fn full_matches(&self, regex: &Regex) -> Vec<u64> {
        let dfa = regex.compile();
        let required = required_symbols(regex.ast());
        self.candidate_slots(&required)
            .into_iter()
            .filter(|&slot| dfa.is_match(&self.docs[slot].1))
            .map(|slot| self.docs[slot].0)
            .collect()
    }

    /// As [`PatternIndex::full_matches`] but restricted to a candidate id
    /// set, with the pattern already compiled: only the candidates' symbol
    /// strings are run through the DFA. This is the access path a planner
    /// takes when an earlier predicate has already narrowed the candidates
    /// below the index's own document count. Unknown ids are skipped;
    /// results keep the candidates' order.
    pub fn full_matches_among(&self, dfa: &Dfa, candidates: &[u64]) -> Vec<u64> {
        candidates
            .iter()
            .filter(|id| self.ids.get(id).is_some_and(|&slot| dfa.is_match(&self.docs[slot].1)))
            .copied()
            .collect()
    }

    /// Per-sequence start positions of every (possibly overlapping)
    /// occurrence of the pattern.
    pub fn scan(&self, regex: &Regex) -> Vec<PatternHit> {
        let dfa = regex.compile();
        let required = required_symbols(regex.ast());
        self.candidate_slots(&required)
            .into_iter()
            .filter_map(|slot| {
                let (id, symbols) = &self.docs[slot];
                let positions = dfa.match_starts(symbols);
                if positions.is_empty() {
                    None
                } else {
                    Some(PatternHit { sequence: *id, positions })
                }
            })
            .collect()
    }

    /// Like [`PatternIndex::scan`] but with a pre-compiled DFA and no
    /// pruning — used by benchmarks to isolate scan cost.
    pub fn scan_unpruned(&self, dfa: &Dfa) -> Vec<PatternHit> {
        self.docs
            .iter()
            .filter_map(|(id, symbols)| {
                let positions = dfa.match_starts(symbols);
                if positions.is_empty() {
                    None
                } else {
                    Some(PatternHit { sequence: *id, positions })
                }
            })
            .collect()
    }

    /// Doc slots containing every required symbol (sorted).
    fn candidate_slots(&self, required: &[u8]) -> Vec<usize> {
        if required.is_empty() {
            return (0..self.docs.len()).collect();
        }
        // Intersect the occurrence lists, smallest first.
        let mut lists: Vec<&Vec<usize>> = Vec::with_capacity(required.len());
        for sym in required {
            match self.contains.get(sym) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<usize> = lists[0].clone();
        for list in &lists[1..] {
            acc.retain(|slot| list.binary_search(slot).is_ok());
            if acc.is_empty() {
                break;
            }
        }
        acc
    }
}

/// The distinct symbols of one document (slope alphabets are tiny, so a
/// linear-scan set is cheapest).
fn distinct_symbols(symbols: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for &s in symbols {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_pattern::Alphabet;

    fn ab() -> Alphabet {
        Alphabet::new(&['u', 'd', 'f']).unwrap()
    }

    fn index_with(docs: &[(u64, &str)]) -> PatternIndex {
        let ab = ab();
        let mut idx = PatternIndex::new();
        for (id, text) in docs {
            idx.insert(*id, ab.encode(text).unwrap());
        }
        idx
    }

    #[test]
    fn goalpost_full_match() {
        let idx = index_with(&[
            (1, "uudd"),      // one peak
            (2, "uuddfuudd"), // two peaks
            (3, "udfudfud"),  // three peaks
            (4, "fudfduf"),   // u d f d u f: not two clean peaks
            (5, "fuddfudf"),  // two peaks with flats
        ]);
        let re = Regex::parse("f* u+ d+ f* u+ d+ f*", &ab()).unwrap();
        let mut hits = idx.full_matches(&re);
        hits.sort_unstable();
        assert_eq!(hits, vec![2, 5]);
    }

    #[test]
    fn full_matches_among_respects_candidates() {
        let idx = index_with(&[(1, "uudd"), (2, "uuddfuudd"), (3, "udfudfud"), (5, "fuddfudf")]);
        let re = Regex::parse("f* u+ d+ f* u+ d+ f*", &ab()).unwrap();
        let dfa = re.compile();
        assert_eq!(idx.full_matches_among(dfa, &[1, 2, 3]), vec![2]);
        assert_eq!(idx.full_matches_among(dfa, &[5, 2]), vec![5, 2], "keeps candidate order");
        assert_eq!(idx.full_matches_among(dfa, &[42]), Vec::<u64>::new(), "unknown ids skipped");
        // Restricted and unrestricted paths agree on the full id set.
        let mut all = idx.full_matches_among(dfa, &[1, 2, 3, 5]);
        all.sort_unstable();
        let mut full = idx.full_matches(&re);
        full.sort_unstable();
        assert_eq!(all, full);
    }

    #[test]
    fn scan_positions() {
        let idx = index_with(&[(7, "ffudffud")]);
        let re = Regex::parse("u+ d+", &ab()).unwrap();
        let hits = idx.scan(&re);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].sequence, 7);
        assert_eq!(hits[0].positions, vec![2, 6]);
    }

    #[test]
    fn pruning_skips_docs_missing_required_symbols() {
        let idx = index_with(&[(1, "ffff"), (2, "uuuu"), (3, "ud")]);
        let re = Regex::parse("u+ d+", &ab()).unwrap();
        let hits = idx.scan(&re);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].sequence, 3);
    }

    #[test]
    fn required_symbols_logic() {
        let re = Regex::parse("u+ d+ f*", &ab()).unwrap();
        assert_eq!(required_symbols(re.ast()), vec![0, 1]);
        let re2 = Regex::parse("u | d", &ab()).unwrap();
        assert!(required_symbols(re2.ast()).is_empty());
        let re3 = Regex::parse("(u|u d) u", &ab()).unwrap();
        assert_eq!(required_symbols(re3.ast()), vec![0]);
    }

    #[test]
    fn replace_reindexes() {
        let ab = ab();
        let mut idx = index_with(&[(1, "uuuu")]);
        let re = Regex::parse("d", &ab).unwrap();
        assert!(idx.scan(&re).is_empty());
        idx.insert(1, ab.encode("dd").unwrap());
        assert_eq!(idx.scan(&re).len(), 1);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.symbols_of(1).unwrap(), &[1, 1]);
    }

    #[test]
    fn remove_unindexes_and_backfills_slots() {
        let ab = ab();
        let mut idx = index_with(&[(1, "uudd"), (2, "ffff"), (3, "udud")]);
        assert!(idx.remove(1));
        assert!(!idx.remove(1), "second removal is a no-op");
        assert_eq!(idx.len(), 2);
        assert!(idx.symbols_of(1).is_none());
        // The back-filled slot still answers queries for the moved doc.
        assert_eq!(idx.symbols_of(3).unwrap(), ab.encode("udud").unwrap().as_slice());
        let re = Regex::parse("(u d)+", &ab).unwrap();
        assert_eq!(idx.full_matches(&re), vec![3]);
        let re_f = Regex::parse("f+", &ab).unwrap();
        assert_eq!(idx.full_matches(&re_f), vec![2]);
    }

    #[test]
    fn stats_count_docs_prefixes_and_containment() {
        let mut idx = index_with(&[(1, "uudd"), (2, "ffff"), (3, "dud")]);
        idx.insert(4, Vec::new());
        let stats = idx.stats();
        assert_eq!(stats.docs, 4);
        assert_eq!(stats.empty_docs, 1);
        assert_eq!(stats.containing.get(&0), Some(&2), "u in docs 1 and 3");
        assert_eq!(stats.containing.get(&2), Some(&1), "f only in doc 2");
        assert_eq!(stats.prefixes.get(&0), Some(&1));
        assert_eq!(stats.prefixes.get(&1), Some(&1));
        assert_eq!(stats.prefixes.get(&2), Some(&1));
        idx.remove(2);
        assert_eq!(idx.stats().containing.get(&2), None);
    }

    #[test]
    fn empty_index_and_missing_doc() {
        let idx = PatternIndex::new();
        assert!(idx.is_empty());
        let re = Regex::parse("u", &ab()).unwrap();
        assert!(idx.full_matches(&re).is_empty());
        assert!(idx.symbols_of(42).is_none());
    }

    #[test]
    fn unpruned_scan_agrees_with_pruned() {
        let idx = index_with(&[(1, "ududud"), (2, "ffff"), (3, "uddu")]);
        let re = Regex::parse("u d", &ab()).unwrap();
        let pruned = idx.scan(&re);
        let unpruned = idx.scan_unpruned(re.compile());
        assert_eq!(pruned, unpruned);
    }
}
