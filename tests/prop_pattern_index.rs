//! Property-based tests of the pattern engine and index structures:
//! NFA/DFA agreement on random patterns and inputs, B+tree equivalence to a
//! model `BTreeMap`, and inverted-file range soundness.

use proptest::prelude::*;
use saq::index::{BPlusTree, InvertedIndex};
use saq::pattern::{Ast, Regex};
use std::collections::BTreeMap;

fn arb_ast(alphabet_size: u8) -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![Just(Ast::Epsilon), (0..alphabet_size).prop_map(Ast::Symbol),];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Concat(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Alt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.prop_map(|a| Ast::Optional(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nfa_and_dfa_agree(
        ast in arb_ast(3),
        inputs in prop::collection::vec(prop::collection::vec(0u8..3, 0..12), 1..8),
    ) {
        let regex = Regex::from_ast(ast, 3).unwrap();
        let nfa = regex.to_nfa();
        let dfa = regex.compile();
        for input in &inputs {
            prop_assert_eq!(nfa.is_match(input), dfa.is_match(input), "input {:?}", input);
        }
    }

    #[test]
    fn nullable_ast_accepts_empty(ast in arb_ast(3)) {
        let nullable = ast.nullable();
        let regex = Regex::from_ast(ast, 3).unwrap();
        prop_assert_eq!(regex.compile().is_match(&[]), nullable);
    }

    #[test]
    fn match_starts_are_consistent_with_longest_match(
        ast in arb_ast(3),
        input in prop::collection::vec(0u8..3, 0..20),
    ) {
        let regex = Regex::from_ast(ast, 3).unwrap();
        let dfa = regex.compile();
        for start in dfa.match_starts(&input) {
            let m = dfa.longest_match_at(&input, start);
            prop_assert!(m.is_some_and(|m| !m.is_empty()));
        }
    }

    #[test]
    fn bplustree_matches_btreemap_model(
        ops in prop::collection::vec((0u64..200, -1i64..1000), 1..300),
        order in 3usize..12,
    ) {
        // v == -1 encodes a removal of key k; anything else is an insert.
        let mut tree = BPlusTree::with_order(order);
        let mut model = BTreeMap::new();
        for (k, v) in &ops {
            if *v == -1 {
                prop_assert_eq!(tree.remove(k), model.remove(k));
            } else {
                prop_assert_eq!(tree.insert(*k, *v), model.insert(*k, *v));
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        prop_assert!(tree.check_invariants());
        for k in 0..200u64 {
            prop_assert_eq!(tree.get(&k), model.get(&k));
        }
        // Range agrees with the model.
        let (lo, hi) = (30u64, 120u64);
        let got: Vec<(u64, i64)> = tree.range(&lo, &hi).into_iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, i64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn inverted_index_range_is_sound_and_complete(
        postings in prop::collection::vec((0i64..50, 0u64..20, 0u32..10), 0..200),
        key in 0i64..50,
        tol in 0i64..10,
    ) {
        let mut idx = InvertedIndex::new();
        for (k, seq, pos) in &postings {
            idx.add(*k, *seq, *pos);
        }
        let hits = idx.lookup_range(key, tol);
        // Soundness: every hit really occurs under a key in range.
        for h in &hits {
            let present = postings
                .iter()
                .any(|(k, s, p)| (k - key).abs() <= tol && *s == h.sequence && *p == h.position);
            prop_assert!(present, "spurious hit {h:?}");
        }
        // Completeness: every in-range posting is reported.
        for (k, s, p) in &postings {
            if (k - key).abs() <= tol {
                prop_assert!(
                    hits.iter().any(|h| h.sequence == *s && h.position == *p),
                    "missing posting"
                );
            }
        }
    }
}
