//! Property tests for the language machinery of the analysis:
//! `L = (S|PB*S)*` membership (DFA vs. reference), word simplification
//! algebra, and the concurrency criterion's symmetry.
//!
//! Random words come from `parcoach_testutil::Rng` with per-case seeds;
//! a failing case reports its seed and the offending word.

use parcoach_core::lang::{classify, in_language_reference};
use parcoach_core::word::{SKind, Token, Word, WordDag};
use parcoach_ir::types::RegionId;
use parcoach_testutil::Rng;

/// Base budget 512; `PARCOACH_PROP_BUDGET=4` (CI's extended matrix)
/// raises it to 2048 — affordable now that the simulators reuse
/// pooled threads.
fn cases() -> u64 {
    parcoach_testutil::case_budget(512)
}

/// Mirror of the old proptest token strategy: P, the three S kinds (in
/// disjoint RegionId ranges), or B, uniformly.
fn random_token(rng: &mut Rng) -> Token {
    match rng.below(5) {
        0 => Token::P(RegionId(rng.range_u32(0, 16))),
        1 => Token::S(RegionId(rng.range_u32(0, 16) + 100), SKind::Single),
        2 => Token::S(RegionId(rng.range_u32(0, 16) + 200), SKind::Master),
        3 => Token::S(RegionId(rng.range_u32(0, 16) + 300), SKind::Section),
        _ => Token::B,
    }
}

fn random_word(rng: &mut Rng) -> Word {
    let len = rng.below(12);
    Word((0..len).map(|_| random_token(rng)).collect())
}

/// The production classifier and the regex-derivative reference must
/// agree on arbitrary words.
#[test]
fn dfa_matches_reference() {
    for seed in 0..cases() {
        let w = random_word(&mut Rng::new(seed));
        assert_eq!(
            classify(&w).verdict.is_monothreaded(),
            in_language_reference(&w),
            "disagreement on {} (seed {seed})",
            w
        );
    }
}

/// Appending `B` never changes monothreadedness ("Bs are ignored").
#[test]
fn barriers_neutral_for_membership() {
    for seed in 0..cases() {
        let w = random_word(&mut Rng::new(seed));
        let mut wb = w.clone();
        wb.push(Token::B);
        assert_eq!(
            classify(&w).verdict.is_monothreaded(),
            classify(&wb).verdict.is_monothreaded(),
            "B changed membership of {} (seed {seed})",
            w
        );
    }
}

/// Opening and immediately closing a region is the identity.
#[test]
fn open_close_roundtrip() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let w = random_word(&mut rng);
        let r = RegionId(rng.range_u32(500, 600));
        let mut w2 = w.clone();
        w2.push(Token::P(r));
        assert!(w2.close_region(r), "close P failed (seed {seed})");
        assert_eq!(&w2, &w, "P roundtrip not identity (seed {seed})");
        let mut w3 = w.clone();
        w3.push(Token::S(r, SKind::Single));
        assert!(w3.close_region(r), "close S failed (seed {seed})");
        assert_eq!(&w3, &w, "S roundtrip not identity (seed {seed})");
    }
}

/// `close_region` truncates at the region token: everything after it
/// disappears, everything before survives.
#[test]
fn close_truncates_suffix() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let prefix = random_word(&mut rng);
        let suffix = random_word(&mut rng);
        let r = RegionId(rng.range_u32(700, 800));
        let mut w = prefix.clone();
        w.push(Token::P(r));
        for t in suffix.tokens() {
            w.push(*t);
        }
        // The suffix may not contain r (ranges are disjoint by
        // construction), so close_region finds our P.
        assert!(w.close_region(r), "close_region missed (seed {seed})");
        assert_eq!(&w, &prefix, "truncation wrong (seed {seed})");
    }
}

/// Common-prefix length is symmetric and bounded.
#[test]
fn common_prefix_symmetric() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let a = random_word(&mut rng);
        let b = random_word(&mut rng);
        let ab = a.common_prefix_len(&b);
        assert_eq!(ab, b.common_prefix_len(&a), "asymmetric (seed {seed})");
        assert!(
            ab <= a.len() && ab <= b.len(),
            "out of bounds (seed {seed})"
        );
        // The prefixes really are equal.
        assert_eq!(&a.tokens()[..ab], &b.tokens()[..ab], "seed {seed}");
        if ab < a.len() && ab < b.len() {
            assert_ne!(a.tokens()[ab], b.tokens()[ab], "seed {seed}");
        }
    }
}

/// Hash-consed words agree with the `Vec<Token>` representation on every
/// observable: building a random token sequence via interned `extend`
/// must materialize to the same tokens, the cached `L`-membership flags
/// must match both the production classifier and the regex-derivative
/// reference automaton, and interning the same sequence twice must yield
/// the same node id (hash-consing actually shares).
#[test]
fn word_dag_matches_vec_representation() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let w = random_word(&mut rng);
        let mut dag = WordDag::new();
        // Build incrementally via extend, exactly as compute_pw does.
        let mut node = dag.epsilon();
        for t in w.tokens() {
            node = dag.extend(node, *t);
        }
        // Token content round-trips.
        assert_eq!(
            dag.materialize(node),
            w,
            "materialize mismatch on {} (seed {seed})",
            w
        );
        assert_eq!(dag.len(node) as usize, w.len(), "len (seed {seed})");
        assert_eq!(dag.is_empty(node), w.is_empty(), "is_empty (seed {seed})");
        // The O(1) flag-derived class equals the token-walking classifier
        // and the reference automaton.
        let class = dag.class(node);
        assert_eq!(class, classify(&w), "class mismatch on {} (seed {seed})", w);
        assert_eq!(
            class.verdict.is_monothreaded(),
            in_language_reference(&w),
            "membership cache wrong on {} (seed {seed})",
            w
        );
        // Hash-consing: interning the whole word hits the same node, so
        // equality-by-id is sound.
        assert_eq!(
            dag.intern_word(&w),
            node,
            "intern_word disagrees with extend chain (seed {seed})"
        );
    }
}

/// Id equality coincides with structural equality within one dag, so
/// comparing two words by node — as the propagation meet does — agrees
/// with comparing their tokens.
#[test]
fn word_dag_preserves_report_order() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let a = random_word(&mut rng);
        let b = random_word(&mut rng);
        let mut dag = WordDag::new();
        let na = dag.intern_word(&a);
        let nb = dag.intern_word(&b);
        assert_eq!(na == nb, a == b, "id equality wrong (seed {seed})");
    }
}

/// The structural helpers on the dag (`close_region`,
/// `extends_by_barriers`) agree with their `Word` counterparts.
#[test]
fn word_dag_structural_ops_match() {
    for seed in 0..cases() {
        let mut rng = Rng::new(seed);
        let w = random_word(&mut rng);
        let mut dag = WordDag::new();
        let node = dag.intern_word(&w);
        // close_region on every region mentioned in the word, plus one
        // absent region (disjoint range).
        let mut regions: Vec<RegionId> = w.tokens().iter().filter_map(|t| t.region()).collect();
        regions.push(RegionId(rng.range_u32(900, 950)));
        for r in regions {
            let mut expect = w.clone();
            let closed = expect.close_region(r);
            match dag.close_region(node, r) {
                Some(n) => {
                    assert!(closed, "dag closed absent region (seed {seed})");
                    assert_eq!(
                        dag.materialize(n),
                        expect,
                        "close_region({r:?}) mismatch on {} (seed {seed})",
                        w
                    );
                }
                None => assert!(!closed, "dag missed region {r:?} in {} (seed {seed})", w),
            }
        }
        // Barrier extension: w plus k barriers extends w; w plus any
        // non-B token does not.
        let mut ext = node;
        let mut ext_word = w.clone();
        for _ in 0..rng.below(3) + 1 {
            ext = dag.extend(ext, Token::B);
            ext_word.push(Token::B);
        }
        assert!(
            dag.extends_by_barriers(ext, node),
            "B-extension not recognized (seed {seed})"
        );
        assert!(
            ext_word.is_barrier_extension_of(&w),
            "vec oracle disagrees (seed {seed})"
        );
        let diverged = dag.extend(node, Token::P(RegionId(999)));
        assert!(
            !dag.extends_by_barriers(diverged, node),
            "P-extension misclassified (seed {seed})"
        );
    }
}

/// The required-level classification is monotone in context: a word
/// in `L` never demands MPI_THREAD_MULTIPLE.
#[test]
fn levels_consistent_with_membership() {
    use parcoach_front::ast::ThreadLevel;
    for seed in 0..cases() {
        let w = random_word(&mut Rng::new(seed));
        let c = classify(&w);
        if c.verdict.is_monothreaded() {
            assert!(
                c.required_level < ThreadLevel::Multiple,
                "monothreaded {} demands MULTIPLE (seed {seed})",
                w
            );
        } else {
            assert_eq!(
                c.required_level,
                ThreadLevel::Multiple,
                "non-monothreaded {} tolerates < MULTIPLE (seed {seed})",
                w
            );
        }
    }
}
