//! Per-node parallelism-word computation.
//!
//! Forward propagation over the lowered CFG. Because lowering produces
//! perfectly nested regions, "the control flow has no impact on the
//! parallelism word" (paper §2) — every join should see the same word
//! from all incoming edges, with two systematic exceptions handled here:
//!
//! * **loop heads**: a barrier inside a loop body extends the word by a
//!   `B` per iteration. The meet collapses barrier-only extensions back
//!   to the first-visit word and records the block as *phase-merged*
//!   (barrier counts beyond this point are iteration-dependent);
//! * **divergent structure**: a barrier or region in only one branch of
//!   a conditional. This is a real suspect — whether it deadlocks
//!   depends on whether the condition is thread-uniform, which the
//!   static analysis cannot know. The meet degrades to
//!   [`PwState::Conflict`] and the divergence is reported.
//!
//! Tokens are pushed edge-sensitively: `single`/`master`/`section`
//! entries only push their `S_i` on the branch edge taken by the chosen
//! thread (the region body); the skip edge keeps the incoming word.
//!
//! Words live in a per-result hash-consed [`WordDag`]: extending by one
//! token is an O(1) intern, the meet compares node ids, and the
//! membership verdict is cached on the node (see [`crate::intern`]).
//! `Vec`-backed [`Word`]s materialize only at report boundaries
//! (divergences, warning messages).

use crate::intern::{WordDag, WordNode};
use crate::lang::ContextClass;
use crate::word::{SKind, Token, Word};
use parcoach_ir::func::FuncIr;
use parcoach_ir::instr::{Directive, Terminator};
use parcoach_ir::types::{BlockId, RegionId};
use std::collections::VecDeque;

/// The word state of a block entry. Word nodes index the owning
/// [`PwResult`]'s dag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwState {
    /// A definite word.
    Word(WordNode),
    /// Incompatible words met — structure depends on control flow.
    Conflict,
}

impl PwState {
    /// The word node, if definite.
    pub fn node(&self) -> Option<WordNode> {
        match self {
            PwState::Word(n) => Some(*n),
            PwState::Conflict => None,
        }
    }
}

/// A structural divergence discovered during propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The join block where incompatible words met.
    pub block: BlockId,
    /// First word.
    pub left: Word,
    /// Second word.
    pub right: Word,
}

/// Result of the propagation over one function.
#[derive(Debug, Clone)]
pub struct PwResult {
    /// Entry state per block (`None` = unreachable).
    pub entry: Vec<Option<PwState>>,
    /// Blocks where barrier-only loop extensions were collapsed; barrier
    /// counts at and after these blocks are iteration-dependent.
    pub phase_merged: Vec<bool>,
    /// Structural divergences (candidate deadlocks), with materialized
    /// words (they flow into report messages). Span-free: the warning
    /// is placed at the join block's span, read from the live IR.
    pub divergences: Vec<Divergence>,
    /// The hash-consed words of this function × context.
    pub dag: WordDag,
}

impl PwResult {
    /// The word node at a block's entry, if definite.
    pub fn node_at(&self, b: BlockId) -> Option<WordNode> {
        self.entry
            .get(b.index())
            .and_then(|s| s.as_ref())
            .and_then(|s| s.node())
    }

    /// The word at a block's entry, if definite (materialized).
    pub fn word_at(&self, b: BlockId) -> Option<Word> {
        self.node_at(b).map(|n| self.dag.materialize(n))
    }

    /// The cached classification of a word node of this result.
    pub fn class(&self, n: WordNode) -> ContextClass {
        self.dag.class(n)
    }

    /// True when the block entry is in conflict state.
    pub fn is_conflict(&self, b: BlockId) -> bool {
        matches!(
            self.entry.get(b.index()).and_then(|s| s.as_ref()),
            Some(PwState::Conflict)
        )
    }
}

/// The initial calling context of a function, i.e. the unknown word
/// prefix at function entry (paper: "the programmer can select with an
/// option given to the analysis the initial level to consider").
///
/// Synthetic prefix tokens use region ids starting at `SYNTH_BASE` so
/// they can never collide with real regions of the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum InitialContext {
    /// Called outside any parallel region (e.g. `main`). Empty prefix.
    #[default]
    Sequential,
    /// Called from a monothreaded region inside a parallel region
    /// (prefix `P·S`).
    ParallelSingle,
    /// Called from an (active) multithreaded region (prefix `P`).
    Parallel,
}

/// Base id for synthetic prefix regions.
pub const SYNTH_BASE: u32 = 1_000_000;

impl InitialContext {
    /// Every context, in lattice order — the order of `ctx as usize`.
    pub const ALL: [InitialContext; 3] = [
        InitialContext::Sequential,
        InitialContext::ParallelSingle,
        InitialContext::Parallel,
    ];

    /// The synthetic word prefix for this context.
    pub fn prefix(self) -> Word {
        match self {
            InitialContext::Sequential => Word::empty(),
            InitialContext::ParallelSingle => Word(vec![
                Token::P(RegionId(SYNTH_BASE)),
                Token::S(RegionId(SYNTH_BASE + 1), SKind::Single),
            ]),
            InitialContext::Parallel => Word(vec![Token::P(RegionId(SYNTH_BASE))]),
        }
    }

    /// Join two contexts, keeping the most parallel one
    /// (`Parallel > ParallelSingle > Sequential`).
    pub fn join(self, other: InitialContext) -> InitialContext {
        use InitialContext::*;
        match (self, other) {
            (Parallel, _) | (_, Parallel) => Parallel,
            (ParallelSingle, _) | (_, ParallelSingle) => ParallelSingle,
            _ => Sequential,
        }
    }
}

/// Compute parallelism words for every block of `f`, starting from the
/// given initial context.
pub fn compute_pw(f: &FuncIr, init: InitialContext) -> PwResult {
    let n = f.block_count();
    let mut dag = WordDag::new();
    let mut entry: Vec<Option<PwState>> = vec![None; n];
    let mut phase_merged = vec![false; n];
    let mut divergences: Vec<Divergence> = Vec::new();
    let mut queue: VecDeque<BlockId> = VecDeque::new();

    // RPO positions distinguish retreating (loop back) edges — where a
    // barrier-only word extension is the normal per-iteration growth —
    // from forward joins, where the same mismatch means a control-flow
    // divergent barrier.
    let rpo = parcoach_ir::graph::reverse_post_order(f);
    let mut rpo_pos = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_pos[b.index()] = i;
    }

    entry[f.entry.index()] = Some(PwState::Word(dag.intern_word(&init.prefix())));
    queue.push_back(f.entry);

    // Termination: words only shrink at meets, Conflict is absorbing and
    // each block is re-queued only when its state changes.
    while let Some(b) = queue.pop_front() {
        let state = entry[b.index()].expect("queued blocks have state");
        let blk = f.block(b);
        // Compute the outgoing state per successor edge — at most two,
        // returned inline so the hot loop never heap-allocates.
        let out_states: [Option<(BlockId, PwState)>; 2] = match state {
            PwState::Conflict => uniform_out(&blk.term, |_| PwState::Conflict),
            PwState::Word(w) => transfer(f, b, blk.directive(), &blk.term, w, &mut dag),
        };
        for (succ, new_state) in out_states.into_iter().flatten() {
            match entry[succ.index()] {
                None => {
                    entry[succ.index()] = Some(new_state);
                    queue.push_back(succ);
                }
                Some(existing) => {
                    let retreating = rpo_pos[succ.index()] <= rpo_pos[b.index()];
                    let (met, note) = meet(existing, new_state, retreating, &dag);
                    if let MeetNote::PhaseMerge = note {
                        phase_merged[succ.index()] = true;
                    }
                    if let MeetNote::Diverged(l, r) = note {
                        // Report once per block.
                        if !divergences.iter().any(|d| d.block == succ) {
                            divergences.push(Divergence {
                                block: succ,
                                left: dag.materialize(l),
                                right: dag.materialize(r),
                            });
                        }
                    }
                    if met != existing {
                        entry[succ.index()] = Some(met);
                        queue.push_back(succ);
                    }
                }
            }
        }
    }

    PwResult {
        entry,
        phase_merged,
        divergences,
        dag,
    }
}

/// The per-edge states of a block with the same state on every successor
/// (a `Terminator` has at most two), built without allocating.
fn uniform_out(
    term: &Terminator,
    state: impl Fn(BlockId) -> PwState,
) -> [Option<(BlockId, PwState)>; 2] {
    match term {
        Terminator::Goto(t) => [Some((*t, state(*t))), None],
        Terminator::Branch {
            then_bb, else_bb, ..
        } => [
            Some((*then_bb, state(*then_bb))),
            Some((*else_bb, state(*else_bb))),
        ],
        Terminator::Return { .. } | Terminator::Unreachable => [None, None],
    }
}

/// Edge-sensitive transfer function of one block. Word extensions are
/// O(1) dag interns; nothing is cloned.
fn transfer(
    f: &FuncIr,
    b: BlockId,
    dir: Option<&Directive>,
    term: &Terminator,
    w: WordNode,
    dag: &mut WordDag,
) -> [Option<(BlockId, PwState)>; 2] {
    let uniform = |w: WordNode| uniform_out(term, |_| PwState::Word(w));
    match dir {
        None => uniform(w),
        Some(d) => match d {
            Directive::ParallelBegin { region, .. } => uniform(dag.extend(w, Token::P(*region))),
            Directive::SingleBegin { region, .. } => {
                conditional_entry(f, b, term, w, Token::S(*region, SKind::Single), dag)
            }
            Directive::MasterBegin { region, .. } => {
                conditional_entry(f, b, term, w, Token::S(*region, SKind::Master), dag)
            }
            Directive::SectionBegin { region, .. } => {
                conditional_entry(f, b, term, w, Token::S(*region, SKind::Section), dag)
            }
            Directive::ParallelEnd { region }
            | Directive::SingleEnd { region }
            | Directive::MasterEnd { region }
            | Directive::SectionEnd { region } => {
                let closed = dag.close_region(w, *region);
                debug_assert!(
                    closed.is_some(),
                    "verifier guarantees balanced regions in {}",
                    f.name
                );
                uniform(closed.unwrap_or(w))
            }
            Directive::Barrier { .. } => uniform(dag.extend(w, Token::B)),
            // Critical is mutual exclusion, not single-threaded execution:
            // all threads run the body. Worksharing begin/end and pfor
            // chunk setup do not change the thread-parallelism level
            // either (every thread participates).
            Directive::CriticalBegin { .. }
            | Directive::CriticalEnd { .. }
            | Directive::WorkshareBegin { .. }
            | Directive::WorkshareEnd { .. }
            | Directive::PForInit { .. } => uniform(w),
        },
    }
}

/// `single`/`master`/`section` push their token on the then-edge only.
fn conditional_entry(
    f: &FuncIr,
    b: BlockId,
    term: &Terminator,
    w: WordNode,
    token: Token,
    dag: &mut WordDag,
) -> [Option<(BlockId, PwState)>; 2] {
    match term {
        Terminator::Branch {
            then_bb, else_bb, ..
        } => [
            Some((*then_bb, PwState::Word(dag.extend(w, token)))),
            Some((*else_bb, PwState::Word(w))),
        ],
        _ => {
            // Lowering always gives these a branch; degrade gracefully.
            debug_assert!(false, "conditional opener without branch in {} {b}", f.name);
            let ext = dag.extend(w, token);
            uniform_out(term, |_| PwState::Word(ext))
        }
    }
}

enum MeetNote {
    None,
    PhaseMerge,
    Diverged(WordNode, WordNode),
}

/// Meet of an existing entry state with a new incoming state. Word
/// equality is node-id equality (hash-consing).
///
/// `retreating` marks loop back edges: only there is a barrier-only word
/// extension collapsed (per-iteration barrier growth). On forward joins
/// the same mismatch is a genuine divergence — a barrier executed on one
/// path but not the other.
fn meet(
    existing: PwState,
    incoming: PwState,
    retreating: bool,
    dag: &WordDag,
) -> (PwState, MeetNote) {
    match (existing, incoming) {
        (PwState::Conflict, _) | (_, PwState::Conflict) => (PwState::Conflict, MeetNote::None),
        (PwState::Word(a), PwState::Word(b)) => {
            if a == b {
                (PwState::Word(a), MeetNote::None)
            } else if retreating && dag.extends_by_barriers(b, a) {
                // Loop head: back edge brings extra barriers. Keep the
                // first-visit word.
                (PwState::Word(a), MeetNote::PhaseMerge)
            } else if retreating && dag.extends_by_barriers(a, b) {
                (PwState::Word(b), MeetNote::PhaseMerge)
            } else {
                (PwState::Conflict, MeetNote::Diverged(a, b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{classify, MonoVerdict};
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;
    use parcoach_ir::Module;

    fn lower(src: &str) -> Module {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        assert!(parcoach_ir::verify_module(&m).is_empty());
        m
    }

    /// The word at the (unique) block containing a collective.
    fn word_at_collective(src: &str) -> Word {
        let m = lower(src);
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        assert_eq!(cb.len(), 1, "expected exactly one collective block");
        pw.word_at(cb[0]).expect("definite word")
    }

    #[test]
    fn toplevel_collective_empty_word() {
        let w = word_at_collective("fn main() { MPI_Barrier(); }");
        assert!(w.is_empty());
    }

    #[test]
    fn collective_in_parallel_is_p() {
        let w = word_at_collective("fn main() { parallel { MPI_Barrier(); } }");
        assert_eq!(w.to_string(), "P0");
        assert_eq!(classify(&w).verdict, MonoVerdict::MultiThreaded);
    }

    #[test]
    fn collective_in_single_is_ps() {
        let w = word_at_collective("fn main() { parallel { single { MPI_Barrier(); } } }");
        assert_eq!(w.stripped().len(), 2);
        assert_eq!(classify(&w).verdict, MonoVerdict::MonoThreaded);
    }

    #[test]
    fn barrier_between_singles_shows_in_word() {
        // Second single's word must contain the B of the first single's
        // implicit barrier.
        let m = lower("fn main() { parallel { single { } single { MPI_Barrier(); } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(w.barrier_count(), 1, "word {w}");
        assert!(w.tokens().last().unwrap().is_s());
    }

    #[test]
    fn nowait_single_has_no_barrier_token() {
        let m = lower("fn main() { parallel { single nowait { } single { MPI_Barrier(); } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(w.barrier_count(), 0, "word {w}");
    }

    #[test]
    fn nested_parallel_word() {
        let w =
            word_at_collective("fn main() { parallel { parallel { single { MPI_Barrier(); } } } }");
        assert_eq!(classify(&w).verdict, MonoVerdict::NestedParallelism);
    }

    #[test]
    fn word_after_parallel_is_empty() {
        let m = lower("fn main() { parallel { let x = 1; } MPI_Barrier(); }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        assert!(pw.word_at(cb[0]).unwrap().is_empty());
    }

    #[test]
    fn initial_context_prefixes() {
        let m = lower("fn main() { MPI_Barrier(); }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Parallel);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(classify(&w).verdict, MonoVerdict::MultiThreaded);
        let pw = compute_pw(f, InitialContext::ParallelSingle);
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(classify(&w).verdict, MonoVerdict::MonoThreaded);
    }

    #[test]
    fn loop_with_barrier_phase_merges_without_divergence() {
        let m = lower("fn main() { parallel { for (i in 0..10) { critical { } barrier; } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        assert!(
            pw.divergences.is_empty(),
            "uniform loop barrier must not be a divergence: {:?}",
            pw.divergences
        );
        assert!(pw.phase_merged.iter().any(|&x| x), "expected phase merge");
    }

    #[test]
    fn barrier_in_one_branch_diverges() {
        let m = lower("fn main() { parallel { if (thread_num() == 0) { barrier; } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        assert!(
            !pw.divergences.is_empty(),
            "thread-divergent barrier must be reported"
        );
    }

    #[test]
    fn balanced_branches_do_not_diverge() {
        let m = lower(
            "fn main() { parallel { if (thread_num() == 0) { critical { } } else { critical { } } } }",
        );
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        assert!(pw.divergences.is_empty(), "{:?}", pw.divergences);
    }

    #[test]
    fn single_in_one_branch_nowait_ok() {
        // nowait single in one branch: no barrier divergence (the S is
        // popped before the join).
        let m = lower("fn main() { parallel { if (thread_num() == 0) { single nowait { } } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        assert!(pw.divergences.is_empty(), "{:?}", pw.divergences);
    }

    #[test]
    fn single_in_one_branch_with_barrier_diverges() {
        let m = lower("fn main() { parallel { if (thread_num() == 0) { single { } } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        assert!(!pw.divergences.is_empty());
    }

    #[test]
    fn sections_words() {
        let m =
            lower("fn main() { parallel { sections { section { MPI_Barrier(); } section { } } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert!(classify(&w).verdict.is_monothreaded(), "word {w}");
    }

    #[test]
    fn pfor_body_is_multithreaded() {
        let m = lower("fn main() { parallel { pfor (i in 0..4) { MPI_Barrier(); } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(classify(&w).verdict, MonoVerdict::MultiThreaded);
    }

    #[test]
    fn critical_is_not_single_threaded() {
        let m = lower("fn main() { parallel { critical { MPI_Barrier(); } } }");
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let cb = f.collective_blocks();
        let w = pw.word_at(cb[0]).unwrap();
        assert_eq!(classify(&w).verdict, MonoVerdict::MultiThreaded);
    }

    #[test]
    fn all_reachable_blocks_have_state() {
        let m = lower(
            "fn main() {
                let t = 0;
                parallel num_threads(4) {
                    single { t = 1; }
                    pfor (i in 0..8) { let y = i; }
                    master { t = 2; }
                }
                if (t > 0) { MPI_Barrier(); }
            }",
        );
        let f = m.main().unwrap();
        let pw = compute_pw(f, InitialContext::Sequential);
        let reach = parcoach_ir::graph::reachable(f);
        for b in f.block_ids() {
            if reach[b.index()] {
                assert!(
                    pw.entry[b.index()].is_some(),
                    "reachable block {b} lacks pw state"
                );
            }
        }
    }

    #[test]
    fn context_join() {
        use InitialContext::*;
        assert_eq!(Sequential.join(Parallel), Parallel);
        assert_eq!(ParallelSingle.join(Sequential), ParallelSingle);
        assert_eq!(ParallelSingle.join(Parallel), Parallel);
        assert_eq!(Sequential.join(Sequential), Sequential);
    }
}
