//! Phase 2 — "any two collective executions are ordered sequentially"
//! (paper §2, property 2).
//!
//! Two nodes `n1`, `n2` are in *concurrent monothreaded regions* when
//! `pw[n1] = w·S_j·u` and `pw[n2] = w·S_k·v` with `j ≠ k`: the regions
//! share the parallel phase `w` (same barrier count since the fork) but
//! are distinct single-threaded regions, so two different threads may
//! execute them simultaneously — the order of their collectives becomes
//! schedule-dependent. Such region pairs go to the set `S_cc` and get a
//! dynamic concurrency counter.
//!
//! Extension (documented in DESIGN.md): a collective-bearing
//! monothreaded region lying on a CFG cycle with no barrier on the cycle
//! is concurrent *with itself* across iterations; we flag it with
//! [`WarningKind::SelfConcurrentRegion`] and instrument it the same way.
//!
//! **Per-communicator generalization**: the order of two collectives
//! only matters when they can meet in the *same* matching space — the
//! same communicator class. Concurrent monothreaded regions issuing
//! collectives on communicators that cannot alias (or mixing
//! point-to-point with collectives) are *legal* under
//! `MPI_THREAD_MULTIPLE`; they produce no warning, but the phase
//! records that `MPI_THREAD_MULTIPLE` is required, which feeds the
//! thread-level adequacy check.

use crate::comm::CommId;
use crate::facts::AnalysisCx;
use crate::report::{WarningCore, WarningKind};
use crate::word::Word;
use parcoach_front::ast::ThreadLevel;
use parcoach_ir::func::FuncIr;
use parcoach_ir::instr::{BlockKind, Directive, Instr, Terminator};
use parcoach_ir::types::{BlockId, RegionId};
use parcoach_ir::Locator;
use std::collections::HashMap;

/// Phase-2 result for one function.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyResult {
    /// Warnings found.
    pub warnings: Vec<WarningCore>,
    /// Monothreaded regions to instrument with concurrency counters,
    /// with their cluster site id (regions that may run concurrently with
    /// each other share a site).
    pub sites: Vec<(RegionId, u32)>,
    /// Collective blocks involved (suspects for `CC` instrumentation).
    pub suspects: Vec<BlockId>,
    /// The phase proved two threads may be inside MPI simultaneously on
    /// unrelated communicators (legal, but only under
    /// `MPI_THREAD_MULTIPLE`).
    pub required_level: Option<ThreadLevel>,
}

/// What kind of MPI operation a region node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// A collective on a communicator class.
    Coll(CommId),
    /// A point-to-point operation (send/recv).
    P2p,
}

/// An MPI node together with its innermost monothreaded region.
struct RegionColl {
    block: BlockId,
    site: Locator,
    name: &'static str,
    class: OpClass,
    /// The block's entry word: an index into the phase's materialized
    /// words, one per MPI block.
    word: usize,
    /// Index in the word of the innermost S token.
    s_pos: usize,
    region: RegionId,
}

/// Run phase 2 on one function, reading words, loops and communicator
/// resolutions from the fact store.
pub fn check_concurrency(cx: &AnalysisCx, fidx: usize) -> ConcurrencyResult {
    let f = &cx.module.funcs[fidx];
    let facts = cx.facts(fidx);
    let handles = cx.handles.func(fidx);
    let table = &cx.handles.comms;
    let mut out = ConcurrencyResult::default();

    // Collect MPI nodes in monothreaded regions (words ending in S
    // after stripping; phase 1 already handled the rest).
    let mut colls: Vec<RegionColl> = Vec::new();
    let mut words: Vec<Word> = Vec::new();
    let mpi_blocks = f.blocks_with(
        |i| matches!(i, Instr::Mpi { op, .. } if op.synchronizes().is_some() || op.is_p2p()),
    );
    for bid in mpi_blocks {
        // None covers unreachable blocks and conflict states alike.
        let Some(w) = facts.pw.word_at(bid) else {
            continue;
        };
        // Find the innermost S token (last S in the word).
        let Some(s_pos) = w.tokens().iter().rposition(|t| t.is_s()) else {
            continue;
        };
        // Only S-terminated (monothreaded) contexts concern this phase;
        // tokens after the S would be P (nested) — skip those.
        if w.tokens()[s_pos + 1..].iter().any(|t| t.is_p()) {
            continue;
        }
        let region = w.tokens()[s_pos].region().expect("S token has region");
        let word = words.len();
        words.push(w);
        for (ii, (i, _)) in f.instrs(bid).iter().enumerate() {
            let Instr::Mpi { op, .. } = i else {
                continue;
            };
            let class = match op.synchronizes() {
                // Comm management synchronizes the *parent* communicator.
                Some((_, comm)) => OpClass::Coll(handles.comm(comm)),
                // Point-to-point operations live in the p2p matching
                // space: concurrent regions driving them (or a request
                // posted in one region and waited in a concurrent
                // sibling) are legal under MPI_THREAD_MULTIPLE — no
                // ordering warning, but the level demand is recorded
                // below.
                None if op.is_p2p() => OpClass::P2p,
                None => continue,
            };
            colls.push(RegionColl {
                block: bid,
                site: Locator::Instr(fidx, bid, ii),
                name: op.name(),
                class,
                word,
                s_pos,
                region,
            });
        }
    }

    // Pairwise concurrent-region test on the words.
    // Union-find over regions to build instrumentation clusters.
    let mut parent: HashMap<RegionId, RegionId> = HashMap::new();
    fn find(parent: &mut HashMap<RegionId, RegionId>, r: RegionId) -> RegionId {
        let p = *parent.entry(r).or_insert(r);
        if p == r {
            r
        } else {
            let root = find(parent, p);
            parent.insert(r, root);
            root
        }
    }
    let mut concurrent_regions: Vec<RegionId> = Vec::new();

    for i in 0..colls.len() {
        for j in (i + 1)..colls.len() {
            let (a, b) = (&colls[i], &colls[j]);
            if a.region == b.region {
                continue; // same region: ordered by its single executor
            }
            let (wa, wb) = (&words[a.word], &words[b.word]);
            let lcp = wa.common_prefix_len(wb);
            // Concurrent iff the first differing tokens are both S tokens
            // of different regions — i.e. pw = w·S_j·u vs w·S_k·v.
            let ta = wa.tokens().get(lcp);
            let tb = wb.tokens().get(lcp);
            let concurrent = match (ta, tb) {
                (Some(x), Some(y)) if x.is_s() && y.is_s() => {
                    // j ≠ k guaranteed since the tokens differ at lcp.
                    lcp <= a.s_pos && lcp <= b.s_pos
                }
                _ => false,
            };
            if concurrent {
                match (a.class, b.class) {
                    (OpClass::Coll(ca), OpClass::Coll(cb)) if ca.may_alias(cb) => {
                        let ra = find(&mut parent, a.region);
                        let rb = find(&mut parent, b.region);
                        parent.insert(ra, rb);
                        concurrent_regions.push(a.region);
                        concurrent_regions.push(b.region);
                        let comm_note = if ca.is_world() && cb.is_world() {
                            String::new()
                        } else {
                            format!(" on {}", table.label(ca))
                        };
                        out.warnings.push(WarningCore {
                            kind: WarningKind::ConcurrentCollectives,
                            message: format!(
                                "{} and {} are in concurrent monothreaded regions{comm_note} \
                                 (words {wa} / {wb}); their order is schedule-dependent",
                                a.name, b.name
                            ),
                            site: a.site,
                            related: vec![(Some(b.site), format!("concurrent {} here", b.name))],
                        });
                        out.suspects.push(a.block);
                        out.suspects.push(b.block);
                    }
                    // Unrelated matching spaces (different communicator
                    // classes, or point-to-point involved): a legal
                    // MPI_THREAD_MULTIPLE pattern. No warning, but two
                    // threads may now be inside MPI simultaneously.
                    _ => out.required_level = Some(ThreadLevel::Multiple),
                }
            }
        }
    }

    // Self-concurrency: region begin block on a cycle without a barrier
    // on that cycle. Only meaningful for nowait-style regions (with a
    // barrier on the cycle, iterations are phase-separated). A non-empty
    // `colls` implies the function has MPI nodes, so its CFG facts
    // (loops included) exist.
    for c in &colls {
        let Some(begin) = f.region_begin_block(c.region) else {
            continue;
        };
        for l in facts.cfg().loops.loops_containing(begin) {
            let has_barrier = l.blocks.iter().any(|&b| {
                matches!(
                    f.block(b).kind,
                    BlockKind::Directive(Directive::Barrier { .. })
                )
            });
            if !has_barrier {
                if c.class == OpClass::P2p {
                    // Overlapping iterations of a p2p region are legal
                    // under MPI_THREAD_MULTIPLE (matching is by tag, not
                    // by order across threads).
                    out.required_level = Some(ThreadLevel::Multiple);
                    break;
                }
                concurrent_regions.push(c.region);
                // Union with itself just materializes the cluster.
                let r = find(&mut parent, c.region);
                parent.insert(r, r);
                out.warnings.push(WarningCore {
                    kind: WarningKind::SelfConcurrentRegion,
                    message: format!(
                        "{} is in a monothreaded region inside a loop with no \
                         barrier on the cycle; iterations of the region may \
                         overlap",
                        c.name
                    ),
                    site: c.site,
                    related: vec![(Some(Locator::Cond(fidx, l.header)), "loop here".into())],
                });
                out.suspects.push(c.block);
                break; // one warning per collective is enough
            }
        }
    }

    // Materialize instrumentation sites: one per concurrent region, site
    // id = cluster representative (dense renumbering).
    concurrent_regions.sort_unstable();
    concurrent_regions.dedup();
    let mut site_ids: HashMap<RegionId, u32> = HashMap::new();
    let mut next_site = 0u32;
    for &r in &concurrent_regions {
        let root = find(&mut parent, r);
        let site = *site_ids.entry(root).or_insert_with(|| {
            let s = next_site;
            next_site += 1;
            s
        });
        out.sites.push((r, site));
    }
    out.suspects.sort_unstable();
    out.suspects.dedup();
    out
}

/// The body-entry block of a conditional region (then-edge of its begin
/// directive block). Used by the instrumentation pass.
pub fn region_body_entry(f: &FuncIr, r: RegionId) -> Option<BlockId> {
    let begin = f.region_begin_block(r)?;
    match &f.block(begin).term {
        Terminator::Branch { then_bb, .. } => Some(*then_bb),
        // Unconditional regions (parallel/critical/workshare) enter
        // directly.
        Terminator::Goto(t) => Some(*t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::InitialContext;
    use parcoach_front::parse_and_check;
    use parcoach_ir::lower::lower_program;

    fn run(src: &str) -> ConcurrencyResult {
        let unit = parse_and_check("t.mh", src).expect("valid");
        let m = lower_program(&unit.program, &unit.signatures);
        let cx = AnalysisCx::build(&m, InitialContext::Sequential);
        check_concurrency(&cx, m.index("main").unwrap())
    }

    #[test]
    fn nowait_singles_are_concurrent() {
        let r = run("fn main() {
                parallel {
                    single nowait { MPI_Barrier(); }
                    single { MPI_Allreduce(1, SUM); }
                }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::ConcurrentCollectives);
        assert_eq!(r.suspects.len(), 2);
        // Both regions share one cluster site.
        assert_eq!(r.sites.len(), 2);
        assert_eq!(r.sites[0].1, r.sites[1].1);
    }

    #[test]
    fn barrier_separated_singles_are_ordered() {
        let r = run("fn main() {
                parallel {
                    single { MPI_Barrier(); }
                    single { MPI_Allreduce(1, SUM); }
                }
            }");
        assert!(
            r.warnings.is_empty(),
            "implicit barrier orders the singles: {:?}",
            r.warnings
        );
    }

    #[test]
    fn explicit_barrier_after_nowait_orders() {
        let r = run("fn main() {
                parallel {
                    single nowait { MPI_Barrier(); }
                    barrier;
                    single { MPI_Allreduce(1, SUM); }
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn sections_with_collectives_concurrent() {
        let r = run("fn main() {
                parallel {
                    sections {
                        section { MPI_Barrier(); }
                        section { MPI_Allreduce(1, SUM); }
                    }
                }
            }");
        assert_eq!(r.warnings.len(), 1);
        assert_eq!(r.warnings[0].kind, WarningKind::ConcurrentCollectives);
    }

    #[test]
    fn single_and_master_concurrent() {
        // master has no implicit barrier; a nowait single before it can
        // overlap.
        let r = run("fn main() {
                parallel {
                    single nowait { MPI_Barrier(); }
                    master { MPI_Barrier(); }
                }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    }

    #[test]
    fn same_region_not_self_pair() {
        let r = run("fn main() {
                parallel {
                    single { MPI_Barrier(); MPI_Allreduce(1, SUM); }
                }
            }");
        assert!(
            r.warnings.is_empty(),
            "collectives in the same region are ordered: {:?}",
            r.warnings
        );
    }

    #[test]
    fn nowait_single_in_loop_self_concurrent() {
        let r = run("fn main() {
                parallel {
                    for (i in 0..10) {
                        single nowait { MPI_Allreduce(1, SUM); }
                    }
                }
            }");
        assert!(
            r.warnings
                .iter()
                .any(|w| w.kind == WarningKind::SelfConcurrentRegion),
            "{:?}",
            r.warnings
        );
        assert!(!r.sites.is_empty());
    }

    #[test]
    fn single_with_barrier_in_loop_not_self_concurrent() {
        let r = run("fn main() {
                parallel {
                    for (i in 0..10) {
                        single { MPI_Allreduce(1, SUM); }
                    }
                }
            }");
        assert!(
            !r.warnings
                .iter()
                .any(|w| w.kind == WarningKind::SelfConcurrentRegion),
            "implicit barrier separates iterations: {:?}",
            r.warnings
        );
    }

    #[test]
    fn different_parallel_regions_not_concurrent() {
        // Two singles in two *successive* parallel regions: the join
        // between regions orders them.
        let r = run("fn main() {
                parallel { single nowait { MPI_Barrier(); } }
                parallel { single nowait { MPI_Allreduce(1, SUM); } }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn concurrent_regions_on_different_comms_legal_under_multiple() {
        // The MPIxThreads pattern: one section drives COMM_WORLD, the
        // other a duplicated communicator — unrelated matching spaces,
        // so no ordering warning, but MPI_THREAD_MULTIPLE is required.
        let r = run("fn main() {
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                parallel {
                    sections {
                        section { MPI_Barrier(); }
                        section { MPI_Barrier(c); }
                    }
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert!(r.sites.is_empty());
        assert_eq!(r.required_level, Some(ThreadLevel::Multiple));
    }

    #[test]
    fn concurrent_regions_same_comm_class_still_flagged() {
        let r = run("fn main() {
                let c = MPI_Comm_dup(MPI_COMM_WORLD);
                parallel {
                    sections {
                        section { MPI_Barrier(c); }
                        section { let x = MPI_Allreduce(1, SUM, c); }
                    }
                }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.warnings[0].kind, WarningKind::ConcurrentCollectives);
    }

    #[test]
    fn concurrent_p2p_sections_require_multiple_only() {
        let r = run("fn main() {
                parallel {
                    sections {
                        section { MPI_Send(1.0, 0, 10); }
                        section { let v = MPI_Recv(0, 10); }
                    }
                }
            }");
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
        assert_eq!(r.required_level, Some(ThreadLevel::Multiple));
    }

    #[test]
    fn deep_nesting_concurrent_with_sibling() {
        // single S1 { parallel { single S3 { coll } } } vs sibling nowait
        // single S2 { coll }: words P0·S1·P2·S3 vs P0·S2 → concurrent.
        let r = run("fn main() {
                parallel {
                    single nowait {
                        parallel {
                            single { MPI_Barrier(); }
                        }
                    }
                    single { MPI_Allreduce(1, SUM); }
                }
            }");
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
    }
}
