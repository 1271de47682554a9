//! # parcoach-mpisim — in-process MPI substrate
//!
//! A simulated MPI runtime: ranks are OS threads sharing a [`World`];
//! collectives move real data (broadcast, reductions, gathers, scatters,
//! scans…), match MUST-style signatures in per-rank program order, and a
//! global liveness census turns the hangs a real MPI run would produce
//! (mismatched counts, early exits) into precise error reports. The
//! PARCOACH `CC` control collective ([`World::control_cc`]) and the
//! MPI thread-level enforcement (`MPI_THREAD_SINGLE…MULTIPLE`) are built
//! in.
//!
//! Substitution note (DESIGN.md): stands in for a real MPI library. The
//! dynamic-check protocol is identical; only the transport (shared
//! memory instead of a network) differs, which is irrelevant to
//! collective-matching semantics.
//!
//! ```
//! use parcoach_mpisim::{World, MpiConfig, Signature, CollectiveOp, MpiValue, MpiType};
//! use parcoach_front::ast::ReduceOp;
//!
//! let world = World::new(MpiConfig { world_size: 4, ..Default::default() });
//! let sig = Signature::collective(
//!     CollectiveOp::Allreduce, Some(ReduceOp::Sum), None, Some(MpiType::Int));
//! std::thread::scope(|s| {
//!     for rank in 0..4 {
//!         let world = world.clone();
//!         s.spawn(move || {
//!             let out = world
//!                 .collective(rank, sig, Some(MpiValue::Int(rank as i64 + 1)), true)
//!                 .unwrap();
//!             assert_eq!(out, MpiValue::Int(10)); // 1+2+3+4
//!         });
//!     }
//! });
//! ```

pub(crate) mod census;
pub mod error;
pub mod signature;
pub mod value;
pub mod world;

pub use error::{MpiError, RankActivity};
pub use signature::{CollectiveOp, Signature};
pub use value::{MpiType, MpiValue};
pub use world::{run_ranks, CcOutcome, MpiConfig, World};

#[cfg(test)]
mod tests {
    use super::*;
    use parcoach_front::ast::{ReduceOp, ThreadLevel};
    use std::sync::Arc;
    use std::time::Duration;

    fn world(n: usize) -> Arc<World> {
        World::new(MpiConfig {
            world_size: n,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_secs(5),
        })
    }

    fn fast_world(n: usize) -> Arc<World> {
        World::new(MpiConfig {
            world_size: n,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_millis(200),
        })
    }

    /// Run `f(rank)` on `n` pooled rank threads and collect results.
    fn run_ranks<R: Send>(w: &Arc<World>, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        assert_eq!(w.size(), n, "test worlds are sized to their rank count");
        world::run_ranks(w, f)
    }

    #[test]
    fn barrier_completes() {
        let w = world(4);
        let sig = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let res = run_ranks(&w, 4, |r| w.collective(r, sig, None, true));
        assert!(res.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn allreduce_sums() {
        let w = world(3);
        let sig = Signature::collective(
            CollectiveOp::Allreduce,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 3, |r| {
            w.collective(r, sig, Some(MpiValue::Int(r as i64)), true)
        });
        for r in res {
            assert_eq!(r.unwrap(), MpiValue::Int(3));
        }
    }

    #[test]
    fn bcast_from_root() {
        let w = world(3);
        let sig = Signature::collective(CollectiveOp::Bcast, None, Some(1), Some(MpiType::Float));
        let res = run_ranks(&w, 3, |r| {
            w.collective(r, sig, Some(MpiValue::Float(r as f64 * 10.0)), true)
        });
        for r in res {
            assert_eq!(r.unwrap(), MpiValue::Float(10.0));
        }
    }

    #[test]
    fn reduce_to_root_only() {
        let w = world(3);
        let sig = Signature::collective(
            CollectiveOp::Reduce,
            Some(ReduceOp::Max),
            Some(0),
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 3, |r| {
            w.collective(r, sig, Some(MpiValue::Int(r as i64)), true)
                .unwrap()
        });
        assert_eq!(res[0], MpiValue::Int(2)); // root gets max
        assert_eq!(res[1], MpiValue::Int(1)); // others keep their own
        assert_eq!(res[2], MpiValue::Int(2));
    }

    #[test]
    fn gather_and_allgather() {
        let w = world(3);
        let sig = Signature::collective(CollectiveOp::Gather, None, Some(2), Some(MpiType::Int));
        let res = run_ranks(&w, 3, |r| {
            w.collective(r, sig, Some(MpiValue::Int(r as i64 * 2)), true)
                .unwrap()
        });
        assert_eq!(res[2], MpiValue::ArrayInt(vec![0, 2, 4]));
        assert_eq!(res[0], MpiValue::ArrayInt(vec![]));

        let w = world(3);
        let sig = Signature::collective(CollectiveOp::Allgather, None, None, Some(MpiType::Int));
        let res = run_ranks(&w, 3, |r| {
            w.collective(r, sig, Some(MpiValue::Int(r as i64)), true)
                .unwrap()
        });
        for r in res {
            assert_eq!(r, MpiValue::ArrayInt(vec![0, 1, 2]));
        }
    }

    #[test]
    fn scatter_distributes_roots_array() {
        let w = world(3);
        let sig = Signature::collective(
            CollectiveOp::Scatter,
            None,
            Some(0),
            Some(MpiType::ArrayInt),
        );
        let res = run_ranks(&w, 3, |r| {
            let payload = if r == 0 {
                MpiValue::ArrayInt(vec![7, 8, 9])
            } else {
                MpiValue::ArrayInt(vec![0, 0, 0])
            };
            w.collective(r, sig, Some(payload), true).unwrap()
        });
        assert_eq!(
            res,
            vec![MpiValue::Int(7), MpiValue::Int(8), MpiValue::Int(9)]
        );
    }

    #[test]
    fn scan_prefix() {
        let w = world(4);
        let sig = Signature::collective(
            CollectiveOp::Scan,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 4, |r| {
            w.collective(r, sig, Some(MpiValue::Int(1)), true).unwrap()
        });
        assert_eq!(
            res,
            vec![
                MpiValue::Int(1),
                MpiValue::Int(2),
                MpiValue::Int(3),
                MpiValue::Int(4)
            ]
        );
    }

    #[test]
    fn alltoall_transposes() {
        let w = world(2);
        let sig =
            Signature::collective(CollectiveOp::Alltoall, None, None, Some(MpiType::ArrayInt));
        let res = run_ranks(&w, 2, |r| {
            let payload = MpiValue::ArrayInt(vec![10 * r as i64, 10 * r as i64 + 1]);
            w.collective(r, sig, Some(payload), true).unwrap()
        });
        assert_eq!(res[0], MpiValue::ArrayInt(vec![0, 10]));
        assert_eq!(res[1], MpiValue::ArrayInt(vec![1, 11]));
    }

    #[test]
    fn reduce_scatter_combines() {
        let w = world(2);
        let sig = Signature::collective(
            CollectiveOp::ReduceScatter,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::ArrayInt),
        );
        let res = run_ranks(&w, 2, |r| {
            let payload = MpiValue::ArrayInt(vec![1 + r as i64, 10 + r as i64]);
            w.collective(r, sig, Some(payload), true).unwrap()
        });
        // Element-wise sums: [3, 21]; rank r gets element r.
        assert_eq!(res, vec![MpiValue::Int(3), MpiValue::Int(21)]);
    }

    #[test]
    fn mismatch_detected() {
        let w = fast_world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.collective(
                    0,
                    Signature::collective(CollectiveOp::Barrier, None, None, None),
                    None,
                    true,
                )
            } else {
                w.collective(
                    1,
                    Signature::collective(
                        CollectiveOp::Allreduce,
                        Some(ReduceOp::Sum),
                        None,
                        Some(MpiType::Int),
                    ),
                    Some(MpiValue::Int(1)),
                    true,
                )
            }
        });
        let failures = res.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 2, "{res:?}");
        assert!(res
            .iter()
            .any(|r| matches!(r, Err(MpiError::CollectiveMismatch { .. }))));
    }

    #[test]
    fn root_mismatch_detected() {
        let w = fast_world(2);
        let res = run_ranks(&w, 2, |r| {
            let sig = Signature::collective(
                CollectiveOp::Bcast,
                None,
                Some(r), // each rank names itself as root → mismatch
                Some(MpiType::Int),
            );
            w.collective(r, sig, Some(MpiValue::Int(0)), true)
        });
        assert!(res
            .iter()
            .any(|r| matches!(r, Err(MpiError::CollectiveMismatch { .. }))));
    }

    #[test]
    fn rank_finishing_early_detected() {
        let w = fast_world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                let out = w.collective(
                    0,
                    Signature::collective(CollectiveOp::Barrier, None, None, None),
                    None,
                    true,
                );
                w.finish_rank(0);
                out
            } else {
                // Rank 1 exits without the barrier.
                std::thread::sleep(Duration::from_millis(20));
                w.finish_rank(1);
                Ok(MpiValue::Int(0))
            }
        });
        assert!(
            res.iter().any(|r| matches!(
                r,
                Err(MpiError::Aborted(_)) | Err(MpiError::RankFinishedEarly { .. })
            )),
            "{res:?}"
        );
        assert!(matches!(
            w.abort_reason(),
            Some(MpiError::RankFinishedEarly { .. })
        ));
    }

    #[test]
    fn count_mismatch_is_deadlock() {
        // Rank 0 does 2 barriers, rank 1 does 1 then finishes.
        let w = fast_world(2);
        let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.collective(0, bar, None, true)?;
                let out = w.collective(0, bar, None, true);
                w.finish_rank(0);
                out.map(|_| ())
            } else {
                w.collective(1, bar, None, true)?;
                w.finish_rank(1);
                Ok(())
            }
        });
        assert!(
            res.iter().any(|r| r.is_err()),
            "count mismatch must be detected: {res:?}"
        );
    }

    #[test]
    fn cc_unanimous_and_mismatched() {
        let w = world(3);
        let res = run_ranks(&w, 3, |r| w.control_cc(r, 7, true).unwrap());
        for out in &res {
            assert!(out.unanimous());
            assert_eq!(out.colors, vec![7, 7, 7]);
        }
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            w.control_cc(r, if r == 0 { 1 } else { 2 }, true).unwrap()
        });
        for out in &res {
            assert!(!out.unanimous());
            assert_eq!(out.colors, vec![1, 2]);
        }
    }

    #[test]
    fn send_recv_roundtrip() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.send(0, 1, 42, MpiValue::Int(99), true).unwrap();
                MpiValue::Int(0)
            } else {
                w.recv(1, 0, 42, true).unwrap()
            }
        });
        assert_eq!(res[1], MpiValue::Int(99));
    }

    #[test]
    fn recv_matches_tag() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.send(0, 1, 1, MpiValue::Int(1), true).unwrap();
                w.send(0, 1, 2, MpiValue::Int(2), true).unwrap();
                vec![]
            } else {
                // Receive tag 2 first, then tag 1.
                let a = w.recv(1, 0, 2, true).unwrap();
                let b = w.recv(1, 0, 1, true).unwrap();
                vec![a, b]
            }
        });
        assert_eq!(res[1], vec![MpiValue::Int(2), MpiValue::Int(1)]);
    }

    #[test]
    fn recv_without_send_deadlocks() {
        let w = fast_world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 1 {
                let out = w.recv(1, 0, 5, true);
                w.finish_rank(1);
                out.map(|_| ())
            } else {
                w.finish_rank(0);
                Ok(())
            }
        });
        assert!(
            res.iter().any(|r| matches!(
                r,
                Err(MpiError::Deadlock { .. })
                    | Err(MpiError::Timeout { .. })
                    | Err(MpiError::Aborted(_))
            )),
            "{res:?}"
        );
    }

    #[test]
    fn serialized_level_rejects_concurrent_calls() {
        // Two ranks so the deadlock census cannot fire while rank 1 is
        // still running user code.
        let w = World::new(MpiConfig {
            world_size: 2,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_secs(2),
        });
        w.init(0, ThreadLevel::Serialized);
        // Two threads of rank 0 inside MPI simultaneously: one blocks in
        // recv, the other then calls send.
        let res = std::thread::scope(|s| {
            let w1 = w.clone();
            let h1 = s.spawn(move || w1.recv(0, 0, 9, true));
            std::thread::sleep(Duration::from_millis(50));
            let w2 = w.clone();
            let h2 = s.spawn(move || w2.send(0, 0, 9, MpiValue::Int(1), false));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert!(
            matches!(res.1, Err(MpiError::ThreadLevelViolation { .. })),
            "{:?}",
            res.1
        );
    }

    #[test]
    fn funneled_rejects_non_main_thread() {
        let w = world(1);
        w.init(0, ThreadLevel::Funneled);
        let err = w.send(0, 0, 1, MpiValue::Int(1), false).unwrap_err();
        assert!(matches!(err, MpiError::ThreadLevelViolation { .. }));
    }

    #[test]
    fn multiple_level_allows_concurrency() {
        let w = world(1);
        w.init(0, ThreadLevel::Multiple);
        assert!(w.send(0, 0, 1, MpiValue::Int(1), false).is_ok());
        assert!(w.recv(0, 0, 1, false).is_ok());
    }

    #[test]
    fn init_caps_at_implementation_level() {
        let w = World::new(MpiConfig {
            world_size: 1,
            max_provided: ThreadLevel::Serialized,
            op_timeout: Duration::from_secs(1),
        });
        let provided = w.init(0, ThreadLevel::Multiple);
        assert_eq!(provided, ThreadLevel::Serialized);
    }

    #[test]
    fn bad_root_rejected() {
        let w = fast_world(2);
        let sig = Signature::collective(CollectiveOp::Bcast, None, Some(5), Some(MpiType::Int));
        let err = w
            .collective(0, sig, Some(MpiValue::Int(1)), true)
            .unwrap_err();
        assert!(matches!(err, MpiError::ArgError(_)));
    }

    #[test]
    fn short_scatter_array_rejected() {
        let w = fast_world(2);
        let sig = Signature::collective(
            CollectiveOp::Scatter,
            None,
            Some(0),
            Some(MpiType::ArrayInt),
        );
        let res = run_ranks(&w, 2, |r| {
            w.collective(r, sig, Some(MpiValue::ArrayInt(vec![1])), true)
        });
        assert!(res
            .iter()
            .any(|r| matches!(r, Err(MpiError::ArgError(_)) | Err(MpiError::Aborted(_)))));
    }

    #[test]
    fn pipelined_collectives_many_rounds() {
        let w = world(4);
        let sig = Signature::collective(
            CollectiveOp::Allreduce,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 4, |r| {
            let mut acc = 0;
            for round in 0..50 {
                let out = w
                    .collective(r, sig, Some(MpiValue::Int(round)), true)
                    .unwrap();
                acc += out.as_int();
            }
            acc
        });
        // Each round sums 4×round.
        let expected: i64 = (0..50).map(|x| 4 * x).sum();
        for r in res {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn abort_interrupts_blocked_ranks() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.collective(
                    0,
                    Signature::collective(CollectiveOp::Barrier, None, None, None),
                    None,
                    true,
                )
                .map(|_| ())
            } else {
                std::thread::sleep(Duration::from_millis(30));
                w.abort(MpiError::ArgError("external abort".into()));
                Ok(())
            }
        });
        assert!(matches!(res[0], Err(MpiError::Aborted(_))), "{res:?}");
    }

    #[test]
    fn finalize_synchronizes() {
        let w = world(3);
        let res = run_ranks(&w, 3, |r| w.finalize(r, true));
        assert!(res.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn comm_split_partitions_by_color() {
        let w = world(4);
        let sig = Signature::collective(
            CollectiveOp::Allreduce,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 4, |r| {
            let c = w.comm_split(r, world::COMM_WORLD, (r % 2) as i64, r as i64, true)?;
            assert_eq!(w.comm_size(c), Some(2));
            assert_eq!(w.comm_rank(r, c), Some(r / 2));
            // Sum of global ranks within the parity class.
            w.collective_on(r, c, sig, Some(MpiValue::Int(r as i64)), true)
        });
        assert_eq!(res[0].clone().unwrap(), MpiValue::Int(2)); // 0 + 2
        assert_eq!(res[1].clone().unwrap(), MpiValue::Int(4)); // 1 + 3
        assert_eq!(res[2].clone().unwrap(), MpiValue::Int(2));
        assert_eq!(res[3].clone().unwrap(), MpiValue::Int(4));
    }

    #[test]
    fn comm_split_key_orders_local_ranks() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            // Reversed keys: rank 1 gets local rank 0.
            let c = w
                .comm_split(r, world::COMM_WORLD, 0, -(r as i64), true)
                .unwrap();
            w.comm_rank(r, c).unwrap()
        });
        assert_eq!(res, vec![1, 0]);
    }

    #[test]
    fn comm_dup_has_separate_matching_space() {
        let w = fast_world(2);
        let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let red = Signature::collective(
            CollectiveOp::Allreduce,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        // Barrier on the dup and allreduce on the world interleave per
        // communicator without a mismatch.
        let res = run_ranks(&w, 2, |r| {
            let c = w.comm_dup(r, world::COMM_WORLD, true)?;
            w.collective_on(r, c, bar, None, true)?;
            w.collective_on(r, world::COMM_WORLD, red, Some(MpiValue::Int(1)), true)
        });
        for r in res {
            assert_eq!(r.unwrap(), MpiValue::Int(2));
        }
    }

    #[test]
    fn subcomm_send_recv_uses_local_ranks() {
        let w = world(4);
        let res = run_ranks(&w, 4, |r| {
            let c = w
                .comm_split(r, world::COMM_WORLD, (r % 2) as i64, r as i64, true)
                .unwrap();
            let me = w.comm_rank(r, c).unwrap();
            let peer = 1 - me;
            w.send_on(r, c, peer, 7, MpiValue::Int(r as i64), true)
                .unwrap();
            w.recv_on(r, c, peer as i64, 7, true).unwrap()
        });
        // Parity classes {0,2} and {1,3}: each receives its peer's rank.
        assert_eq!(
            res,
            vec![
                MpiValue::Int(2),
                MpiValue::Int(3),
                MpiValue::Int(0),
                MpiValue::Int(1)
            ]
        );
    }

    #[test]
    fn p2p_census_reports_per_comm_totals() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.send(0, 1, 5, MpiValue::Int(9), true).unwrap();
            }
            // Only the sent message exists; nothing was received.
            w.p2p_census(r, true).unwrap()
        });
        for rows in &res {
            let world_row = rows.iter().find(|(h, _, _)| *h == 0).unwrap();
            assert_eq!((world_row.1, world_row.2), (1, 0));
        }
        // Counters reset at the census: a second census reads zero.
        let res = run_ranks(&w, 2, |r| w.p2p_census(r, true).unwrap());
        for rows in &res {
            let world_row = rows.iter().find(|(h, _, _)| *h == 0).unwrap();
            assert_eq!((world_row.1, world_row.2), (0, 0));
        }
    }

    #[test]
    fn isend_irecv_wait_roundtrip() {
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            let peer = 1 - r;
            let rr = w.irecv(r, world::COMM_WORLD, peer as i64, 4, true).unwrap();
            let sr = w
                .isend(
                    r,
                    world::COMM_WORLD,
                    peer,
                    4,
                    MpiValue::Int(10 + r as i64),
                    true,
                )
                .unwrap();
            let got = w.wait(r, rr, true).unwrap();
            assert_eq!(w.wait(r, sr, true).unwrap(), MpiValue::Int(0));
            got
        });
        assert_eq!(res, vec![MpiValue::Int(11), MpiValue::Int(10)]);
    }

    #[test]
    fn wildcard_wait_takes_lowest_sender_first() {
        use parcoach_front::ast::{ANY_SOURCE, ANY_TAG};
        let w = world(3);
        let res = run_ranks(&w, 3, |r| {
            if r == 2 {
                // Both peers have delivered before rank 2 posts: drain
                // with wildcards and observe the deterministic order.
                let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
                w.collective(2, bar, None, true).unwrap();
                let r1 = w
                    .irecv(2, world::COMM_WORLD, ANY_SOURCE, ANY_TAG, true)
                    .unwrap();
                let r2 = w
                    .irecv(2, world::COMM_WORLD, ANY_SOURCE, ANY_TAG, true)
                    .unwrap();
                let a = w.wait(2, r1, true).unwrap();
                let b = w.wait(2, r2, true).unwrap();
                vec![a, b]
            } else {
                w.send(r, 2, 7, MpiValue::Int(r as i64), true).unwrap();
                let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
                w.collective(r, bar, None, true).unwrap();
                vec![]
            }
        });
        // Lowest sender rank first, regardless of arrival interleaving.
        assert_eq!(res[2], vec![MpiValue::Int(0), MpiValue::Int(1)]);
    }

    #[test]
    fn blocking_recv_accepts_wildcards() {
        use parcoach_front::ast::{ANY_SOURCE, ANY_TAG};
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                w.send(0, 1, 3, MpiValue::Float(2.5), true).unwrap();
                MpiValue::Int(0)
            } else {
                w.recv(1, ANY_SOURCE, ANY_TAG, true).unwrap()
            }
        });
        assert_eq!(res[1], MpiValue::Float(2.5));
    }

    #[test]
    fn double_wait_is_an_error() {
        let w = fast_world(1);
        let h = w
            .isend(0, world::COMM_WORLD, 0, 1, MpiValue::Int(1), true)
            .unwrap();
        assert_eq!(w.wait(0, h, true).unwrap(), MpiValue::Int(0));
        let err = w.wait(0, h, true).unwrap_err();
        assert!(matches!(err, MpiError::ArgError(_)), "{err:?}");
    }

    #[test]
    fn concurrent_double_wait_is_an_error_not_a_steal() {
        // Two threads of one rank wait on the same receive request
        // under MPI_THREAD_MULTIPLE: exactly one completes it, the
        // other must observe the retirement and error — not steal the
        // next matching message.
        let w = world(1);
        w.init(0, ThreadLevel::Multiple);
        let h = w.irecv(0, world::COMM_WORLD, 0, 1, true).unwrap();
        let (a, b) = std::thread::scope(|s| {
            let w1 = w.clone();
            let ha = s.spawn(move || w1.wait(0, h, true));
            let w2 = w.clone();
            let hb = s.spawn(move || w2.wait(0, h, false));
            std::thread::sleep(Duration::from_millis(50));
            w.send(0, 0, 1, MpiValue::Int(7), true).unwrap();
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let results = [a, b];
        assert_eq!(
            results.iter().filter(|r| r.is_ok()).count(),
            1,
            "exactly one waiter completes: {results:?}"
        );
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(MpiError::ArgError(_)) | Err(MpiError::Aborted(_)))),
            "the loser reports the double wait: {results:?}"
        );
    }

    /// A request is process-local: each rank numbers its own from 0, so
    /// a handle does not depend on which rank posted first.
    #[test]
    fn request_handles_are_numbered_per_rank() {
        for order in [[0, 1], [1, 0]] {
            let w = fast_world(2);
            for r in order {
                let h = w
                    .isend(r, world::COMM_WORLD, r, 1, MpiValue::Int(1), true)
                    .unwrap();
                assert_eq!(h, 0, "rank {r}'s first request, order {order:?}");
            }
            for r in order {
                assert_eq!(w.wait(r, 0, true).unwrap(), MpiValue::Int(0));
            }
        }
    }

    #[test]
    fn wait_on_foreign_request_rejected() {
        let w = fast_world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                let h = w
                    .isend(0, world::COMM_WORLD, 1, 1, MpiValue::Int(1), true)
                    .unwrap();
                Ok(h)
            } else {
                std::thread::sleep(Duration::from_millis(30));
                // Handles are per rank: rank 1 posted none, so its
                // handle 0 is invalid, whatever rank 0 posted.
                w.wait(1, 0, true).map(|_| 0)
            }
        });
        assert!(
            matches!(
                res[1],
                Err(MpiError::ArgError(_)) | Err(MpiError::Aborted(_))
            ),
            "{:?}",
            res[1]
        );
    }

    #[test]
    fn wait_cycle_detected_not_hung() {
        // Both ranks post pinned irecvs and wait before sending: the
        // wait-for graph 0 → 1 → 0 must be reported (and quickly — via
        // the census, not the timeout).
        let w = World::new(MpiConfig {
            world_size: 2,
            max_provided: ThreadLevel::Single,
            op_timeout: Duration::from_secs(30),
        });
        let t0 = std::time::Instant::now();
        let res = run_ranks(&w, 2, |r| {
            w.init(r, ThreadLevel::Single);
            let peer = 1 - r;
            let h = w.irecv(r, world::COMM_WORLD, peer as i64, 7, true).unwrap();
            let out = w.wait(r, h, true);
            w.finish_rank(r);
            out
        });
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "cycle must be detected by the census, not the 30s timeout"
        );
        let cycle = res
            .iter()
            .find_map(|r| match r {
                Err(MpiError::WaitCycle { cycle, .. }) => Some(cycle.clone()),
                _ => None,
            })
            .expect("wait-for cycle reported");
        let mut sorted = cycle;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn leaked_irecv_shows_in_census() {
        // Rank 1's message is never consumed (the irecv is posted but
        // never waited): the pre-finalize census reads 1 sent / 0
        // received.
        let w = world(2);
        let res = run_ranks(&w, 2, |r| {
            if r == 0 {
                let _leaked = w.irecv(0, world::COMM_WORLD, 1, 5, true).unwrap();
            } else {
                w.send(1, 0, 5, MpiValue::Int(9), true).unwrap();
            }
            w.p2p_census(r, true).unwrap()
        });
        let world_row = res[0].iter().find(|(h, _, _)| *h == 0).unwrap();
        assert_eq!((world_row.1, world_row.2), (1, 0));
    }

    #[test]
    fn send_rejects_wildcard_tags() {
        use parcoach_front::ast::ANY_TAG;
        let w = fast_world(1);
        let err = w.send(0, 0, ANY_TAG, MpiValue::Int(1), true).unwrap_err();
        assert!(matches!(err, MpiError::ArgError(_)), "{err:?}");
    }

    #[test]
    fn collective_on_bad_comm_rejected() {
        let w = fast_world(2);
        let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let err = w.collective_on(0, 42, bar, None, true).unwrap_err();
        assert!(matches!(err, MpiError::ArgError(_)), "{err:?}");
    }

    #[test]
    fn split_negative_color_rejected() {
        let w = fast_world(2);
        let err = w.comm_split(0, world::COMM_WORLD, -1, 0, true).unwrap_err();
        assert!(matches!(err, MpiError::ArgError(_)), "{err:?}");
    }

    #[test]
    fn finished_rank_does_not_hide_a_registered_sibling_thread() {
        // Rank 1 has finished. One thread of rank 0 receives from rank 0
        // while a registered sibling is still about to send: no cycle,
        // since the sibling is alive (the single-slot view saw only the
        // receive and reported "rank 0 waits on rank 0").
        let w = world(2);
        w.init(0, ThreadLevel::Multiple);
        w.thread_started(1);
        w.finish_rank(1);
        w.thread_started(0);
        w.thread_started(0);
        let got = std::thread::scope(|s| {
            let w1 = w.clone();
            let receiver = s.spawn(move || w1.recv(0, 0, 5, true));
            std::thread::sleep(Duration::from_millis(50));
            w.send(0, 0, 5, MpiValue::Float(1.5), false).unwrap();
            w.thread_departed(0);
            receiver.join().unwrap()
        });
        assert_eq!(got, Ok(MpiValue::Float(1.5)));
        // The finalize rank 1 never reaches is still proven, not timed out.
        let err = w.finalize(0, true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "deadlock: all ranks blocked: \
             [rank 0: blocked in collective #0 (MPI_Finalize)] [rank 1: finished]"
        );
    }

    /// The text a blocked operation times out with. Rank 0 (and rank 1)
    /// run `op`; rank 1 then stays in user code until the world aborts,
    /// so the census cannot fire; ranks 2.. have finished before the
    /// start.
    fn timeout_text(size: usize, op: impl Fn(&World, usize) + Sync) -> String {
        let w = World::new(MpiConfig {
            world_size: size,
            max_provided: ThreadLevel::Multiple,
            op_timeout: Duration::from_millis(250),
        });
        for r in 2..size {
            w.finish_rank(r);
        }
        run_ranks(&w, size, |r| {
            if r < 2 {
                op(&w, r);
            }
            while r == 1 && w.abort_reason().is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        w.abort_reason().expect("rank 0 timed out").to_string()
    }

    #[test]
    fn timeout_and_activity_texts_are_pinned() {
        use parcoach_front::ast::{ANY_SOURCE, ANY_TAG};
        let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let dup = |w: &World, r| w.comm_dup(r, world::COMM_WORLD, true).unwrap();
        type Op<'a> = &'a (dyn Fn(&World, usize) + Sync);
        let cases: [(usize, Op, &str); 6] = [
            (
                2,
                &|w, r| {
                    if r == 0 {
                        let _ = w.collective(0, bar, None, true);
                    }
                },
                "timeout in MPI_Barrier on rank 0 (collective #0): \
                 [rank 0: blocked in collective #0 (MPI_Barrier)] [rank 1: running]",
            ),
            (
                2,
                &|w, r| {
                    let c = dup(w, r);
                    if r == 0 {
                        let _ = w.collective_on(0, c, bar, None, true);
                    }
                },
                "timeout in MPI_Barrier on comm #1 on rank 0 (collective #0): \
                 [rank 0: blocked in collective #0 (MPI_Barrier on comm #1)] [rank 1: running]",
            ),
            (
                3,
                &|w, r| {
                    if r == 0 {
                        let _ = w.recv(0, 1, 5, true);
                    }
                },
                "timeout in MPI_Recv(src=1, tag=5) on rank 0: \
                 [rank 0: blocked in MPI_Recv(src=1, tag=5)] [rank 1: running] [rank 2: finished]",
            ),
            (
                2,
                &|w, r| {
                    let c = dup(w, r);
                    if r == 0 {
                        let _ = w.recv_on(0, c, ANY_SOURCE, ANY_TAG, true);
                    }
                },
                "timeout in MPI_Recv(src=ANY, tag=ANY on comm #1) on rank 0: \
                 [rank 0: blocked in MPI_Recv(src=ANY, tag=ANY) on comm #1] [rank 1: running]",
            ),
            (
                2,
                &|w, r| {
                    if r == 0 {
                        let h = w.irecv(0, world::COMM_WORLD, 1, 5, true).unwrap();
                        let _ = w.wait(0, h, true);
                    }
                },
                "timeout in MPI_Wait(req #0) on rank 0: \
                 [rank 0: blocked in MPI_Wait(req #0: src=1, tag=5)] [rank 1: running]",
            ),
            (
                2,
                &|w, r| {
                    let c = dup(w, r);
                    if r == 0 {
                        let h = w.irecv(0, c, ANY_SOURCE, ANY_TAG, true).unwrap();
                        let _ = w.wait(0, h, true);
                    }
                },
                "timeout in MPI_Wait(req #0) on comm #1 on rank 0: \
                 [rank 0: blocked in MPI_Wait(req #0: src=ANY, tag=ANY) on comm #1] \
                 [rank 1: running]",
            ),
        ];
        for (size, op, want) in cases {
            assert_eq!(timeout_text(size, op), want);
        }
    }

    #[test]
    fn subcomm_mismatch_mentions_comm() {
        let w = fast_world(2);
        let bar = Signature::collective(CollectiveOp::Barrier, None, None, None);
        let red = Signature::collective(
            CollectiveOp::Allreduce,
            Some(ReduceOp::Sum),
            None,
            Some(MpiType::Int),
        );
        let res = run_ranks(&w, 2, |r| {
            let c = w.comm_dup(r, world::COMM_WORLD, true)?;
            if r == 0 {
                w.collective_on(0, c, bar, None, true)
            } else {
                w.collective_on(1, c, red, Some(MpiValue::Int(1)), true)
            }
        });
        let msg = res
            .iter()
            .find_map(|r| match r {
                Err(MpiError::CollectiveMismatch { comm, .. }) => Some(*comm),
                _ => None,
            })
            .expect("mismatch detected");
        assert!(msg > 0, "mismatch happened on the dup, not the world");
    }
}
