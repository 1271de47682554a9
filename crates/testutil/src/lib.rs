//! # parcoach-testutil — dependency-free test & bench support
//!
//! The container this repo builds in has no crates.io access, so the
//! property tests and benchmarks that a typical workspace would write
//! against `proptest`/`criterion` are written against this crate
//! instead:
//!
//! * [`rng`] — a deterministic splitmix64/xoshiro-style PRNG plus the
//!   tiny combinators the ported property tests need (ranges, choices,
//!   weighted picks). Each test owns its seed, so failures reproduce by
//!   re-running the test — no shrinking, but the generators are kept
//!   small enough that raw counterexamples are readable.
//! * [`mod@bench`] — a micro-harness exposing the subset of the criterion
//!   API the `parcoach-bench` benches use (`Criterion`,
//!   `benchmark_group`, `bench_with_input`, `BenchmarkId`,
//!   `criterion_group!`, `criterion_main!`). `parcoach-bench` depends on
//!   this crate under the rename `criterion`, keeping the bench sources
//!   source-compatible with the real crate. Reports mean/min/max per
//!   benchmark id on stdout.

//! * [`scenario`] — a structured generator over the full MiniHPC
//!   scenario grammar (collectives × communicators × non-blocking p2p ×
//!   wildcards × thread regions/levels) used by the `crates/fuzz`
//!   differential oracle. Unlike the property-test generators, its
//!   programs may be erroneous on purpose; it guarantees validity
//!   (parse/lower/verify) and schedule-deterministic outcomes instead.
//!   Its [`EditStream`] is the seeded single-function edit generator the
//!   daemon soaks share.

pub mod bench;
pub mod rng;
pub mod scenario;

pub use bench::{Bencher, BenchmarkGroup, BenchmarkId, Criterion};
pub use rng::{case_budget, Rng};
pub use scenario::{Edit, EditStream, GenFunc, InitLevel, Scenario, ScenarioConfig};
