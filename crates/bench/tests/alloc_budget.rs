//! The allocation budget of a cold check, stage by stage.
//!
//! A cold check used to spend 40–50 % of its time in `malloc`/`free`
//! (EXPERIMENTS.md E21, E22): one allocation per identifier occurrence,
//! AST node, CFG edge list and instrumented block, then one per block,
//! statement list, named register and context round. The products now
//! cost a handful of allocations per *function*, and this test keeps it
//! so: allocation counts repeat exactly on any runner, which no timing
//! gate does.
//!
//! An integration test is its own binary, so the counting
//! `#[global_allocator]` touches nothing else. Counts are per thread and
//! the analysis runs on the calling thread, so no other thread
//! allocates behind them.

use parcoach_core::{instrument_module, AnalysisSession, InstrumentMode};
use parcoach_front::parse_and_check;
use parcoach_ir::lower::lower_program;
use parcoach_ir::verify_module;
use parcoach_workloads::{figure1_suite, WorkloadClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// `dealloc` calls made by this thread.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialized thread-locals without destructors, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by `f` on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocation counts of one cold check + selective instrumentation.
#[derive(Debug)]
struct Stages {
    front: u64,
    lower: u64,
    verify: u64,
    check: u64,
    instrument: u64,
    /// `dealloc` calls when every product of the above drops.
    drop_frees: u64,
}

impl Stages {
    fn total(&self) -> u64 {
        self.front + self.lower + self.verify + self.check + self.instrument
    }
}

fn cold_check(name: &str, src: &str) -> Stages {
    let (unit, front) = allocs_in(|| parse_and_check(name, src).expect("workload compiles"));
    let (module, lower) = allocs_in(|| lower_program(&unit.program, &unit.signatures));
    let (errors, verify) = allocs_in(|| verify_module(&module));
    assert!(errors.is_empty(), "{errors:?}");
    let ((session, report), check) = allocs_in(|| {
        let mut session = AnalysisSession::default();
        let report = session.check_module(&module);
        (session, report)
    });
    let (instrumented, instrument) =
        allocs_in(|| instrument_module(&module, &report, InstrumentMode::Selective));
    let before = FREES.with(Cell::get);
    drop((unit, module, errors, session, report, instrumented));
    Stages {
        front,
        lower,
        verify,
        check,
        instrument,
        drop_frees: FREES.with(Cell::get) - before,
    }
}

/// Ceilings: the counts of the last PR that lowered them + 10 %,
/// rounded down (HERA-B then: front 410, lower 982, verify 260, check
/// 1 284, instrument 102, drop 1 435 frees, total 3 038 — 7 419 before
/// it and 29 879 before the budget). The `check` ceilings are lower
/// still: deriving a function's facts in one loop, with no intermediate
/// per-block event vectors, took HERA-B's check to 1 270 and EPCC-B's
/// to 967; keeping events and words as values, with no per-check
/// interning arenas, took them to 1 162 and 887. Naming a callee by
/// its index instead of a `String`, with no name map in the module,
/// took HERA-B's lower to 799 (EPCC-B's to 168), its instrument to 84,
/// its drop to 1 234 frees (EPCC-B's to 341) and its total to 2 714
/// (EPCC-B's to 1 313).
struct Budget {
    workload: &'static str,
    front: u64,
    lower: u64,
    verify: u64,
    check: u64,
    instrument: u64,
    drop_frees: u64,
    total: u64,
}

const BUDGETS: [Budget; 2] = [
    Budget {
        workload: "HERA",
        front: 451,
        lower: 878,
        verify: 286,
        check: 1_279,
        instrument: 92,
        drop_frees: 1_357,
        total: 2_985,
    },
    Budget {
        workload: "EPCC",
        front: 117,
        lower: 184,
        verify: 57,
        check: 976,
        instrument: 112,
        drop_frees: 375,
        total: 1_444,
    },
];

/// One test for both workloads: the counters are per thread, but two
/// tests' first-use initializations (the catalogue) would
/// otherwise land in whichever ran first.
#[test]
fn cold_check_stays_inside_its_allocation_budget() {
    let suite = figure1_suite(WorkloadClass::B);
    for b in &BUDGETS {
        let w = suite
            .iter()
            .find(|w| w.name == b.workload)
            .expect("figure-1 workload");
        // Once untimed: lazy statics (keyword tables)
        // are filled by the first check of the process.
        let _ = cold_check(w.name, &w.source);
        let got = cold_check(w.name, &w.source);
        assert_eq!(
            got.total(),
            cold_check(w.name, &w.source).total(),
            "allocation counts must repeat exactly"
        );
        let rows = [
            ("front", got.front, b.front),
            ("lower", got.lower, b.lower),
            ("verify", got.verify, b.verify),
            ("check", got.check, b.check),
            ("instrument", got.instrument, b.instrument),
            ("drop frees", got.drop_frees, b.drop_frees),
            ("total", got.total(), b.total),
        ];
        let table: String = rows
            .iter()
            .map(|(stage, n, max)| format!("  {stage:<11} {n:>7}  (ceiling {max})\n"))
            .collect();
        println!("{}-B allocations per cold check:\n{table}", b.workload);
        for (stage, n, max) in rows {
            assert!(
                n <= max,
                "{}-B: {stage} made {n} allocations, over its ceiling of {max}\n{table}",
                b.workload
            );
        }
    }
}
