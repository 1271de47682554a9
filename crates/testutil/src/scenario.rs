//! Structured scenario generator for differential fuzzing.
//!
//! [`Scenario::generate`] builds a seeded random MiniHPC program over
//! the **full scenario grammar** the analyses cover: collectives
//! (uniform, divergent, balanced, looped), communicator `split`/`dup`,
//! blocking and non-blocking point-to-point (`MPI_Isend`/`MPI_Irecv`/
//! `MPI_Wait`/`MPI_Waitall`), `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcards,
//! thread regions (`parallel`, `single`, `master`, `sections`, `pfor`,
//! `nowait`) and `MPI_Init_thread` levels, plus interprocedural calls
//! into generated helper functions.
//!
//! Unlike the correct-by-construction generators in
//! `tests/properties.rs`, these programs are **deliberately allowed to
//! be erroneous** — each statement kind is either a known-correct
//! pattern, a known error pattern, a known static false positive, or a
//! known static blind spot. The differential oracle
//! (`crates/fuzz`) runs the static phases and the instrumented
//! simulator on each and diffs the verdicts.
//!
//! Two properties matter and are pinned by tests in `crates/fuzz`:
//!
//! 1. **Validity** — every generated program parses, type-checks,
//!    lowers and passes IR verification (an invalid program is a
//!    generator bug, never a "disagreement").
//! 2. **Dynamic determinism** — the grammar is *biased away* from the
//!    catalogue's schedule-dependent (`MayFail`) combinations: no
//!    nested parallelism, `single`-wrapped MPI only at
//!    `SERIALIZED`/`MULTIPLE`, `master`-wrapped only at `FUNNELED` and
//!    above, and whole-team point-to-point only at `MULTIPLE`. The
//!    remaining error patterns fail (or stay clean) on every schedule,
//!    so one seed maps to one summary.
//!
//! The scenario keeps its statement structure ([`Scenario::helpers`],
//! [`Scenario::main_stmts`]) so the delta-debugging minimizer can drop
//! statements and re-render without re-parsing source text.

use crate::rng::Rng;

/// The `MPI_Init` variant a scenario starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitLevel {
    /// `MPI_Init()` — thread level defaults to SINGLE.
    Plain,
    /// `MPI_Init_thread(FUNNELED)`.
    Funneled,
    /// `MPI_Init_thread(SERIALIZED)`.
    Serialized,
    /// `MPI_Init_thread(MULTIPLE)`.
    Multiple,
}

impl InitLevel {
    /// The init statement this level renders to.
    pub fn stmt(self) -> &'static str {
        match self {
            InitLevel::Plain => "MPI_Init();",
            InitLevel::Funneled => "MPI_Init_thread(FUNNELED);",
            InitLevel::Serialized => "MPI_Init_thread(SERIALIZED);",
            InitLevel::Multiple => "MPI_Init_thread(MULTIPLE);",
        }
    }

    fn at_least_serialized(self) -> bool {
        matches!(self, InitLevel::Serialized | InitLevel::Multiple)
    }

    fn at_least_funneled(self) -> bool {
        !matches!(self, InitLevel::Plain)
    }
}

/// One generated helper function (body statements only; the prologue is
/// rendered by [`Scenario::render`]).
#[derive(Debug, Clone)]
pub struct GenFunc {
    /// Function name (`work_0`, `work_1`, …).
    pub name: String,
    /// Self-contained body statements.
    pub stmts: Vec<String>,
}

/// A generated fuzzing scenario: structure preserved for minimization.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed that produced it (reproduction handle).
    pub seed: u64,
    /// `MPI_Init` variant.
    pub level: InitLevel,
    /// Helper functions, in definition order.
    pub helpers: Vec<GenFunc>,
    /// Statements of `main`, between init and finalize.
    pub main_stmts: Vec<String>,
}

/// Size knobs for the generator.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Maximum helper functions (0..=max).
    pub max_helpers: usize,
    /// Statements in `main` (1..=max).
    pub max_main_stmts: usize,
    /// Statements per helper (1..=max).
    pub max_helper_stmts: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            max_helpers: 2,
            max_main_stmts: 5,
            max_helper_stmts: 2,
        }
    }
}

/// Where a statement will live (some constructs are `main`-only).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Host {
    Main,
    Helper,
}

impl Scenario {
    /// Generate the scenario for a seed with default sizes.
    pub fn generate(seed: u64) -> Scenario {
        Scenario::generate_with(seed, &ScenarioConfig::default())
    }

    /// Generate with explicit size knobs.
    pub fn generate_with(seed: u64, cfg: &ScenarioConfig) -> Scenario {
        let mut rng = Rng::new(seed);
        let level = *rng.pick(&[
            InitLevel::Plain,
            InitLevel::Funneled,
            InitLevel::Serialized,
            InitLevel::Multiple,
            // Bias towards the levels that legalize the most grammar.
            InitLevel::Serialized,
            InitLevel::Multiple,
        ]);
        let mut fresh = 0u32;
        let nhelpers = rng.below(cfg.max_helpers + 1);
        let mut helpers = Vec::new();
        for h in 0..nhelpers {
            let n = rng.range_usize(1, cfg.max_helper_stmts + 1);
            let stmts = (0..n)
                .map(|_| gen_stmt(&mut rng, Host::Helper, level, &mut fresh, &[]))
                .collect();
            helpers.push(GenFunc {
                name: format!("work_{h}"),
                stmts,
            });
        }
        let names: Vec<String> = helpers.iter().map(|h| h.name.clone()).collect();
        let n = rng.range_usize(1, cfg.max_main_stmts + 1);
        let main_stmts = (0..n)
            .map(|_| gen_stmt(&mut rng, Host::Main, level, &mut fresh, &names))
            .collect();
        Scenario {
            seed,
            level,
            helpers,
            main_stmts,
        }
    }

    /// Total removable statements (the minimizer's progress metric).
    pub fn stmt_count(&self) -> usize {
        self.main_stmts.len() + self.helpers.iter().map(|h| h.stmts.len()).sum::<usize>()
    }

    /// Render to MiniHPC source. Init, the prologue (`acc`, `peer`) and
    /// finalize are structural — the minimizer never removes them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for h in &self.helpers {
            out.push_str(&render_fn(&h.name, None, &h.stmts, Layout::DEFAULT));
            out.push('\n');
        }
        out.push_str(&render_fn(
            "main",
            Some(self.level),
            &self.main_stmts,
            Layout::DEFAULT,
        ));
        out.push('\n');
        out
    }
}

/// How a function body is laid out — whitespace only, never statements.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Spaces before every body line.
    indent: usize,
    /// A blank line before every `blank_every`-th body line (0 = none).
    blank_every: usize,
}

impl Layout {
    /// What [`Scenario::render`] emits.
    const DEFAULT: Layout = Layout {
        indent: 4,
        blank_every: 0,
    };
}

/// One full function definition (no trailing newline): the prologue
/// every generated statement may rely on (`acc`, `peer`), the body
/// statements, and — for `main`, which is the function given an init
/// level — init first, `print` + finalize last.
fn render_fn(
    name: &str,
    main_level: Option<InitLevel>,
    stmts: &[String],
    layout: Layout,
) -> String {
    let mut lines: Vec<&str> = Vec::with_capacity(stmts.len() + 5);
    lines.extend(main_level.map(InitLevel::stmt));
    lines.extend(["let acc = 1;", "let peer = size() - 1 - rank();"]);
    lines.extend(stmts.iter().map(String::as_str));
    if main_level.is_some() {
        lines.extend(["print(acc);", "MPI_Finalize();"]);
    }
    let mut out = format!("fn {name}() {{\n");
    for (k, line) in lines.into_iter().enumerate() {
        if layout.blank_every != 0 && k % layout.blank_every == 0 {
            out.push('\n');
        }
        out.push_str(&" ".repeat(layout.indent));
        out.push_str(line);
        out.push('\n');
    }
    out.push('}');
    out
}

/// One proposed single-function edit: the payload of a daemon `edit`
/// request.
#[derive(Debug)]
pub struct Edit {
    /// The function to replace.
    pub func: String,
    /// Its full replacement definition.
    pub text: String,
    stmts: Vec<String>,
}

/// The seeded edit stream every daemon soak shares: single-function
/// replacements against a rendered [`Scenario`], of three kinds —
///
/// * **structural** edits of a helper (the body donated by a fresh
///   scenario's first helper);
/// * **whitespace-only** re-renders of a function's *current* body —
///   changed indentation and blank lines, same statements — which keep
///   the function's structure and move every position inside it;
/// * **drop-in edits of `main`** (the statements donated by a fresh
///   scenario's `main`, under the base's init level).
///
/// Donated bodies may be illegal in the target program (a call to a
/// helper it lacks); the daemon rejects those, which is part of what the
/// soaks replay. The stream learns what a function currently holds from
/// [`EditStream::accept`].
#[derive(Debug)]
pub struct EditStream {
    rng: Rng,
    donor_seed: u64,
    cfg: ScenarioConfig,
    level: InitLevel,
    /// Current body statements per function: the helpers, then `main`.
    bodies: Vec<GenFunc>,
}

impl EditStream {
    /// The stream for `base` (as rendered by [`Scenario::render`]);
    /// donors are generated with `cfg`.
    pub fn new(base: &Scenario, cfg: &ScenarioConfig, seed: u64) -> EditStream {
        let mut bodies = base.helpers.clone();
        bodies.push(GenFunc {
            name: "main".to_string(),
            stmts: base.main_stmts.clone(),
        });
        EditStream {
            rng: Rng::new(seed ^ 0x50AC),
            donor_seed: seed.wrapping_mul(31).wrapping_add(1000),
            cfg: cfg.clone(),
            level: base.level,
            bodies,
        }
    }

    fn donor(&mut self) -> Scenario {
        self.donor_seed += 1;
        Scenario::generate_with(self.donor_seed, &self.cfg)
    }

    /// The next edit to try.
    pub fn propose(&mut self) -> Edit {
        let main = self.bodies.len() - 1;
        let kind = self.rng.pick_weighted(&[4, 2, 1]);
        let (target, stmts, layout) = if kind == 1 {
            let target = self.rng.below(self.bodies.len());
            let layout = Layout {
                indent: *self.rng.pick(&[2, 6, 8]),
                blank_every: self.rng.range_usize(1, 4),
            };
            (target, self.bodies[target].stmts.clone(), layout)
        } else if kind == 0 && main > 0 {
            let stmts = loop {
                if let Some(h) = self.donor().helpers.into_iter().next() {
                    break h.stmts;
                }
            };
            (self.rng.below(main), stmts, Layout::DEFAULT)
        } else {
            (main, self.donor().main_stmts, Layout::DEFAULT)
        };
        let func = self.bodies[target].name.clone();
        let main_level = (target == main).then_some(self.level);
        Edit {
            text: render_fn(&func, main_level, &stmts, layout),
            func,
            stmts,
        }
    }

    /// The edit went through: the function now holds its statements.
    pub fn accept(&mut self, edit: &Edit) {
        let body = self.bodies.iter_mut().find(|b| b.name == edit.func);
        body.expect("an edit this stream proposed").stmts = edit.stmts.clone();
    }
}

/// A fresh suffix for register names, unique across the whole program.
fn next(fresh: &mut u32) -> u32 {
    *fresh += 1;
    *fresh
}

/// A tag from a deliberately small range, so independent statements
/// sometimes collide on (comm, tag) keys — the interesting cases.
fn tag(rng: &mut Rng) -> i64 {
    rng.range_i64(1, 6)
}

fn gen_stmt(
    rng: &mut Rng,
    host: Host,
    level: InitLevel,
    fresh: &mut u32,
    helpers: &[String],
) -> String {
    // Weighted family pick: compute, collective, control-flow around
    // collectives, communicators, blocking p2p, non-blocking p2p,
    // thread regions (main only), helper calls (main only).
    let mut families: Vec<(u32, u32)> = vec![
        (0, 2), // compute
        (1, 3), // uniform collective
        (2, 3), // control-flow collective
        (3, 2), // communicator
        (4, 3), // blocking p2p
        (5, 3), // non-blocking p2p
    ];
    if host == Host::Main {
        families.push((6, 3)); // thread region
        families.push((7, 1)); // early return
        if !helpers.is_empty() {
            families.push((8, 2)); // helper call
        }
    }
    let weights: Vec<u32> = families.iter().map(|&(_, w)| w).collect();
    let family = families[rng.pick_weighted(&weights)].0;
    match family {
        0 => compute_stmt(rng, fresh),
        1 => uniform_collective(rng, fresh),
        2 => control_flow_collective(rng, fresh),
        3 => communicator_stmt(rng, fresh),
        4 => blocking_p2p(rng, fresh),
        5 => nonblocking_p2p(rng, fresh),
        6 => thread_region(rng, level, fresh),
        7 => "if (rank() == size() - 1) { return; }".to_string(),
        _ => helper_call(rng, level, helpers),
    }
}

/// Plain computation — noise the minimizer should strip away.
fn compute_stmt(rng: &mut Rng, fresh: &mut u32) -> String {
    match rng.below(3) {
        0 => format!("acc = acc * {} % 997;", rng.range_i64(2, 5)),
        1 => {
            let f = next(fresh);
            let n = rng.range_i64(2, 5);
            format!("for (i{f} in 0..{n}) {{ acc = acc + i{f}; }}")
        }
        _ => {
            let f = next(fresh);
            format!("let x{f} = float_of(acc) * 0.5; acc = acc + int_of(x{f}) % 7;")
        }
    }
}

/// A collective executed uniformly by every rank (correct).
fn uniform_collective(rng: &mut Rng, fresh: &mut u32) -> String {
    let f = next(fresh);
    match rng.below(4) {
        0 => "MPI_Barrier();".to_string(),
        1 => format!("let a{f} = MPI_Allreduce(1.0, SUM); acc = acc + int_of(a{f});"),
        2 => format!("let b{f} = MPI_Bcast(float_of(acc % 7), 0);"),
        _ => format!("let r{f} = MPI_Reduce(float_of(acc), MAX, 0);"),
    }
}

/// Collectives under control flow: true mismatches, static false
/// positives (rank-uniform conditions) and clean balanced arms.
fn control_flow_collective(rng: &mut Rng, fresh: &mut u32) -> String {
    let f = next(fresh);
    match rng.below(6) {
        // Rank-divergent: a real mismatch.
        0 => "if (rank() == 0) { MPI_Barrier(); }".to_string(),
        // Different collectives on the two arms: a real mismatch.
        1 => format!(
            "if (rank() % 2 == 0) {{ MPI_Barrier(); }} \
             else {{ let m{f} = MPI_Allreduce(1, SUM); }}"
        ),
        // Balanced arms: refinement keeps this quiet, runs clean.
        2 => "if (rank() % 2 == 0) { MPI_Barrier(); } else { MPI_Barrier(); }".to_string(),
        // Rank-uniform condition: the classic static false positive.
        3 => "if (size() > 0) { MPI_Barrier(); }".to_string(),
        // Uniform loop bound: static false positive, dynamically clean.
        4 => format!("for (i{f} in 0..3) {{ let u{f} = MPI_Allreduce(i{f}, SUM); }}"),
        // Rank-dependent trip count: a real mismatch.
        _ => format!("let n{f} = 1 + rank(); for (i{f} in 0..n{f}) {{ MPI_Barrier(); }}"),
    }
}

/// Communicator management plus per-communicator collectives.
fn communicator_stmt(rng: &mut Rng, fresh: &mut u32) -> String {
    let f = next(fresh);
    match rng.below(4) {
        // Dup + collective on it: correct.
        0 => format!("let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); MPI_Barrier(c{f});"),
        // Parity split + collective on the halves: correct.
        1 => format!(
            "let c{f} = MPI_Comm_split(MPI_COMM_WORLD, rank() % 2, rank()); \
             let s{f} = MPI_Allreduce(rank() + 1, SUM, c{f});"
        ),
        // Split used by a subset of its members: a real mismatch.
        2 => format!(
            "let c{f} = MPI_Comm_split(MPI_COMM_WORLD, 0, rank()); \
             if (rank() == 0) {{ MPI_Barrier(c{f}); }}"
        ),
        // Different communicators on the two arms: a real mismatch.
        _ => format!(
            "let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); \
             if (rank() % 2 == 0) {{ MPI_Barrier(c{f}); }} else {{ MPI_Barrier(); }}"
        ),
    }
}

/// Blocking point-to-point: matched pairs, deadlocks, leaks, and the
/// self-pinned receive the static key-based matcher cannot see.
fn blocking_p2p(rng: &mut Rng, fresh: &mut u32) -> String {
    let f = next(fresh);
    let t = tag(rng);
    match rng.below(7) {
        // Eager send then receive: correct under the buffered model.
        0 => format!(
            "MPI_Send(acc, peer, {t}); let v{f} = MPI_Recv(peer, {t}); \
             acc = acc + int_of(v{f}) % 5;"
        ),
        // Head-to-head receive-then-send: genuine deadlock.
        1 => format!("let v{f} = MPI_Recv(peer, {t}); MPI_Send(acc, peer, {t});"),
        // Send tag != recv tag: unmatched traffic.
        2 => format!(
            "MPI_Send(1.5, peer, {t}); let v{f} = MPI_Recv(peer, {});",
            t + 10
        ),
        // A send nothing ever receives (latent; census-caught).
        3 => format!("MPI_Send(42, peer, {});", t + 20),
        // A receive nothing ever sends: deadlock.
        4 => format!("let v{f} = MPI_Recv(peer, {});", t + 30),
        // Receive pinned to self while the send goes cross-rank: the
        // (comm, tag) keys match statically, the run deadlocks — a
        // static blind spot (false-negative candidate).
        5 => format!("MPI_Send(acc, peer, {t}); let v{f} = MPI_Recv(rank(), {t});"),
        // Rank-ordered ping-pong: correct.
        _ => format!(
            "if (rank() == 0) {{ MPI_Send(1.0, peer, {t}); let v{f} = MPI_Recv(peer, {t}); }} \
             else {{ let w{f} = MPI_Recv(peer, {t}); MPI_Send(2.0, peer, {t}); }}"
        ),
    }
}

/// Non-blocking point-to-point with wildcards.
fn nonblocking_p2p(rng: &mut Rng, fresh: &mut u32) -> String {
    let f = next(fresh);
    let t = tag(rng);
    match rng.below(8) {
        // Post, send, wait: the correct overlap pattern.
        0 => format!(
            "let r{f} = MPI_Irecv(peer, {t}); MPI_Send(1.0, peer, {t}); \
             let v{f} = MPI_Wait(r{f});"
        ),
        // Wait before the matching send: genuine wait cycle.
        1 => format!(
            "let r{f} = MPI_Irecv(peer, {t}); let v{f} = MPI_Wait(r{f}); \
             MPI_Send(1.0, peer, {t});"
        ),
        // Isend whose request is never completed: leak.
        2 => format!("let s{f} = MPI_Isend(acc, peer, {});", t + 20),
        // Four-request waitall exchange: correct.
        3 => format!(
            "let r{f} = MPI_Irecv(peer, {t}); let q{f} = MPI_Irecv(peer, {});\n    \
             let s{f} = MPI_Isend(10 + rank(), peer, {t}); \
             let u{f} = MPI_Isend(20 + rank(), peer, {});\n    \
             MPI_Waitall(r{f}, q{f}, s{f}, u{f});",
            t + 10,
            t + 10
        ),
        // Waitall over receives posted before any send: wait cycle
        // across two communicators.
        4 => format!(
            "let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); \
             let r{f} = MPI_Irecv(peer, {t}); let q{f} = MPI_Irecv(peer, {t}, c{f});\n    \
             MPI_Waitall(r{f}, q{f}); \
             MPI_Send(1.0, peer, {t}); MPI_Send(2.0, peer, {t}, c{f});"
        ),
        // Wildcard collector: correct from any source.
        5 => format!(
            "if (rank() == 0) {{ let r{f} = MPI_Irecv(MPI_ANY_SOURCE, {t}); \
             let v{f} = MPI_Wait(r{f}); }} else {{ MPI_Send(1.5, 0, {t}); }}"
        ),
        // Collector pinned to the wrong source: statically the keys
        // match, dynamically a wait-for self-loop (false-negative
        // candidate — the `wildcard-pinned-deadlock` family).
        6 => format!(
            "if (rank() == 0) {{ let r{f} = MPI_Irecv(0, {t}); \
             let v{f} = MPI_Wait(r{f}); }} else {{ MPI_Send(1.5, 0, {t}); }}"
        ),
        // Fully wildcarded receive on a duplicated communicator: its
        // matching space is isolated, correct.
        _ => format!(
            "let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); \
             let r{f} = MPI_Irecv(MPI_ANY_SOURCE, MPI_ANY_TAG, c{f});\n    \
             let s{f} = MPI_Isend(rank() + 1, peer, {t}, c{f}); \
             MPI_Barrier(); MPI_Waitall(r{f}, s{f});"
        ),
    }
}

/// Thread regions (`main` only; never nested). Constructs whose dynamic
/// outcome is schedule-dependent at the scenario's thread level are not
/// generated — see the module docs.
fn thread_region(rng: &mut Rng, level: InitLevel, fresh: &mut u32) -> String {
    let f = next(fresh);
    let t = tag(rng);
    // Choices legal at every level: whole-team collective and pfor
    // collective (both fail deterministically via the monothread
    // assert) — plus compute-only regions.
    let mut choices: Vec<u32> = vec![0, 1, 2];
    if level.at_least_funneled() {
        choices.push(3); // master-wrapped collective
    }
    if level.at_least_serialized() {
        choices.extend([4, 5, 6, 7]); // single-wrapped patterns
    }
    if level == InitLevel::Multiple {
        choices.extend([8, 9, 10]); // THREAD_MULTIPLE-correct patterns
    }
    match *rng.pick(&choices) {
        // Compute-only region: correct.
        0 => {
            format!("parallel num_threads(2) {{ pfor (j{f} in 0..8) {{ let w{f} = j{f} * 2; }} }}")
        }
        // Whole-team collective: error (monothread assert).
        1 => "parallel num_threads(2) { MPI_Barrier(); }".to_string(),
        // Collective in a worksharing loop: error.
        2 => format!(
            "parallel num_threads(2) {{ pfor (j{f} in 0..4) {{ \
             let w{f} = MPI_Allreduce(j{f}, SUM); }} }}"
        ),
        // Master-wrapped collective + team barrier: correct (FUNNELED+).
        3 => format!(
            "parallel num_threads(2) {{ master {{ let m{f} = MPI_Allreduce(1, SUM); }} \
             barrier; }}"
        ),
        // Single-wrapped collective: correct (SERIALIZED+).
        4 => "parallel num_threads(2) { single { MPI_Barrier(); } }".to_string(),
        // Two ordered singles: correct.
        5 => format!(
            "parallel num_threads(2) {{ single {{ MPI_Barrier(); }} \
             single {{ let o{f} = MPI_Allreduce(1, SUM); }} }}"
        ),
        // Two nowait singles: concurrent collective regions, error.
        6 => format!(
            "parallel num_threads(4) {{ single nowait {{ MPI_Barrier(); }} \
             single nowait {{ let n{f} = MPI_Allreduce(1, SUM); }} barrier; }}"
        ),
        // Nowait single inside a loop: self-concurrent, error.
        7 => format!(
            "parallel num_threads(4) {{ for (k{f} in 0..3) {{ \
             single nowait {{ let l{f} = MPI_Allreduce(k{f}, SUM); }} }} barrier; }}"
        ),
        // Sibling sections send/receive: MULTIPLE-correct.
        8 => format!(
            "parallel num_threads(2) {{ sections {{ \
             section {{ MPI_Send(3.5, peer, {t}); }} \
             section {{ let v{f} = MPI_Recv(peer, {t}); }} }} }}"
        ),
        // Concurrent collectives on unrelated comms: MULTIPLE-correct.
        9 => format!(
            "let c{f} = MPI_Comm_dup(MPI_COMM_WORLD); \
             parallel num_threads(2) {{ sections {{ \
             section {{ MPI_Barrier(); }} section {{ MPI_Barrier(c{f}); }} }} }}"
        ),
        // Whole-team sends drained afterwards: MULTIPLE-correct.
        _ => format!(
            "parallel num_threads(2) {{ MPI_Send(thread_num(), peer, {t}); }} \
             let a{f} = MPI_Recv(peer, {t}); let b{f} = MPI_Recv(peer, {t});"
        ),
    }
}

/// Call a generated helper, possibly from a divergent or threaded
/// context.
fn helper_call(rng: &mut Rng, level: InitLevel, helpers: &[String]) -> String {
    let name = rng.pick(helpers).clone();
    let mut choices: Vec<u32> = vec![0, 1];
    if level.at_least_serialized() {
        choices.push(2); // single-wrapped call
    }
    if level == InitLevel::Multiple {
        choices.push(3); // whole-team call
    }
    match *rng.pick(&choices) {
        // Uniform call: inherits the helper's behavior.
        0 => format!("{name}();"),
        // Divergent call: mismatch if the helper bears collectives.
        1 => format!("if (rank() == 0) {{ {name}(); }}"),
        // Correctly monothreaded call.
        2 => format!("parallel num_threads(2) {{ single {{ {name}(); }} }}"),
        // Whole-team call: multithreaded-call if collective-bearing.
        _ => format!("parallel num_threads(2) {{ {name}(); }}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = Scenario::generate(seed).render();
            let b = Scenario::generate(seed).render();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn renders_are_structured() {
        for seed in 0..50 {
            let sc = Scenario::generate(seed);
            let src = sc.render();
            assert!(src.contains("fn main()"), "seed {seed}");
            assert!(src.contains("MPI_Init"), "seed {seed}");
            assert!(src.contains("MPI_Finalize();"), "seed {seed}");
            assert!(sc.stmt_count() >= 1, "seed {seed}");
            for h in &sc.helpers {
                assert!(src.contains(&format!("fn {}()", h.name)), "seed {seed}");
            }
        }
    }

    #[test]
    fn seeds_cover_every_level() {
        let mut seen = [false; 4];
        for seed in 0..200 {
            seen[match Scenario::generate(seed).level {
                InitLevel::Plain => 0,
                InitLevel::Funneled => 1,
                InitLevel::Serialized => 2,
                InitLevel::Multiple => 3,
            }] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn restricted_constructs_respect_levels() {
        for seed in 0..300 {
            let sc = Scenario::generate(seed);
            let src = sc.render();
            if !matches!(sc.level, InitLevel::Serialized | InitLevel::Multiple) {
                assert!(!src.contains("single"), "seed {seed}:\n{src}");
            }
            if sc.level == InitLevel::Plain {
                assert!(!src.contains("master"), "seed {seed}:\n{src}");
            }
            if sc.level != InitLevel::Multiple {
                assert!(!src.contains("sections"), "seed {seed}:\n{src}");
            }
            // Never nested parallelism.
            for line in src.lines() {
                assert!(
                    line.matches("parallel ").count() <= 1,
                    "seed {seed}: {line}"
                );
            }
        }
    }
}
