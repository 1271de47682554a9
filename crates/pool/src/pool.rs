//! The work-stealing compute pool.
//!
//! Workers own LIFO deques and steal FIFO from victims picked by a
//! seeded xorshift sequence; externally submitted tasks land in a shared
//! FIFO injector. The thread that opens a [`Pool::scope`] participates
//! in execution while it waits, so a pool configured for `jobs` total
//! lanes runs `jobs - 1` background workers. With `jobs = 1` there are
//! no background workers at all and every spawn runs inline at the
//! submission point — the sequential reference schedule the determinism
//! tests compare against.
//!
//! Result determinism is *structural*, not scheduling-based: [`par_map`]
//! writes each result into its input's slot and merges in index order,
//! so the output is byte-identical for any worker count and any
//! interleaving. Deterministic mode additionally fixes the victim-
//! selection seed (instead of drawing it from OS entropy) so task
//! placement is reproducible modulo OS timing.
//!
//! [`par_map`]: Pool::par_map

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A lifetime-erased unit of work (see [`Scope::spawn`] for the erasure
/// safety argument).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Pool construction knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total execution lanes (background workers + the scoping caller).
    /// Clamped to at least 1; `1` means fully inline execution.
    pub jobs: usize,
    /// Deterministic mode: victim selection is seeded from `seed`
    /// instead of OS entropy, making task placement reproducible.
    pub deterministic: bool,
    /// Seed for deterministic victim selection.
    pub seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            jobs: default_jobs(),
            deterministic: false,
            seed: 0x5eed_cafe,
        }
    }
}

impl PoolConfig {
    /// Configuration from the environment: `PARCOACH_JOBS` (total
    /// lanes), `PARCOACH_DETERMINISTIC` (`1`/`true`), `PARCOACH_SEED`.
    pub fn from_env() -> PoolConfig {
        let mut cfg = PoolConfig::default();
        if let Some(j) = env_usize("PARCOACH_JOBS") {
            cfg.jobs = j.max(1);
        }
        if let Ok(v) = std::env::var("PARCOACH_DETERMINISTIC") {
            cfg.deterministic = v == "1" || v.eq_ignore_ascii_case("true");
        }
        if let Some(s) = env_usize("PARCOACH_SEED") {
            cfg.seed = s as u64;
        }
        cfg
    }
}

/// Number of lanes when the caller does not say: the machine's
/// available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// xorshift64* with splitmix64 seeding — enough randomness to spread
/// steals, cheap enough to sit on the hot path.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// External submissions (FIFO).
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: owner pops LIFO from the back, thieves steal
    /// FIFO from the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Submission epoch: bumped on every submit so a worker that went
    /// empty-handed only sleeps if nothing arrived since its scan began.
    epoch: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    seed: u64,
    deterministic: bool,
}

thread_local! {
    /// (worker index, owning pool) when the current thread is a pool
    /// worker — lets spawns from inside tasks go to the local deque.
    static CURRENT_WORKER: Cell<Option<(usize, *const ())>> = const { Cell::new(None) };
}

impl Shared {
    /// This thread's worker index *in this pool*, if any.
    fn my_index(self: &Arc<Self>) -> Option<usize> {
        CURRENT_WORKER.with(|c| match c.get() {
            Some((i, p)) if std::ptr::eq(p, Arc::as_ptr(self) as *const ()) => Some(i),
            _ => None,
        })
    }

    fn submit(self: &Arc<Self>, task: Task) {
        match self.my_index() {
            Some(i) => self.queues[i].lock().push_back(task),
            None => self.injector.lock().push_back(task),
        }
        *self.epoch.lock() += 1;
        // One task, one worker: repeated submits wake further workers,
        // and awake workers pick up queued tasks without a wakeup.
        self.wake.notify_one();
    }

    /// Pop work: own deque (LIFO), injector (FIFO), then steal from
    /// victims in an `rng`-seeded rotation (FIFO).
    fn find_task(&self, me: Option<usize>, rng: &mut Xorshift) -> Option<Task> {
        if let Some(i) = me {
            if let Some(t) = self.queues[i].lock().pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        if n == 0 {
            return None;
        }
        let start = (rng.next() % n as u64) as usize;
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.queues[victim].lock().pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Seed for lane `lane` (workers 0..n, caller lanes use offsets
    /// above that): stable in deterministic mode, OS entropy otherwise.
    fn lane_seed(&self, lane: u64) -> u64 {
        let base = self.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if self.deterministic {
            base
        } else {
            use std::collections::hash_map::RandomState;
            use std::hash::{BuildHasher, Hasher};
            let mut h = RandomState::new().build_hasher();
            h.write_u64(base);
            h.finish()
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((index, Arc::as_ptr(&shared) as *const ()))));
    let mut rng = Xorshift::new(shared.lane_seed(index as u64));
    loop {
        let epoch = *shared.epoch.lock();
        if let Some(task) = shared.find_task(Some(index), &mut rng) {
            task();
            continue;
        }
        let mut g = shared.epoch.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if *g == epoch {
            shared.wake.wait(&mut g);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Completion tracking for one [`Pool::scope`]: pending-task count plus
/// the first panic any task raised.
#[derive(Default)]
struct ScopeData {
    state: Mutex<ScopeState>,
    done: Condvar,
}

#[derive(Default)]
struct ScopeState {
    pending: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// Spawn handle passed to the closure of [`Pool::scope`]; spawned tasks
/// may borrow anything that outlives `'scope`.
pub struct Scope<'scope> {
    pool: &'scope Pool,
    data: Arc<ScopeData>,
    /// Invariant over 'scope, as std::thread::scope.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn a task into the pool. Runs inline immediately when the pool
    /// has no background workers (`jobs = 1`).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.data.state.lock().pending += 1;
        let data = Arc::clone(&self.data);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut st = data.state.lock();
            if let Err(p) = result {
                st.panic.get_or_insert(p);
            }
            st.pending -= 1;
            drop(st);
            data.done.notify_all();
        });
        // SAFETY: the closure may borrow data of lifetime 'scope. The
        // scope that created `self` does not return before `pending`
        // drops to zero (`wait_scope`), i.e. before this closure has
        // finished running, so the erased borrows never outlive their
        // owners. Only the lifetime is transmuted; the layout of a boxed
        // trait object does not depend on its lifetime parameter.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        if self.pool.shared.queues.is_empty() {
            task(); // jobs = 1: sequential reference schedule
        } else {
            self.pool.shared.submit(task);
        }
    }
}

/// The work-stealing pool. See the module docs for the execution model.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    jobs: usize,
}

impl Pool {
    /// Spin up `cfg.jobs - 1` background workers.
    pub fn new(cfg: PoolConfig) -> Pool {
        let jobs = cfg.jobs.max(1);
        let workers = jobs - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            seed: cfg.seed,
            deterministic: cfg.deterministic,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parcoach-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            jobs,
        }
    }

    /// Total execution lanes (background workers + scoping caller).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Is deterministic mode on?
    pub fn deterministic(&self) -> bool {
        self.shared.deterministic
    }

    /// Run `op` with a [`Scope`]; returns once every task spawned inside
    /// has completed. The calling thread executes queued tasks while it
    /// waits. The first panic from `op` or any task is resumed here.
    pub fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R + 'scope,
    {
        let data = Arc::new(ScopeData::default());
        let scope = Scope {
            pool: self,
            data: Arc::clone(&data),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        self.wait_scope(&data);
        let task_panic = data.state.lock().panic.take();
        match (result, task_panic) {
            (Err(p), _) => resume_unwind(p),
            (_, Some(p)) => resume_unwind(p),
            (Ok(r), None) => r,
        }
    }

    /// Help execute tasks until every task of `data`'s scope completed.
    fn wait_scope(&self, data: &ScopeData) {
        let mut rng = Xorshift::new(self.shared.lane_seed(self.shared.queues.len() as u64 + 1));
        let me = self.shared.my_index();
        loop {
            if data.state.lock().pending == 0 {
                return;
            }
            if let Some(task) = self.shared.find_task(me, &mut rng) {
                task();
                continue;
            }
            // Nothing runnable here: the remaining tasks are in flight on
            // workers (their completion notifies `done`) or were queued
            // after our scan (the submit woke the workers).
            let mut st = data.state.lock();
            if st.pending == 0 {
                return;
            }
            data.done.wait(&mut st);
        }
    }

    /// Map `f` over `items` in parallel; the output preserves input
    /// order (slot-per-item, merged in index order), so it is
    /// byte-identical for any worker count.
    ///
    /// Items are grouped into contiguous chunks (about four per lane) so
    /// that fine-grained inputs — per-function analyses take tens of
    /// microseconds — are not drowned by per-task queue traffic. Chunk
    /// boundaries depend only on the input length, never on timing.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_with(items, &mut (), |_, item| f(item))
    }

    /// [`Pool::par_map`] with scratch space: `f` gets a `&mut S` beside
    /// each item, for vectors it needs only while it runs. `scratch`
    /// serves every item when the map runs inline (one lane, or one
    /// item); each parallel chunk gets an `S::default()` of its own.
    pub fn par_map_with<T, S, R, F>(&self, items: &[T], scratch: &mut S, f: F) -> Vec<R>
    where
        T: Sync,
        S: Default + Send,
        R: Send,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items.iter().map(|item| f(scratch, item)).collect();
        }
        let chunk_size = items.len().div_ceil(self.jobs * 4).max(1);
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        self.scope(|s| {
            for (in_chunk, out_chunk) in items.chunks(chunk_size).zip(out.chunks_mut(chunk_size)) {
                let f = &f;
                s.spawn(move || {
                    let mut scratch = S::default();
                    for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(&mut scratch, item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("scope waited for every par_map task"))
            .collect()
    }

    /// Run `a` on the calling thread while `b` may run on a worker;
    /// returns both results (rayon's `join` shape).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let mut ra = None;
        let mut rb = None;
        self.scope(|s| {
            let rb = &mut rb;
            s.spawn(move || *rb = Some(b()));
            ra = Some(a());
        });
        (
            ra.expect("join closure a ran"),
            rb.expect("scope waited for join closure b"),
        )
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut g = self.shared.epoch.lock();
            *g += 1;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn pool(jobs: usize) -> Pool {
        Pool::new(PoolConfig {
            jobs,
            deterministic: true,
            seed: 7,
        })
    }

    #[test]
    fn par_map_preserves_order() {
        let p = pool(4);
        let items: Vec<u64> = (0..100).collect();
        let out = p.par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_identical_across_job_counts() {
        let items: Vec<u64> = (0..64).collect();
        let expected = pool(1).par_map(&items, |&x| x.wrapping_mul(31).rotate_left(7));
        for jobs in [2, 3, 8] {
            let got = pool(jobs).par_map(&items, |&x| x.wrapping_mul(31).rotate_left(7));
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    /// Inline, the caller's scratch serves every item; in parallel each
    /// chunk has its own, and the results are the same either way.
    #[test]
    fn par_map_with_lends_scratch_per_lane() {
        let items: Vec<u64> = (0..50).collect();
        let seen_before = |seen: &mut Vec<u64>, &x: &u64| {
            seen.push(x);
            (x, seen.len())
        };
        let mut inline = Vec::new();
        let out = pool(1).par_map_with(&items, &mut inline, seen_before);
        assert_eq!(inline, items, "one scratch saw every item");
        assert_eq!(out.last(), Some(&(49, 50)));
        let mut unused = Vec::new();
        let par = pool(4).par_map_with(&items, &mut unused, seen_before);
        assert!(unused.is_empty(), "the chunks brought their own");
        let xs: Vec<u64> = par.iter().map(|&(x, _)| x).collect();
        assert_eq!(xs, items);
    }

    #[test]
    fn par_map_borrows_locals() {
        let p = pool(3);
        let data = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens = p.par_map(&data, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
        drop(data); // still owned here: tasks completed inside par_map
    }

    #[test]
    fn scope_runs_all_spawns() {
        let p = pool(4);
        let count = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..200 {
                let count = &count;
                s.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn nested_scopes_from_tasks() {
        let p = pool(4);
        let count = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..4 {
                let p = &p;
                let count = &count;
                s.spawn(move || {
                    p.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_propagates() {
        let p = pool(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            p.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(res.is_err());
        // The pool survives the panic and keeps working.
        assert_eq!(p.par_map(&[1, 2, 3], |&x: &i32| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn join_returns_both() {
        let p = pool(2);
        let (a, b) = p.join(|| 21 * 2, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn single_lane_runs_inline() {
        let p = pool(1);
        assert_eq!(p.jobs(), 1);
        // Inline spawns observe program order.
        let mut log = Vec::new();
        p.scope(|s| {
            let log = &mut log;
            s.spawn(move || log.push(1));
        });
        log.push(2);
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn workers_are_reused_across_scopes() {
        let p = pool(4);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..5 {
            let round: Vec<std::thread::ThreadId> =
                p.par_map(&[0u8; 16], |_| std::thread::current().id());
            ids.extend(round);
        }
        // 3 workers + the caller; never more, however many scopes run.
        assert!(ids.len() <= 4, "thread set grew: {}", ids.len());
    }
}
