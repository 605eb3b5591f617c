//! Deterministic parallel sweep execution.
//!
//! Every paper figure is produced from a sweep of *independent*
//! simulated mpiruns — `nmpiruns` repetitions × message sizes ×
//! algorithm configurations. One run executes on one host thread (the
//! engine's run loop), so this is the only layer that uses more than
//! one host core: [`SweepExecutor`] runs the sweep's points
//! concurrently across a bounded number of in-flight clusters while
//! keeping every artifact *byte-identical* to the sequential path:
//!
//! - **Per-run seed streams.** A repetition's master seed is derived
//!   from the sweep seed and its submission index via
//!   [`Pcg64::stream`] (see [`run_seed`]) — a pure function of the
//!   pair, so a run's randomness never depends on which worker picks
//!   it up or in what order runs finish.
//! - **Ordered collection.** Each run writes its result into the slot
//!   of its submission index; [`SweepExecutor::run`] returns the slots
//!   in submission order. CSV/stdout rendering happens after
//!   collection, in that order, exactly as the sequential loops did.
//! - **Deterministic runs.** Each point is simulated by the
//!   virtual-time engine, which is bit-reproducible regardless of host
//!   scheduling — concurrency adds no nondeterminism *inside* a run
//!   either.
//!
//! The default budget is one run per host core
//! (`available_parallelism`), overridable with `--jobs` on the `hcs`
//! sweep experiments or the `HCS_JOBS` environment variable. The
//! in-flight degree is additionally clamped to the host core count —
//! beyond that, extra executor threads only interleave run working
//! sets on the same cores (cache evictions, no speedup). Memory, not
//! cores, bounds the budget at paper scale: an in-flight run holds
//! ≈ 0.02–0.08 MB per simulated rank.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hcs_sim::lockutil::lock_ignore_poison;
use hcs_sim::rngx::Pcg64;
use hcs_sim::{MachineSpec, RankCtx};

/// Master seed of run `index` within a sweep seeded `seed0`: the first
/// output of [`Pcg64::stream`]`(seed0, index)`. A pure function of the
/// pair — results can never depend on execution interleaving.
pub fn run_seed(seed0: u64, index: u64) -> u64 {
    Pcg64::stream(seed0, index).next_u64()
}

/// Host cores available to this process.
fn host_cores() -> usize {
    // This is the blessed host-introspection site of the workspace
    // (xtask lint `determinism/host-parallelism`): host parallelism
    // may inform *scheduling* here, never simulated results.
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default concurrency budget: one in-flight run per host core, since
/// a run executes on exactly one thread. The rank count of a run does
/// not enter (the parameter is kept for the callers that pass it).
pub fn auto_jobs(_p_per_run: usize) -> usize {
    host_cores()
}

/// The `HCS_JOBS` environment override: unset or empty is `None`,
/// otherwise exactly a positive integer.
///
/// # Panics
/// Panics on any other value, so a typo never selects a budget
/// silently.
pub fn env_jobs() -> Option<usize> {
    jobs_from_env_value(std::env::var("HCS_JOBS").ok().as_deref())
}

/// [`env_jobs`] on an explicit value (the testable half).
fn jobs_from_env_value(value: Option<&str>) -> Option<usize> {
    match value {
        None | Some("") => None,
        Some(v) => match v.parse() {
            Ok(jobs) if jobs > 0 => Some(jobs),
            _ => panic!("HCS_JOBS={v:?} is not a job count: expected a positive integer"),
        },
    }
}

/// Result slot of one submitted run (filled by whichever worker
/// executes it, drained in submission order).
type Slot<T> = Mutex<Option<std::thread::Result<T>>>;

/// A deterministic parallel runner for sweeps of independent runs.
pub struct SweepExecutor {
    jobs: usize,
}

impl SweepExecutor {
    /// An executor with a fixed concurrency budget (clamped to ≥ 1).
    /// `new(1)` is the sequential path: a plain ordered loop on the
    /// calling thread, no executor threads.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Resolves the budget from, in order of precedence: an explicit
    /// `--jobs` flag value, the `HCS_JOBS` environment variable, then
    /// [`auto_jobs`] (which ignores `p_per_run`).
    pub fn from_env(flag: Option<usize>, p_per_run: usize) -> Self {
        let jobs = flag
            .or_else(env_jobs)
            .unwrap_or_else(|| auto_jobs(p_per_run));
        Self::new(jobs)
    }

    /// The concurrency budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes runs `0..n_runs` and returns their results **in
    /// submission order**. `p_per_run` (the simulated ranks of one run)
    /// is not consulted: a run occupies one thread whatever its size.
    ///
    /// `f` must derive everything run-dependent from its index (point
    /// parameters, and seeds via [`run_seed`]); then the result vector
    /// is identical for every jobs setting, which is what the
    /// determinism tests pin.
    ///
    /// A panicking run does not poison its siblings: remaining runs
    /// still execute, and the first panic *by submission order* is
    /// re-thrown after the sweep drains — again matching what the
    /// sequential path would have reported.
    pub fn run<T, F>(&self, n_runs: usize, _p_per_run: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let jobs = self.jobs.min(n_runs).max(1);
        if jobs <= 1 {
            return (0..n_runs).map(f).collect();
        }
        // Oversubscription clamp: more in-flight runs than host cores
        // buys no parallelism, it only interleaves the runs' working
        // sets on the same silicon — context switches plus cache
        // evictions, the p256_jobs4 regression in miniature. The `jobs`
        // knob is a budget; the host caps the in-flight degree. Results
        // are unaffected: run `i`'s output is a pure function of its
        // submission index.
        let in_flight = jobs.min(host_cores());

        let next = AtomicUsize::new(0);
        let slots: Vec<Slot<T>> = (0..n_runs).map(|_| Mutex::new(None)).collect();
        let job_loop = || loop {
            // atomics: work-stealing ticket counter. fetch_add is a
            // full RMW, so every run index is claimed exactly once;
            // the slot write it guards is published by the slot's
            // own mutex, not by this counter's ordering.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_runs {
                break;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(i)));
            *lock_ignore_poison(&slots[i]) = Some(out);
        };
        // The calling thread takes tickets too, so only `in_flight - 1`
        // helpers are spawned (none on a single-core host): a sweep of
        // sub-millisecond runs pays one thread spawn/join less, and the
        // caller does not sit idle in the scope's join.
        std::thread::scope(|scope| {
            for _ in 1..in_flight {
                scope.spawn(job_loop);
            }
            job_loop();
        });

        let mut out = Vec::with_capacity(n_runs);
        let mut first_panic = None;
        for (i, slot) in slots.into_iter().enumerate() {
            let result = lock_ignore_poison(&slot)
                .take()
                .unwrap_or_else(|| panic!("sweep run {i} was never executed"));
            match result {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

/// Runs one independent cluster simulation per point of a sweep and
/// returns the per-rank results, in point order.
///
/// This is the shared seam for the scheme-comparison experiments (fig7,
/// fig9, tuner): each point builds a fresh
/// cluster from `machine` with `seed_of(point, index)` and executes
/// `body` on every rank. `seed_of` must be a pure function of its
/// arguments; points that should share a machine realization (e.g.
/// suites compared at the same message size) simply map to the same
/// seed.
pub fn run_cluster_sweep<P, R, F, S>(
    exec: &SweepExecutor,
    machine: &MachineSpec,
    points: &[P],
    seed_of: S,
    body: F,
) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    S: Fn(&P, usize) -> u64 + Sync,
    F: Fn(&P, &mut RankCtx) -> R + Sync,
{
    let p = machine.topology.total_cores();
    exec.run(points.len(), p, |i| {
        let point = &points[i];
        machine
            .cluster(seed_of(point, i))
            .run(|ctx| body(point, ctx))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_sim::machines;

    fn pingpong_times(p: usize, seed: u64) -> Vec<hcs_sim::SimTime> {
        let cluster = machines::testbed(p.div_ceil(2), 2).cluster(seed);
        cluster.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_t(1, 7, 1.5f64);
                let _: f64 = ctx.recv_t(1, 7);
            } else if ctx.rank() == 1 {
                let v: f64 = ctx.recv_t(0, 7);
                ctx.send_t(0, 7, v);
            }
            ctx.now()
        })
    }

    #[test]
    fn results_are_in_submission_order_for_any_jobs_setting() {
        let sequential =
            SweepExecutor::new(1).run(6, 4, |i| pingpong_times(4, run_seed(11, i as u64)));
        for jobs in [2, 4, 8] {
            let parallel =
                SweepExecutor::new(jobs).run(6, 4, |i| pingpong_times(4, run_seed(11, i as u64)));
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_run_does_not_poison_siblings() {
        let exec = SweepExecutor::new(3);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run(6, 2, |i| {
                if i == 2 {
                    panic!("deliberate failure in run {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                pingpong_times(2, run_seed(13, i as u64))
            })
        }));
        let msg = *result
            .expect_err("sweep must re-throw the run panic")
            .downcast::<String>()
            .expect("panic payload");
        assert!(msg.contains("deliberate failure in run 2"), "{msg}");
        // Every sibling still ran to completion.
        assert_eq!(completed.load(Ordering::Relaxed), 5);
        // The executor still serves a follow-up sweep.
        let again = exec.run(4, 2, |i| pingpong_times(2, run_seed(13, i as u64)));
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn run_seed_is_a_pure_function_of_sweep_seed_and_index() {
        assert_eq!(run_seed(1, 0), run_seed(1, 0));
        assert_ne!(run_seed(1, 0), run_seed(1, 1));
        assert_ne!(run_seed(1, 0), run_seed(2, 0));
    }

    #[test]
    fn default_budget_is_one_run_per_core_whatever_the_rank_count() {
        assert_eq!(auto_jobs(288), auto_jobs(1));
        // The only test in this binary that touches `HCS_JOBS`.
        let ambient = std::env::var_os("HCS_JOBS");
        std::env::remove_var("HCS_JOBS");
        assert_eq!(SweepExecutor::from_env(None, 288).jobs(), auto_jobs(1));
        if let Some(v) = ambient {
            std::env::set_var("HCS_JOBS", v);
        }
    }

    #[test]
    fn hcs_jobs_accepts_a_positive_integer_only() {
        assert_eq!(jobs_from_env_value(None), None);
        assert_eq!(jobs_from_env_value(Some("")), None);
        assert_eq!(jobs_from_env_value(Some("2")), Some(2));
        for typo in ["two", "0", " 2"] {
            let msg = *catch_unwind(|| jobs_from_env_value(Some(typo)))
                .expect_err("a typo must not select a budget")
                .downcast::<String>()
                .expect("panic payload");
            assert!(
                msg.contains("HCS_JOBS") && msg.contains(&format!("{typo:?}")),
                "{msg}"
            );
            assert!(msg.contains("positive integer"), "{msg}");
        }
    }

    #[test]
    fn from_env_prefers_explicit_flag() {
        assert_eq!(SweepExecutor::from_env(Some(3), 1024).jobs(), 3);
        // Zero-clamped to the sequential path.
        assert_eq!(SweepExecutor::new(0).jobs(), 1);
    }
}
