//! Host-side control and accounting: the scrubbed environment, CPU
//! pinning, process CPU time, memory and context switches, and the
//! recorded factors every result carries.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

use crate::json::{n, obj, s, Value};

/// Environment variables that steer the library's host-side policy.
/// They are removed before any workload runs, so every number is the
/// library's own default behaviour.
pub const SCRUBBED_ENV: &[&str] = &[
    "HCS_ENGINE",
    "HCS_JOBS",
    "HCS_EVENT_WORKERS",
    "HCS_EVENT_THREAD_CONT",
    "HCS_BENCH_TARGET_MS",
    "HCS_BENCH_MAX_ITERS",
];

/// Removes [`SCRUBBED_ENV`] from this process. Call first thing in
/// `main`, while the process is still single-threaded.
pub fn scrub_env() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

/// A child-process command with [`SCRUBBED_ENV`] removed.
pub fn scrubbed_command(program: &std::path::Path) -> Command {
    let mut cmd = Command::new(program);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// The CPUs the host allowed before [`pin_to_first_cpu`] narrowed them.
static HOST_CPUS: OnceLock<String> = OnceLock::new();

/// The CPUs this process may run on, as the kernel lists them (`0-1`).
pub fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// The CPUs the host allowed before any pinning.
pub fn host_cpus() -> Option<String> {
    HOST_CPUS.get().cloned().or_else(allowed_cpus)
}

/// Pins this process, and every thread and child it starts from now
/// on, to the first CPU the host allows (through `taskset -p`). Call
/// while the process is still single-threaded.
///
/// Pinning is a controlled, recorded factor: on a small VM a wake-up
/// of a thread on the other, halted vCPU goes through the hypervisor,
/// both engines are 1.5–2.5 × slower whenever their threads really
/// spread over two vCPUs, and the guest flips between the two regimes
/// in stretches of seconds, so an unpinned unit time is a lottery. On
/// one CPU the library sizes its worker pools for one CPU (its own
/// policy) and run-to-run spread drops from 10–50 % to 4–11 %. What
/// pinning hides is measured by the rows that run through
/// [`unpinned_command`].
///
/// Where `taskset` or the CPU list is not available the process stays
/// unpinned, and the `cpus` factor of the record says so.
pub fn pin_to_first_cpu() {
    let Some(host) = allowed_cpus() else { return };
    let first: String = host.chars().take_while(char::is_ascii_digit).collect();
    let pinned = Command::new("taskset")
        .args(["-cp", &first, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if pinned {
        let _ = HOST_CPUS.set(host);
    }
}

/// A scrubbed command for `program` that may run on all of the host's
/// CPUs again (the rows that measure the multi-CPU default need it).
pub fn unpinned_command(program: &std::path::Path) -> Command {
    match HOST_CPUS.get() {
        Some(host) => {
            let mut cmd = scrubbed_command(std::path::Path::new("taskset"));
            cmd.args(["-c", host]).arg(program);
            cmd
        }
        None => scrubbed_command(program),
    }
}

/// Cumulative counters of this process — all of its threads, those
/// that have exited included — at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
    /// Voluntary context switches (a thread blocked or parked).
    pub vol_ctxsw: f64,
    /// Peak resident set size so far, MB.
    pub peak_rss_mb: f64,
}

/// `struct rusage` of 64-bit Linux as an array of `long`s: `ru_utime`
/// and `ru_stime` (seconds, microseconds), `ru_maxrss` in KB, then 13
/// counters of which `ru_minflt` is [8] and `ru_nvcsw` is [16].
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
type RUsage = [i64; 18];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

impl ProcSnapshot {
    /// Reads `getrusage(RUSAGE_SELF)`. `/proc/self/status` would not
    /// do: its context-switch count is the main thread's alone, and the
    /// event workers and rank threads are other threads, many of them
    /// gone by the time the loop ends. All fields stay 0 where the call
    /// is not available (hosts that are not 64-bit Linux).
    pub fn now() -> Self {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let mut ru: RUsage = [0; 18];
            // SAFETY: `ru` is a live, writable buffer of the size and
            // alignment of the C library's `struct rusage` on this
            // target (144 bytes of `long`s), which is all `getrusage`
            // writes to; 0 is `RUSAGE_SELF`.
            if unsafe { getrusage(0, &mut ru) } == 0 {
                return Self {
                    user_s: ru[0] as f64 + ru[1] as f64 / 1e6,
                    sys_s: ru[2] as f64 + ru[3] as f64 / 1e6,
                    peak_rss_mb: ru[4] as f64 / 1024.0,
                    minor_faults: ru[8] as f64,
                    vol_ctxsw: ru[16] as f64,
                };
            }
        }
        Self::default()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The factors recorded in every result file: what was measured, on
/// what, built from what.
pub fn factors(seed: u64, seconds: f64, quick: bool) -> Value {
    obj([
        ("seed", n(seed as f64)),
        ("seconds", n(seconds)),
        ("quick", Value::Bool(quick)),
        // `auto_jobs(1)` is the workspace's blessed host-core query.
        ("host_cores", n(hcs_bench::sweep::auto_jobs(1) as f64)),
        ("git_rev", s(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", s(command_line("rustc", &["-V"]))),
        (
            "scrubbed_env",
            Value::Arr(SCRUBBED_ENV.iter().map(|v| s(*v)).collect()),
        ),
    ])
}
