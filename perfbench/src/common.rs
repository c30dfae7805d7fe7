//! Helpers shared by the workloads: the run tally, host timers, order
//! statistics, the output digest and the host facts recorded in the
//! manifest.

use fqms_memctrl::prelude::{MemoryController, ThreadStats};
use fqms_sim::snapshot::Fingerprint;
use std::time::Instant;

/// Value reported for an end-to-end metric on a workload whose traffic
/// does not define it (for example normalized IPC on an engine workload,
/// which has no cores). Every workload reports every end-to-end metric so
/// the result has one key set; the README lists which cells are real.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Simulation runs attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one simulation run. It fails if any of `problems` is
    /// non-empty; each problem is kept for the error report.
    pub fn record(&mut self, run: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors
                .extend(problems.into_iter().map(|p| format!("{run}: {p}")));
        }
    }
}

/// Collects the problems found while checking one run.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Notes a problem unless `ok` holds.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Runs `f` and adds its host duration in seconds to `acc`.
#[inline]
pub fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Runs `f` and returns its result with its host duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut s = 0.0;
    let out = span(&mut s, f);
    (out, s)
}

/// Runs `pass` at least once and again until `seconds` of host time have
/// gone by, returning every pass's result.
pub fn repeat<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass());
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of no values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of already sorted samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One controller's DRAM command counts: activate, precharge, read,
/// write, refresh.
pub fn commands(mc: &MemoryController) -> [u64; 5] {
    let (act, pre, rd, wr, refresh) = mc.dram().command_counts();
    [act, pre, rd, wr, refresh]
}

/// The per-layer `dram.cmd_*` metrics from summed command counts.
pub fn command_metrics(cmds: [u64; 5]) -> [(&'static str, f64); 5] {
    let [act, pre, rd, wr, refresh] = cmds.map(|c| c as f64);
    [
        ("dram.cmd_act", act),
        ("dram.cmd_pre", pre),
        ("dram.cmd_rd", rd),
        ("dram.cmd_wr", wr),
        ("dram.cmd_ref", refresh),
    ]
}

/// Adds `b` into `a` element-wise.
pub fn add_commands(a: &mut [u64; 5], b: [u64; 5]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Row-buffer hits and all row outcomes (hit, closed, conflict) summed
/// over `stats`.
pub fn row_counts<'a>(stats: impl IntoIterator<Item = &'a ThreadStats>) -> (u64, u64) {
    stats.into_iter().fold((0, 0), |(h, a), t| {
        (
            h + t.row_hits,
            a + t.row_hits + t.row_closed + t.row_conflicts,
        )
    })
}

/// FNV-1a digest over every simulated statistic of a workload, so two
/// commits' simulated outputs compare exactly.
pub fn digest(workload: &str) -> Fingerprint {
    Fingerprint::new(&format!("perfbench-{workload}"))
}

/// The process's peak resident set in MiB (`VmHWM`), if the host reports
/// it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{name}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
