//! Per-thread CPU time and wakeups from `/proc/self/task/*`, grouped by
//! thread name, plus the machine fingerprint stamped on every record.
//!
//! CPU time comes from `sched`'s `se.sum_exec_runtime` (nanosecond
//! resolution) where the kernel provides it; `schedstat` reads zero on
//! some kernels, so the fallback is `stat`'s utime + stime in clock ticks.
//! Wakeups are voluntary context switches from `status`: each one is a
//! sleep the thread later woke from.

use std::collections::BTreeMap;
use std::path::Path;

/// Clock ticks per second for `stat` utime/stime (`_SC_CLK_TCK`, which is
/// 100 on every Linux configuration this runs on).
const CLK_TCK: u64 = 100;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    pub tid: u64,
    pub name: String,
    pub cpu_ns: u64,
    pub wakeups: u64,
}

/// `se.sum_exec_runtime` (milliseconds with a fractional part) in ns.
pub fn parse_sched(text: &str) -> Option<u64> {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("se.sum_exec_runtime"))?;
    let value = line.split(':').nth(1)?.trim();
    let (ms, frac) = value.split_once('.').unwrap_or((value, ""));
    let ms: u64 = ms.parse().ok()?;
    // Up to six fractional digits: nanoseconds.
    let mut ns_frac = 0u64;
    let mut scale = 100_000u64;
    for c in frac.chars().take(6) {
        ns_frac += u64::from(c.to_digit(10)?) * scale;
        scale /= 10;
    }
    Some(ms * 1_000_000 + ns_frac)
}

/// utime + stime from `stat`, in ns. The name field may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / CLK_TCK))
}

/// `voluntary_ctxt_switches` from `status`.
pub fn parse_wakeups(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Reads one task directory (`/proc/self/task/<tid>`).
pub fn read_task(dir: &Path) -> Option<ThreadSample> {
    let tid = dir.file_name()?.to_str()?.parse().ok()?;
    let name = std::fs::read_to_string(dir.join("comm")).ok()?;
    let cpu_ns = std::fs::read_to_string(dir.join("sched"))
        .ok()
        .and_then(|s| parse_sched(&s))
        .or_else(|| {
            std::fs::read_to_string(dir.join("stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
        })?;
    let wakeups = std::fs::read_to_string(dir.join("status"))
        .ok()
        .and_then(|s| parse_wakeups(&s))
        .unwrap_or(0);
    Some(ThreadSample {
        tid,
        name: name.trim().to_string(),
        cpu_ns,
        wakeups,
    })
}

/// Every thread under `root` (normally `/proc/self/task`).
pub fn sample_dir(root: &Path) -> Vec<ThreadSample> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut out: Vec<ThreadSample> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| read_task(&e.path()))
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// CPU ns the calling thread has used so far. Threads that end inside a
/// measured interval report this themselves, since their task directory is
/// gone by the time the interval's closing sample is taken.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/sched")
        .ok()
        .and_then(|s| parse_sched(&s))
        .or_else(|| {
            std::fs::read_to_string("/proc/thread-self/stat")
                .ok()
                .and_then(|s| parse_stat(&s))
        })
        .unwrap_or(0)
}

pub fn sample() -> Vec<ThreadSample> {
    sample_dir(Path::new("/proc/self/task"))
}

/// CPU and wakeups each thread group spent between two samples. A thread
/// born in between counts from zero; one that exited is not counted.
#[derive(Debug, Clone, Default)]
pub struct Usage {
    by_thread: Vec<ThreadSample>,
}

impl Usage {
    pub fn between(before: &[ThreadSample], after: &[ThreadSample]) -> Self {
        let base: BTreeMap<u64, &ThreadSample> = before.iter().map(|t| (t.tid, t)).collect();
        let by_thread = after
            .iter()
            .map(|t| {
                let (cpu0, wake0) = base.get(&t.tid).map_or((0, 0), |b| (b.cpu_ns, b.wakeups));
                ThreadSample {
                    tid: t.tid,
                    name: t.name.clone(),
                    cpu_ns: t.cpu_ns.saturating_sub(cpu0),
                    wakeups: t.wakeups.saturating_sub(wake0),
                }
            })
            .collect();
        Self { by_thread }
    }

    /// (CPU ns, wakeups) summed over threads whose name starts with `prefix`.
    pub fn group(&self, prefix: &str) -> (u64, u64) {
        self.by_thread
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .fold((0, 0), |(c, w), t| (c + t.cpu_ns, w + t.wakeups))
    }

    /// Threads whose name starts with `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.by_thread
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .count()
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine fingerprint stamped on every record: cores, CPU model,
/// active SIMD level, and the commit when the tree is a git checkout.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"simd\": {}, \"commit\": {}}}",
        nproc(),
        json_str(&cpu),
        json_str(hdc::simd::active_label()),
        json_str(&commit())
    )
}

/// The commit `.git/HEAD` names, or `unknown` outside a git checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/task")
    }

    #[test]
    fn parses_the_fixture_tasks() {
        let tasks = sample_dir(&fixture());
        assert_eq!(tasks.len(), 2);
        // Task 101 has `sched`: 1234.567891 ms.
        assert_eq!(
            tasks[0],
            ThreadSample {
                tid: 101,
                name: "reghd-poller-0".to_string(),
                cpu_ns: 1_234_567_891,
                wakeups: 42,
            }
        );
        // Task 102 has no `sched`; `stat` gives utime 7 + stime 5 ticks, and
        // its name holds a space and a parenthesis.
        assert_eq!(tasks[1].tid, 102);
        assert_eq!(tasks[1].name, "bench (rx) 1");
        assert_eq!(tasks[1].cpu_ns, 120_000_000);
        assert_eq!(tasks[1].wakeups, 9);
    }

    #[test]
    fn usage_groups_deltas_by_name_prefix() {
        let t = |tid, name: &str, cpu_ns, wakeups| ThreadSample {
            tid,
            name: name.to_string(),
            cpu_ns,
            wakeups,
        };
        let before = vec![
            t(1, "reghd-poller-0", 100, 5),
            t(2, "reghd-worker-0", 50, 1),
        ];
        let after = vec![
            t(1, "reghd-poller-0", 400, 8),
            t(2, "reghd-worker-0", 80, 2),
            t(3, "reghd-poller-1", 30, 4),
        ];
        let u = Usage::between(&before, &after);
        assert_eq!(u.group("reghd-poller-"), (330, 7));
        assert_eq!(u.group("reghd-"), (360, 8));
        assert_eq!(u.count("reghd-poller-"), 2);
    }

    #[test]
    fn sched_fraction_is_read_as_nanoseconds() {
        assert_eq!(
            parse_sched("se.sum_exec_runtime    :    5.247373\n"),
            Some(5_247_373)
        );
        assert_eq!(parse_sched("se.sum_exec_runtime : 3\n"), Some(3_000_000));
        assert_eq!(parse_sched("nr_switches : 5\n"), None);
    }

    #[test]
    fn live_sample_sees_this_thread() {
        let tasks = sample();
        assert!(!tasks.is_empty());
        assert!(tasks.iter().any(|t| t.cpu_ns > 0));
        assert!(peak_rss_mb() > 0.0);
        assert!(fingerprint().contains("\"nproc\""));
    }
}
