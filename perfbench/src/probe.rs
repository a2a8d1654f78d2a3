//! Process counters read from `/proc/self`, std only.
//!
//! A counter whose file is missing or unparsable is `None`, and the
//! metrics built from it are left out of the report rather than
//! reported as 0.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Cumulative process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User and system CPU seconds (`/proc/self/stat`).
    pub cpu: Option<(f64, f64)>,
    /// `syscr`, `syscw`, `rchar`, `wchar` (`/proc/self/io`).
    pub io: Option<IoCounters>,
}

/// The `/proc/self/io` fields the benchmark reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounters {
    /// Read-class syscalls.
    pub syscr: u64,
    /// Write-class syscalls.
    pub syscw: u64,
    /// Bytes passed to read-class syscalls.
    pub rchar: u64,
    /// Bytes passed to write-class syscalls.
    pub wchar: u64,
}

impl ProcSample {
    /// Read every counter now.
    pub fn now() -> ProcSample {
        ProcSample {
            cpu: fs::read_to_string("/proc/self/stat")
                .ok()
                .and_then(|s| parse_stat(&s)),
            io: fs::read_to_string("/proc/self/io")
                .ok()
                .and_then(|s| parse_io(&s)),
        }
    }
}

/// `(user_s, sys_s)` from the text of `/proc/<pid>/stat`. The command
/// name in field 2 may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_stat(text: &str) -> Option<(f64, f64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime as f64 / USER_HZ, stime as f64 / USER_HZ))
}

fn parse_io(text: &str) -> Option<IoCounters> {
    let field = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
            .and_then(|v| v.trim().parse().ok())
    };
    Some(IoCounters {
        syscr: field("syscr")?,
        syscw: field("syscw")?,
        rchar: field("rchar")?,
        wchar: field("wchar")?,
    })
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) to the current RSS.
/// Returns false when `/proc/self/clear_refs` cannot be written; the
/// peak read afterwards would then span the process lifetime.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` from `/proc/self/status`, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `None` outside a git checkout.
pub fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{refname}")) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(refname)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (a (weird) name) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some((2.5, 0.75)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn io_fields_parse_and_missing_ones_are_none() {
        let text = "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\nread_bytes: 0\n";
        let io = parse_io(text).expect("all fields present");
        assert_eq!((io.syscr, io.syscw, io.rchar, io.wchar), (3, 4, 10, 20));
        assert!(parse_io("rchar: 10\n").is_none());
    }

    #[test]
    fn live_probes_read_this_process() {
        let s = ProcSample::now();
        assert!(s.cpu.is_some() && s.io.is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
