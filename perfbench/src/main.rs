//! Host-time benchmark of the nvm-checkpoints workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hpc_gtc|kv_ycsb_a|ranks_1024> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload repeatedly for about `--seconds` host seconds and
//! prints every metric by name and unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, measured with the
//! timing decorator reduced to its first-`iterate` stamp and with
//! `RunOptions::profile` off. `--trace 1` alternates such runs with
//! traced ones (decorator detail and profile on) and reports the
//! per-layer metrics of the traced runs plus the tracing overhead.
//! Every figure is a median over repetitions, except the CPU times,
//! which `/proc/self/stat` counts in 10 ms ticks and are therefore
//! averaged. All times are host time; simulated time is never
//! reported as a metric.
//!
//! Each run's serialized `RunResult` must be byte-identical across
//! repetitions, and for the threaded workloads identical to a serial
//! reference run; together with each workload's own output checks
//! this decides `failed`. The process exits with 1 when any check
//! fails, and with 2 on bad arguments. Spill and container files live
//! under `.perfbench_tmp/` in the working directory, which is removed
//! on exit.

mod probe;
mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Bench, Kind, Rep};

/// End-to-end metrics: `(name, unit)`. Each applies to every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("rank_iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by crate. A layer a
/// workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 32] = [
    // cluster-sim
    ("cluster.rank_busy_s", "s"),
    ("cluster.merge_busy_s", "s"),
    ("cluster.idle_s", "s"),
    // workloads (decorator)
    ("workload.setup_s", "s"),
    ("workload.iterate_s", "s"),
    ("workload.iterate_p50_ms", "ms"),
    ("workload.iterate_p99_ms", "ms"),
    // chkpt
    ("engine.driven_s", "s"),
    ("engine.precopied_mb", "MB"),
    ("engine.coordinated_mb", "MB"),
    ("engine.faults", "count"),
    ("engine.precopy_useful_frac", "ratio"),
    // nvm-store
    ("io.read_calls", "count"),
    ("io.write_calls", "count"),
    ("io.read_mb", "MB"),
    ("io.write_mb", "MB"),
    ("io.calls_per_kv_op", "count"),
    ("proc.sys_s", "s"),
    ("spill.peak_mb", "MB"),
    ("store.write_mb", "MB"),
    ("store.fsyncs", "count"),
    // nvm-kv
    ("kv_ops_per_s", "1/s"),
    ("recover_s", "s"),
    ("kv.scan_s", "s"),
    ("kv.restart_s", "s"),
    ("kv.replay_s", "s"),
    ("kv.replayed_records", "count"),
    // nvm-trace / nvm-obs
    ("trace.events", "count"),
    ("obs.blame_s", "s"),
    // rdma-sim / recovery
    ("recovery.fetched_mb", "MB"),
    ("recovery.verified_chunks", "count"),
    // the benchmark's own tracing
    ("bench.trace_overhead_frac", "ratio"),
];

/// Metrics read from tick-resolution counters: averaged, not medians.
const MEANS: [&str; 2] = ["cpu_s", "proc.sys_s"];

/// Repetitions an untraced run makes even when they overrun
/// `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    bench: Bench,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{name} needs a value"))?;
        if kv.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| kv.get(name).copied().ok_or(format!("{name} is required"));
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        bench: Bench {
            kind,
            seed: num("--seed")?,
        },
        seconds,
        trace,
    })
}

/// Scratch directory for spill and container files, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run `f`, turning an error or a panic into a message.
fn guarded(f: impl FnOnce() -> Result<Rep, String>) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Aggregate `name` over `reps`: the mean for tick counters, the
/// median otherwise; `None` when no repetition measured it.
fn aggregate<'a>(reps: impl Iterator<Item = &'a Rep>, name: &str) -> Option<f64> {
    let mut v: Vec<f64> = reps.filter_map(|r| r.metrics.get(name).copied()).collect();
    if v.is_empty() {
        None
    } else if MEANS.contains(&name) {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    } else {
        Some(median(&mut v))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(work.0.join("tmp")) {
        eprintln!("error: cannot create {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    // Device spill files go to the system temp dir; keep them inside
    // the working directory. No other thread exists yet.
    std::env::set_var(
        "TMPDIR",
        work.0.join("tmp").canonicalize().expect("just created"),
    );
    run(&args, &work.0)
}

fn run(args: &Args, work: &std::path::Path) -> ExitCode {
    let bench = args.bench;
    let units = bench.units();
    let provenance = [
        ("workload", bench.kind.name().to_string()),
        ("seed", bench.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("shape", bench.shape()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "git_commit",
            probe::git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        ),
    ];
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }

    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let mut note = |label: &str, rep: &Result<Rep, String>, want: Option<(usize, u64)>| -> bool {
        attempted += units;
        let mut bad: Vec<String> = match rep {
            Err(e) => vec![e.clone()],
            Ok(r) => r.problems.clone(),
        };
        if let (Ok(r), Some(want)) = (rep, want) {
            if r.digest != want {
                bad.push(format!(
                    "RunResult differs from the reference: {:?} vs {want:?}",
                    r.digest
                ));
            }
        }
        if !bad.is_empty() {
            failed += units;
            problems.extend(bad.into_iter().map(|p| format!("{label}: {p}")));
        }
        rep.is_ok()
    };

    // The digest every repetition's RunResult must equal: that of a
    // serial run for threaded workloads, else that of the first
    // repetition.
    let mut reference = None;
    if bench.threaded() {
        let rep = guarded(|| bench.reference(work));
        note("serial reference", &rep, None);
        reference = rep.ok().map(|r| r.digest);
    }

    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    // A traced run alternates untraced and traced repetitions and needs
    // two of each.
    let min_reps = if args.trace { 4 } else { MIN_REPS };
    for i in 0.. {
        if i >= min_reps {
            let typical = Duration::from_secs_f64(median(&mut durations.clone()));
            if start.elapsed() + typical > budget {
                break;
            }
        }
        let traced = args.trace && i % 2 == 1;
        let t = Instant::now();
        let rep = guarded(|| bench.measure(traced, work));
        durations.push(t.elapsed().as_secs_f64());
        let label = format!("rep {i}{}", if traced { " (traced)" } else { "" });
        if note(&label, &rep, reference) {
            let rep = rep.expect("checked ok");
            reference.get_or_insert(rep.digest);
            reps.push((traced, rep));
        }
    }

    let untraced = || reps.iter().filter(|(t, _)| !t).map(|(_, r)| r);
    let traced = || reps.iter().filter(|(t, _)| *t).map(|(_, r)| r);
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "bench.trace_overhead_frac" => aggregate(traced(), "wall_s")
                    .zip(aggregate(untraced(), "wall_s"))
                    .map(|(t, u)| t / u - 1.0),
                _ => aggregate(traced(), name),
            };
            metrics.extend(value.map(|v| (name, unit, v)));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.extend(aggregate(untraced(), name).map(|v| (name, unit, v)));
        }
    }

    println!(
        "# repetitions: {} ({} traced) in {:.1} s",
        reps.len(),
        traced().count(),
        start.elapsed().as_secs_f64()
    );
    if let Some((_, r)) = reps.first() {
        println!("# virtual_total_s: {} (simulated, per run)", r.virtual_s);
    }
    for p in &problems {
        println!("# FAILED {p}");
    }
    println!("{:<28} {:>16}  unit", "metric", "value");
    for (name, unit, v) in &metrics {
        println!("{name:<28} {v:>16.6}  {unit}");
    }
    println!(
        "{:<28} {:>16.6}  ratio  ({failed} of {attempted} units)",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64
    );

    let correct = failed == 0 && !reps.is_empty() && metrics.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.2.is_finite())
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse(&[
            "--workload",
            "kv_ycsb_a",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.bench.kind, a.bench.seed, a.seconds, a.trace),
            (Kind::KvYcsbA, 7, 3, true)
        );
        let base = [
            "--workload",
            "hpc_gtc",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "0",
        ];
        assert!(parse(&base).is_ok());
        for (i, bad) in [(1, "hpc"), (3, "-1"), (5, "0"), (7, "2")] {
            let mut v = base;
            v[i] = bad;
            assert!(parse(&v).is_err(), "{v:?}");
        }
        assert!(parse(&base[..6]).is_err());
        assert!(parse(&[&base[..], &["--extra"]].concat()).is_err());
        assert!(parse(&[&base[..], &["--seed", "2"]].concat()).is_err());
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let rep = |name: &'static str, v: f64| Rep {
            metrics: [(name, v)].into_iter().collect(),
            ..Rep::default()
        };
        let reps = [rep("cpu_s", 1.0), rep("cpu_s", 1.0), rep("cpu_s", 4.0)];
        assert_eq!(aggregate(reps.iter(), "cpu_s"), Some(2.0));
        let reps = [rep("wall_s", 1.0), rep("wall_s", 1.0), rep("wall_s", 4.0)];
        assert_eq!(aggregate(reps.iter(), "wall_s"), Some(1.0));
        assert_eq!(aggregate(reps.iter(), "setup_s"), None);
    }
}
