//! The three benchmark workloads, one repetition of each, and the
//! checks on its outputs.
//!
//! Every repetition goes through public APIs only: `Cluster::run`,
//! the [`crate::timed`] decorator, `Cluster::recover_dir`,
//! `CheckpointEngine::restart_from_store`, `KvStore::recover` and
//! `nvm_obs::blame`, with process counters from [`crate::probe`].

use crate::probe::{self, ProcSample};
use crate::timed::Probe;
use cluster_sim::{
    thread_cpu_ns, Cluster, ClusterConfig, FailureEvent, FailureKind, FailureSchedule,
    RemoteConfig, RunOptions, RunOutcome, UniformWorkload, Workload,
};
use hpc_workloads::{KvServingConfig, KvServingWorkload};
use nvm_bench::experiments::kv_serving::{kv_cluster_config, serving_config};
use nvm_bench::experiments::{cluster_config, make_app};
use nvm_bench::scale::Scale;
use nvm_chkpt::{
    CheckpointEngine, EngineConfig, Materialization, PrecopyPolicy, RestartStrategy, TraceEvent,
    TraceEventKind, Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, SimTime, VirtualClock};
use nvm_kv::KvStore;
use nvm_metrics::names;
use nvm_store::FileStore;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::Path;
use std::time::Instant;

/// Remote checkpoint interval of `hpc_gtc`, the shortest of the
/// paper's Figure-9 sweep (most remote traffic per run).
const GTC_REMOTE_INTERVAL_S: u64 = 47;
/// Iterations of `kv_ycsb_a`: three 40 s local checkpoints. DCPCP
/// learns from the first two, so only from the third on does it
/// pre-copy; fewer iterations would measure no pre-copy at all.
const KV_ITERATIONS: u64 = 12;
/// `ranks_1024` shape, as in the `scaling_ranks` experiment.
const RANKS_NODES: usize = 128;
const RANKS_PER_NODE: usize = 8;
const RANKS_CHUNKS: usize = 4;
const RANKS_CHUNK_BYTES: usize = 64 * 1024;
const RANKS_ITERATIONS: u64 = 8;
/// Hard failure just after the first 10 s remote boundary.
const RANKS_FAILURE_AT_S: u64 = 11;

const MB: f64 = (1u64 << 20) as f64;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// GTC at the paper's remote shape, synthetic bytes, 2 threads.
    HpcGtc,
    /// The `kv_serving` paper shape under DCPCP with durable stores and
    /// a full restart of every rank afterwards.
    KvYcsbA,
    /// 1024 byte-backed ranks with a hard node failure, 2 threads.
    Ranks1024,
}

impl Kind {
    /// Every workload, by the name the command line uses.
    pub const ALL: [Kind; 3] = [Kind::HpcGtc, Kind::KvYcsbA, Kind::Ranks1024];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HpcGtc => "hpc_gtc",
            Kind::KvYcsbA => "kv_ycsb_a",
            Kind::Ranks1024 => "ranks_1024",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload with its inputs fixed by a seed.
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// The benchmark seed.
    pub seed: u64,
}

/// Measurements and outputs of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Metric name → value. End-to-end metrics always; per-layer ones
    /// only for a traced repetition.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Length and hash of the serialized `RunResult`.
    pub digest: (usize, u64),
    /// Simulated length of the run, virtual seconds (not host time).
    pub virtual_s: f64,
    /// Checks the outputs failed; empty when correct.
    pub problems: Vec<String>,
}

/// SplitMix64 finalizer: spreads a small seed over 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Bench {
    /// Whether the workload runs ranks on two worker threads, and so
    /// is checked against a serial reference run.
    pub fn threaded(&self) -> bool {
        self.kind != Kind::KvYcsbA
    }

    fn threads(&self) -> usize {
        if self.threaded() {
            2
        } else {
            1
        }
    }

    /// Units a repetition attempts: kv operations on `kv_ycsb_a`,
    /// rank-iterations elsewhere.
    pub fn units(&self) -> u64 {
        let c = self.config(1);
        let rank_iters = (c.total_ranks() as u64) * c.iterations;
        match self.kind {
            Kind::KvYcsbA => rank_iters * self.serving().ops_per_iteration,
            _ => rank_iters,
        }
    }

    /// The cluster configuration at `threads` worker threads.
    pub fn config(&self, threads: usize) -> ClusterConfig {
        match self.kind {
            Kind::HpcGtc => {
                let scale = Scale::paper_remote().with_threads(threads);
                let mut c = cluster_config(&scale, PrecopyPolicy::Dcpcp);
                c.engine = c
                    .engine
                    .with_materialization(Materialization::Synthetic)
                    .with_checksums(false);
                c.remote = Some(RemoteConfig::infiniband(
                    SimDuration::from_secs(GTC_REMOTE_INTERVAL_S),
                    true,
                ));
                c
            }
            Kind::KvYcsbA => {
                let mut c = kv_cluster_config(&Scale::paper_remote(), PrecopyPolicy::Dcpcp);
                c.iterations = KV_ITERATIONS;
                c
            }
            Kind::Ranks1024 => ClusterConfig::builder()
                .nodes(RANKS_NODES)
                .ranks_per_node(RANKS_PER_NODE)
                .container_bytes(RANKS_CHUNKS * RANKS_CHUNK_BYTES * 2 + (1 << 20))
                .engine(
                    EngineConfig::builder()
                        .materialization(Materialization::Bytes)
                        .checksums(true)
                        .precopy(PrecopyPolicy::Dcpcp)
                        .node_concurrency(RANKS_PER_NODE)
                        .build()
                        .expect("valid ranks_1024 engine config"),
                )
                .local_interval(Some(SimDuration::from_secs(5)))
                .remote(RemoteConfig::infiniband(SimDuration::from_secs(10), true))
                .iterations(RANKS_ITERATIONS)
                .threads(threads)
                .build()
                .expect("valid ranks_1024 config")
                .with_failure_schedule(FailureSchedule::from_events(vec![FailureEvent {
                    at: SimTime::from_secs(RANKS_FAILURE_AT_S),
                    kind: FailureKind::Hard,
                    node: (mix(self.seed) % RANKS_NODES as u64) as usize,
                }])),
        }
    }

    /// Per-rank serving configuration of `kv_ycsb_a`; the key stream
    /// comes from the seed.
    fn serving(&self) -> KvServingConfig {
        let mut s = serving_config(&Scale::paper_remote());
        s.seed = mix(self.seed);
        s
    }

    fn factory(&self) -> Box<dyn FnMut(u64) -> Box<dyn Workload>> {
        match self.kind {
            Kind::HpcGtc => {
                let scale = Scale::paper_remote();
                Box::new(move |_| make_app("gtc", &scale))
            }
            Kind::KvYcsbA => {
                let serving = self.serving();
                Box::new(move |g| Box::new(KvServingWorkload::new(g as u32, serving.clone())))
            }
            Kind::Ranks1024 => Box::new(|_| {
                Box::new(UniformWorkload::new(
                    RANKS_CHUNKS,
                    RANKS_CHUNK_BYTES,
                    SimDuration::from_secs(2),
                    RANKS_CHUNK_BYTES as u64,
                ))
            }),
        }
    }

    /// One line describing the input shape, for provenance.
    pub fn shape(&self) -> String {
        let c = self.config(self.threads());
        let mut base = format!(
            "{} nodes x {} ranks, {} iterations, {:?}, {:?}, threads {}",
            c.nodes,
            c.ranks_per_node,
            c.iterations,
            c.engine.precopy,
            c.engine.materialization,
            c.threads
        );
        if self.threaded() {
            base += " (checked against a serial run)";
        }
        match self.kind {
            Kind::HpcGtc => format!(
                "{base}, GTC SyntheticApp, remote pre-copy every {GTC_REMOTE_INTERVAL_S} virtual s \
                 over 40 Gb/s InfiniBand (GTC takes no seed)"
            ),
            Kind::KvYcsbA => {
                let s = self.serving();
                format!(
                    "{base}, {} keys x {} B, YCSB-A theta {}, {} ops/iteration, key seed {:#x}, \
                     trace+metrics+store, restart of every rank",
                    s.keys, s.value_bytes, s.theta, s.ops_per_iteration, s.seed
                )
            }
            Kind::Ranks1024 => format!(
                "{base}, UniformWorkload {RANKS_CHUNKS} x {} KiB, spill and CRC, remote pre-copy \
                 every 10 virtual s, hard failure of node {} at virtual {RANKS_FAILURE_AT_S} s",
                RANKS_CHUNK_BYTES >> 10,
                (mix(self.seed) % RANKS_NODES as u64)
            ),
        }
    }

    /// Run the serial reference of a threaded workload: the digest its
    /// threaded repetitions must match.
    pub fn reference(&self, work: &Path) -> Result<Rep, String> {
        self.rep(1, false, work)
    }

    /// One measured repetition at the workload's own thread count.
    /// `traced` turns on the decorator's detail and
    /// `RunOptions::profile` and adds the per-layer metrics.
    pub fn measure(&self, traced: bool, work: &Path) -> Result<Rep, String> {
        self.rep(self.threads(), traced, work)
    }

    fn rep(&self, threads: usize, traced: bool, work: &Path) -> Result<Rep, String> {
        let store_dir = work.join("stores");
        // A failed repetition may have left its containers behind.
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut options = RunOptions::new().with_profile(traced);
        if self.kind == Kind::KvYcsbA {
            options = options
                .with_trace(true)
                .with_metrics(true)
                .with_store_dir(&store_dir);
        }
        let config = self.config(threads);
        let mut rep = Rep::default();
        let m = &mut rep.metrics;

        let rss_reset = probe::reset_peak_rss();
        let proc0 = ProcSample::now();
        let start = Instant::now();
        let probe = Probe::new(traced);
        let mut factory = self.factory();
        let cluster = Cluster::new(config.clone(), {
            let probe = probe.clone();
            move |g| probe.wrap(factory(g))
        });
        let run_start = Instant::now();
        let outcome = cluster
            .run(options)
            .map_err(|e| format!("Cluster::run: {e}"))?;
        let run_end = Instant::now();
        let first_iterate = probe
            .first_iterate()
            .ok_or("no rank ever called Workload::iterate")?;

        // Post-run analysis and restart. `check` is the benchmark's own
        // read-back of the recovered stores; it is kept out of the
        // workload's wall and CPU time.
        let mut check = Phase::default();
        if self.kind == Kind::KvYcsbA {
            let t = Instant::now();
            let report = nvm_obs::blame(&outcome.result.trace);
            std::hint::black_box(&report);
            m.insert("obs.blame_s", t.elapsed().as_secs_f64());
            self.recover_kv(
                &config,
                &outcome.result.trace,
                &store_dir,
                &mut rep,
                &mut check,
            )?;
        }
        let m = &mut rep.metrics;
        let wall = start.elapsed().as_secs_f64() - check.wall_s;
        let proc1 = ProcSample::now();
        let peak_rss = probe::peak_rss_mb().filter(|_| rss_reset);
        let _ = std::fs::remove_dir_all(&store_dir);

        let run_s = run_end.duration_since(first_iterate).as_secs_f64();
        let totals = probe.take_totals();
        m.insert("wall_s", wall);
        m.insert(
            "setup_s",
            first_iterate.duration_since(run_start).as_secs_f64(),
        );
        m.insert("rank_iters_per_s", totals.iterate_calls as f64 / run_s);
        if let Some(mb) = peak_rss {
            m.insert("peak_rss_mb", mb);
        }
        if let (Some((u0, s0)), Some((u1, s1))) = (proc0.cpu, proc1.cpu) {
            m.insert("cpu_s", (u1 - u0) + (s1 - s0) - check.cpu_s);
            m.insert("proc.sys_s", s1 - s0);
        }

        let r = &outcome.result;
        let kv_ops = r.metrics.as_ref().map_or(0, |x| {
            let c = |n| x.snapshot.counter(n);
            c(names::KV_UPSERTS_TOTAL)
                + c(names::KV_READS_TOTAL)
                + c(names::KV_RMWS_TOTAL)
                + c(names::KV_DELETES_TOTAL)
        });
        if traced {
            layer_metrics(m, &outcome, &totals, threads, kv_ops, run_s, proc0, proc1);
        }

        let json = serde_json::to_string(r).map_err(|e| format!("serialize RunResult: {e:?}"))?;
        let mut h = DefaultHasher::new();
        h.write(json.as_bytes());
        rep.digest = (json.len(), h.finish());
        rep.virtual_s = r.total_time.as_secs_f64();
        self.check_outputs(&outcome, totals.iterate_calls, kv_ops, &mut rep.problems);
        Ok(rep)
    }

    /// Bring every rank back from its container file and rebuild its kv
    /// store, timing scan, restart and replay; then check each rank came
    /// back at its last durable token with every preloaded key.
    fn recover_kv(
        &self,
        config: &ClusterConfig,
        trace: &[TraceEvent],
        dir: &Path,
        rep: &mut Rep,
        check: &mut Phase,
    ) -> Result<(), String> {
        let durable = durable_tokens(trace, config.total_ranks());
        let serving = self.serving();
        let (mut restart_s, mut replay_s, mut replayed) = (0.0, 0.0, 0u64);

        let t = Instant::now();
        let scanned = Cluster::recover_dir(dir).map_err(|e| format!("recover_dir: {e}"))?;
        let scan_s = t.elapsed().as_secs_f64();
        if scanned.len() != config.total_ranks() {
            rep.problems.push(format!(
                "recover_dir found {} containers for {} ranks",
                scanned.len(),
                config.total_ranks()
            ));
        }
        for rank in &scanned {
            let node = rank.global as usize / config.ranks_per_node;
            let t = Instant::now();
            let store = FileStore::open_existing(&rank.path)
                .map_err(|e| format!("rank {}: open container: {e}", rank.global))?;
            let dram = MemoryDevice::dram(config.node_dram_capacity(node));
            let nvm = MemoryDevice::pcm(config.node_nvm_capacity(node));
            let (mut engine, _) = CheckpointEngine::restart_from_store(
                &dram,
                &nvm,
                config.container_bytes,
                VirtualClock::new(),
                config.engine,
                RestartStrategy::Eager,
                Box::new(store),
                Tracer::disabled(),
            )
            .map_err(|e| format!("rank {}: restart_from_store: {e}", rank.global))?;
            restart_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let (mut kv, recovery) = KvStore::recover(&mut engine, serving.kv.clone())
                .map_err(|e| format!("rank {}: KvStore::recover: {e}", rank.global))?;
            replay_s += t.elapsed().as_secs_f64();
            replayed += recovery.replayed;

            check.time(|| {
                let want = durable.get(rank.global as usize).copied().unwrap_or(0);
                if want == 0 || recovery.token != want {
                    rep.problems.push(format!(
                        "rank {} recovered token {} but its last durable token is {want}",
                        rank.global, recovery.token
                    ));
                }
                match kv.contents(&mut engine) {
                    Ok(c) if c.len() as u64 == serving.keys => {}
                    Ok(c) => rep.problems.push(format!(
                        "rank {} recovered {} of {} preloaded keys",
                        rank.global,
                        c.len(),
                        serving.keys
                    )),
                    Err(e) => rep.problems.push(format!(
                        "rank {}: reading recovered store: {e}",
                        rank.global
                    )),
                }
            });
        }
        let m = &mut rep.metrics;
        m.insert("recover_s", scan_s + restart_s + replay_s);
        m.insert("kv.scan_s", scan_s);
        m.insert("kv.restart_s", restart_s);
        m.insert("kv.replay_s", replay_s);
        m.insert("kv.replayed_records", replayed as f64);
        Ok(())
    }

    /// Checks on one run's outputs beyond the digest comparison the
    /// caller makes across repetitions.
    fn check_outputs(
        &self,
        outcome: &RunOutcome,
        iterate_calls: u64,
        kv_ops: u64,
        problems: &mut Vec<String>,
    ) {
        let r = &outcome.result;
        let c = self.config(1);
        let rank_iters = c.total_ranks() as u64 * c.iterations;
        match self.kind {
            Kind::HpcGtc => {
                if iterate_calls != rank_iters {
                    problems.push(format!(
                        "{iterate_calls} rank-iterations ran, {rank_iters} expected"
                    ));
                }
                if r.remote_checkpoints == 0 {
                    problems.push("no remote checkpoint committed".into());
                }
            }
            Kind::KvYcsbA => {
                if kv_ops != self.units() {
                    problems.push(format!(
                        "{kv_ops} kv ops counted, {} expected",
                        self.units()
                    ));
                }
            }
            Kind::Ranks1024 => match r.recovery.as_slice() {
                [rec] if rec.source.name() == "remote-buddy" && rec.verified_chunks > 0 => {}
                recs => problems.push(format!(
                    "hard failure not served by remote-buddy with verified chunks: {:?}",
                    recs.iter()
                        .map(|x| (x.source.name(), x.verified_chunks))
                        .collect::<Vec<_>>()
                )),
            },
        }
    }
}

/// Per-layer metrics of a traced repetition.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    outcome: &RunOutcome,
    totals: &crate::timed::Totals,
    threads: usize,
    kv_ops: u64,
    run_s: f64,
    proc0: ProcSample,
    proc1: ProcSample,
) {
    let r = &outcome.result;
    let ns = |x: u64| x as f64 / 1e9;
    if let Some(p) = &outcome.profile {
        let busy = p.total_rank_busy_ns();
        let merge = p.total_merge_busy_ns();
        let iterate: u64 = totals.iterate_ns.iter().sum();
        m.insert("cluster.rank_busy_s", ns(busy));
        m.insert("cluster.merge_busy_s", ns(merge));
        m.insert(
            "cluster.idle_s",
            threads as f64 * ns(p.wall_ns) - ns(busy) - ns(merge),
        );
        m.insert("engine.driven_s", ns(busy.saturating_sub(iterate)));
        m.insert("workload.iterate_s", ns(iterate));
    }
    m.insert("workload.setup_s", ns(totals.setup_ns));
    let mut calls = totals.iterate_ns.clone();
    calls.sort_unstable();
    m.insert("workload.iterate_p50_ms", percentile(&calls, 0.50) / 1e6);
    m.insert("workload.iterate_p99_ms", percentile(&calls, 0.99) / 1e6);

    let e = &r.engine_stats;
    m.insert("engine.precopied_mb", e.precopied_bytes as f64 / MB);
    m.insert("engine.coordinated_mb", e.coordinated_bytes as f64 / MB);
    m.insert("engine.faults", e.faults as f64);
    m.insert(
        "engine.precopy_useful_frac",
        if e.precopied_bytes == 0 {
            0.0
        } else {
            1.0 - e.wasted_precopy_bytes as f64 / e.precopied_bytes as f64
        },
    );

    if let (Some(a), Some(b)) = (proc0.io, proc1.io) {
        let calls = (b.syscr - a.syscr) + (b.syscw - a.syscw);
        m.insert("io.read_calls", (b.syscr - a.syscr) as f64);
        m.insert("io.write_calls", (b.syscw - a.syscw) as f64);
        m.insert("io.read_mb", (b.rchar - a.rchar) as f64 / MB);
        m.insert("io.write_mb", (b.wchar - a.wchar) as f64 / MB);
        m.insert(
            "io.calls_per_kv_op",
            if kv_ops == 0 {
                0.0
            } else {
                calls as f64 / kv_ops as f64
            },
        );
    }
    m.insert("kv_ops_per_s", kv_ops as f64 / run_s);
    m.insert(
        "spill.peak_mb",
        outcome.spill.map_or(0.0, |s| s.peak_bytes as f64 / MB),
    );
    m.insert(
        "store.write_mb",
        r.store.map_or(0.0, |s| s.bytes_written as f64 / MB),
    );
    m.insert("store.fsyncs", r.store.map_or(0.0, |s| s.fsyncs as f64));
    m.insert("trace.events", r.trace.len() as f64);
    m.insert(
        "recovery.fetched_mb",
        r.recovery.iter().map(|x| x.bytes_fetched).sum::<u64>() as f64 / MB,
    );
    m.insert(
        "recovery.verified_chunks",
        r.recovery.iter().map(|x| x.verified_chunks).sum::<u64>() as f64,
    );
    for name in [
        "recover_s",
        "kv.scan_s",
        "kv.restart_s",
        "kv.replay_s",
        "kv.replayed_records",
        "obs.blame_s",
    ] {
        m.entry(name).or_insert(0.0);
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i] as f64
}

/// Each rank's last durable kv token: the last token whose metadata was
/// written before that rank's last durable-store commit.
fn durable_tokens(trace: &[TraceEvent], ranks: usize) -> Vec<u64> {
    let mut last = vec![0u64; ranks];
    let mut durable = vec![0u64; ranks];
    for ev in trace {
        let r = ev.rank as usize;
        if r >= ranks {
            continue;
        }
        match ev.kind {
            TraceEventKind::KvCheckpointEnd { token, .. } => last[r] = token,
            TraceEventKind::StoreCommit { .. } => durable[r] = last[r],
            _ => {}
        }
    }
    durable
}

/// Wall and main-thread CPU time spent in the benchmark's own checks.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn time(&mut self, f: impl FnOnce()) {
        let (w, c) = (Instant::now(), thread_cpu_ns());
        f();
        self.wall_s += w.elapsed().as_secs_f64();
        self.cpu_s += thread_cpu_ns().saturating_sub(c) as f64 / 1e9;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn names_round_trip_and_units_match_the_shapes() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
        let b = |kind| Bench { kind, seed: 1 };
        assert_eq!(b(Kind::HpcGtc).units(), 96 * 24);
        assert_eq!(b(Kind::KvYcsbA).units(), 96 * KV_ITERATIONS * 512);
        assert_eq!(b(Kind::Ranks1024).units(), 1024 * RANKS_ITERATIONS);
    }
}
