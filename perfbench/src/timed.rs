//! A timing decorator around [`cluster_sim::Workload`].
//!
//! Every wrapped rank stamps the wall instant of the first `iterate`
//! call in the whole run (which ends the set-up phase) and counts its
//! own `iterate` calls. With `detail` on it also records the thread
//! CPU time of each `setup` and `iterate` call. Each rank keeps its
//! samples to itself and hands them to the shared [`Probe`] when the
//! cluster drops it, so ranks running on several threads never contend
//! during the run. The communication hooks forward unchanged, so
//! results stay byte-identical to an undecorated run.

use cluster_sim::{thread_cpu_ns, CommPattern, Workload};
use nvm_chkpt::{CheckpointEngine, EngineError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What all ranks of one run recorded.
#[derive(Debug, Default)]
pub struct Totals {
    /// `iterate` calls made (rank-iterations executed).
    pub iterate_calls: u64,
    /// Thread-CPU nanoseconds inside `setup`, all calls.
    pub setup_ns: u64,
    /// Thread-CPU nanoseconds of each `iterate` call.
    pub iterate_ns: Vec<u64>,
}

/// State shared by every wrapped rank of one run.
#[derive(Debug)]
pub struct Probe {
    detail: bool,
    first_iterate: OnceLock<Instant>,
    totals: Mutex<Totals>,
}

impl Probe {
    /// A probe for one run; `detail` turns on per-call CPU timing.
    pub fn new(detail: bool) -> Arc<Probe> {
        Arc::new(Probe {
            detail,
            first_iterate: OnceLock::new(),
            totals: Mutex::new(Totals::default()),
        })
    }

    /// Wall instant of the first `iterate` call, if any rank made one.
    pub fn first_iterate(&self) -> Option<Instant> {
        self.first_iterate.get().copied()
    }

    /// Everything the ranks handed over. Complete once the cluster that
    /// owned the wrapped workloads has been dropped.
    pub fn take_totals(&self) -> Totals {
        std::mem::take(
            &mut *self
                .totals
                .lock()
                .expect("no rank panics while holding totals"),
        )
    }

    /// Wrap one rank's workload.
    pub fn wrap(self: &Arc<Self>, inner: Box<dyn Workload>) -> Box<dyn Workload> {
        Box::new(Timed {
            inner,
            probe: Arc::clone(self),
            own: Totals::default(),
        })
    }
}

struct Timed {
    inner: Box<dyn Workload>,
    probe: Arc<Probe>,
    own: Totals,
}

impl Workload for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&mut self, engine: &mut CheckpointEngine) -> Result<(), EngineError> {
        if !self.probe.detail {
            return self.inner.setup(engine);
        }
        let t0 = thread_cpu_ns();
        let out = self.inner.setup(engine);
        self.own.setup_ns += thread_cpu_ns().saturating_sub(t0);
        out
    }

    fn iterate(&mut self, engine: &mut CheckpointEngine, iter: u64) -> Result<(), EngineError> {
        self.probe.first_iterate.get_or_init(Instant::now);
        self.own.iterate_calls += 1;
        if !self.probe.detail {
            return self.inner.iterate(engine, iter);
        }
        let t0 = thread_cpu_ns();
        let out = self.inner.iterate(engine, iter);
        self.own.iterate_ns.push(thread_cpu_ns().saturating_sub(t0));
        out
    }

    fn comm_bytes(&self) -> u64 {
        self.inner.comm_bytes()
    }

    fn comm_pattern(&self) -> CommPattern {
        self.inner.comm_pattern()
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned lock means another rank panicked; that run is
        // already counted as failed, so losing these samples is fine.
        if let Ok(mut totals) = self.probe.totals.lock() {
            totals.iterate_calls += self.own.iterate_calls;
            totals.setup_ns += self.own.setup_ns;
            totals.iterate_ns.append(&mut self.own.iterate_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{Cluster, ClusterConfig, RunOptions, UniformWorkload};
    use nvm_chkpt::{EngineConfig, Materialization};
    use nvm_emu::SimDuration;

    fn run(probe: Option<&Arc<Probe>>) -> String {
        let config = ClusterConfig::builder()
            .nodes(2)
            .ranks_per_node(2)
            .iterations(5)
            .engine(
                EngineConfig::builder()
                    .materialization(Materialization::Synthetic)
                    .checksums(false)
                    .build()
                    .expect("valid engine config"),
            )
            .build()
            .expect("valid cluster config");
        let probe = probe.cloned();
        let outcome = Cluster::new(config, move |_| {
            let w: Box<dyn Workload> = Box::new(UniformWorkload::new(
                2,
                1 << 16,
                SimDuration::from_secs(3),
                4096,
            ));
            match &probe {
                Some(p) => p.wrap(w),
                None => w,
            }
        })
        .run(RunOptions::new())
        .expect("run");
        serde_json::to_string(&outcome.result).expect("serialize")
    }

    #[test]
    fn decorated_runs_are_byte_identical_and_counted() {
        let plain = run(None);
        for detail in [false, true] {
            let probe = Probe::new(detail);
            assert_eq!(run(Some(&probe)), plain, "detail={detail}");
            assert!(probe.first_iterate().is_some());
            let totals = probe.take_totals();
            assert_eq!(totals.iterate_calls, 4 * 5);
            let samples = if detail { 4 * 5 } else { 0 };
            assert_eq!(totals.iterate_ns.len(), samples);
        }
    }
}
