//! Engine ↔ store integration: checkpoints mirrored into a real
//! container file survive the process, restart strategies behave over
//! media exactly as they do over the emulated device, and attaching a
//! store never perturbs simulation results.

use nvm_chkpt::{
    BufferSink, CheckpointEngine, EngineConfig, EngineError, RemoteImage, RestartStrategy, Tracer,
};
use nvm_emu::{MemoryDevice, SimDuration, TempDir, VirtualClock};
use nvm_paging::ChunkId;
use nvm_store::{Container, FileStore, MemMedia, Persistence};
use std::sync::Arc;

const MB: usize = 1 << 20;
const STORE_CAP: usize = 8 * MB;

fn devices() -> (MemoryDevice, MemoryDevice, VirtualClock) {
    let dram = MemoryDevice::dram(64 * MB);
    let nvm = MemoryDevice::pcm(64 * MB);
    (dram, nvm, VirtualClock::new())
}

fn engine_with(
    dram: &MemoryDevice,
    nvm: &MemoryDevice,
    clock: VirtualClock,
    store: Option<Box<dyn Persistence>>,
) -> CheckpointEngine {
    let mut e =
        CheckpointEngine::new(7, dram, nvm, 16 * MB, clock, EngineConfig::default()).unwrap();
    if let Some(s) = store {
        e.set_persistence(s);
    }
    e
}

/// Three epochs of a small two-chunk workload; returns the chunk ids
/// in allocation order.
fn run_three_epochs(e: &mut CheckpointEngine) -> (ChunkId, ChunkId) {
    let a = e.nvmalloc("a", 4096, true).unwrap();
    let b = e.nvmalloc("b", 12000, true).unwrap();
    for epoch in 0u8..3 {
        e.write(a, 0, &vec![epoch + 1; 4096]).unwrap();
        e.write(b, 100, &vec![0x40 | epoch; 8000]).unwrap();
        e.compute(SimDuration::from_millis(200));
        e.nvchkptall().unwrap();
    }
    (a, b)
}

#[test]
fn checkpoints_survive_the_process_through_a_file_store() {
    let tmp = TempDir::new("store-roundtrip").unwrap();
    let path = tmp.join("rank.store");

    let (a, b, bytes_a, bytes_b) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        let (a, b) = run_three_epochs(&mut e);
        (
            a,
            b,
            e.committed_bytes(a).unwrap(),
            e.committed_bytes(b).unwrap(),
        )
        // engine, devices, clock all drop here: the process is gone.
    };

    // A brand-new "process" recovers from the file alone.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (mut e2, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.restored.len(), 2);
    assert!(report.corrupt.is_empty());
    assert!(
        report.duration > SimDuration::ZERO,
        "restore must cost time"
    );
    assert_eq!(e2.committed_bytes(a).unwrap(), bytes_a);
    assert_eq!(e2.committed_bytes(b).unwrap(), bytes_b);
    assert_eq!(e2.epoch(), 3, "resume after the last committed epoch");

    // And the revived process can keep checkpointing into the store.
    e2.write(a, 0, &[9u8; 4096]).unwrap();
    e2.nvchkptall().unwrap();
    assert_eq!(e2.committed_bytes(a).unwrap(), vec![9u8; 4096]);
}

#[test]
fn lazy_store_restart_never_reads_untouched_chunks_from_media() {
    let tmp = TempDir::new("store-lazy").unwrap();
    let path = tmp.join("rank.store");
    let (a, b) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e)
    };

    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let reads_at_open = store.stats().payload_reads;
    let (mut e2, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.deferred.len(), 2);
    assert!(report.restored.is_empty());
    let stats = e2.persistence_stats().unwrap();
    assert_eq!(
        stats.payload_reads, reads_at_open,
        "lazy restart must not fetch any payload from media"
    );
    assert_eq!(e2.lazy_pending_count(), 2);

    // First access to `a` fetches exactly one payload.
    let mut buf = vec![0u8; 4096];
    e2.read(a, 0, &mut buf).unwrap();
    assert_eq!(buf, vec![3u8; 4096]);
    let stats = e2.persistence_stats().unwrap();
    assert_eq!(stats.payload_reads, reads_at_open + 1);
    assert_eq!(e2.lazy_pending_count(), 1);

    // `b` stays pinned on media: still never read.
    let _ = b;
    assert_eq!(
        e2.persistence_stats().unwrap().payload_reads,
        reads_at_open + 1
    );
}

#[test]
fn corrupted_slot_surfaces_on_first_access_not_at_restart() {
    let tmp = TempDir::new("store-corrupt").unwrap();
    let path = tmp.join("rank.store");
    let (a, b) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e)
    };

    // Flip one payload byte of `a` on media.
    {
        let mut store = FileStore::open_existing(&path).unwrap();
        store.corrupt_payload(a).unwrap();
    }

    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (mut e2, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    // Lazy restart succeeds without noticing: nothing was read yet.
    assert!(report.corrupt.is_empty());
    assert_eq!(report.deferred.len(), 2);

    // The clean chunk restores fine ...
    let mut buf = vec![0u8; 100];
    e2.read(b, 0, &mut buf).unwrap();
    // ... the corrupted one fails with a checksum error on first touch.
    let err = e2.read(a, 0, &mut [0u8; 16]).unwrap_err();
    match err {
        EngineError::ChecksumMismatch { chunk, .. } => assert_eq!(chunk, a),
        other => panic!("expected checksum mismatch, got {other:?}"),
    }

    // An eager restart of the same file reports the corruption up
    // front instead.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (_e3, report) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(report.corrupt, vec![a]);
    assert_eq!(report.restored, vec![b]);
}

#[test]
fn coordinated_checkpoint_drains_store_lazy_chunks_first() {
    let tmp = TempDir::new("store-lazy-chkpt").unwrap();
    let path = tmp.join("rank.store");
    let (a, b) = {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e)
    };

    // Lazy restart, then checkpoint immediately without touching
    // anything: the engine must restore from media before committing,
    // or it would overwrite good checkpoints with unrestored garbage.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (mut e2, _) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Lazy,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(e2.lazy_pending_count(), 2);
    e2.nvchkptall().unwrap();
    assert_eq!(e2.lazy_pending_count(), 0);
    drop(e2);

    // A third process still sees the epoch-2 payloads.
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_existing(&path).unwrap();
    let (e3, _) = CheckpointEngine::restart_from_store(
        &dram,
        &nvm,
        16 * MB,
        clock,
        EngineConfig::default(),
        RestartStrategy::Eager,
        Box::new(store),
        nvm_chkpt::Tracer::disabled(),
    )
    .unwrap();
    assert_eq!(e3.committed_bytes(a).unwrap(), vec![3u8; 4096]);
    let expect_b = {
        let mut v = vec![0u8; 12000];
        v[100..8100].fill(0x42);
        v
    };
    assert_eq!(e3.committed_bytes(b).unwrap(), expect_b);
}

#[test]
fn attaching_a_store_does_not_perturb_simulation_results() {
    let run = |store: Option<Box<dyn Persistence>>| {
        let (dram, nvm, clock) = devices();
        let mut e = engine_with(&dram, &nvm, clock.clone(), store);
        run_three_epochs(&mut e);
        (clock.now(), e.log().to_vec(), e.stats())
    };

    let (t_plain, log_plain, stats_plain) = run(None);
    let (t_store, log_store, stats_store) = run(Some(Box::new(
        Container::open(MemMedia::new(), 7, STORE_CAP).unwrap(),
    )));
    assert_eq!(
        t_plain, t_store,
        "store mirroring must be free in virtual time"
    );
    assert_eq!(log_plain, log_store);
    assert_eq!(
        serde_json::to_string(&stats_plain).unwrap(),
        serde_json::to_string(&stats_store).unwrap()
    );
}

#[test]
fn identical_engine_histories_produce_identical_store_files() {
    let tmp = TempDir::new("store-determinism").unwrap();
    let run = |path: &std::path::Path| {
        let (dram, nvm, clock) = devices();
        let store = FileStore::open_path(path, 7, STORE_CAP).unwrap();
        let mut e = engine_with(&dram, &nvm, clock, Some(Box::new(store)));
        run_three_epochs(&mut e);
    };
    let p1 = tmp.join("one.store");
    let p2 = tmp.join("two.store");
    run(&p1);
    run(&p2);
    let b1 = std::fs::read(&p1).unwrap();
    let b2 = std::fs::read(&p2).unwrap();
    assert_eq!(b1, b2, "same history must lay out the same bytes");
}

/// Where a restart-table case rebuilds its process from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The surviving NVM device's metadata region (soft failure).
    Nvm,
    /// The rank's container file alone, on fresh devices.
    Store,
    /// Buddy chunk images alone, on fresh devices.
    Images,
}

/// One restart source × strategy and every observable it pins:
/// `(source, strategy, restored, corrupt, deferred, never_committed,
/// duration_ns, hot_ns, touches, kinds)`. Chunks are named: `a`, `b`
/// and `d` are committed (`b` corrupted on the device and in the file,
/// clean in the images), `c` never was. `duration_ns` is the report's
/// virtual duration; `hot_ns` the virtual time from restart start
/// until every reported chunk has been read once (lazy restores pay
/// here); `touches` whether each of those first reads succeeded, in
/// chunk-id order; `kinds` the trace event kinds from restart start
/// through the reads.
type RestartRow = (
    Source,
    RestartStrategy,
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
    u64,
    u64,
    &'static [bool],
    &'static [&'static str],
);

fn run_restart_case(row: RestartRow) {
    let (
        source,
        strategy,
        restored,
        corrupt,
        deferred,
        never_committed,
        duration_ns,
        hot_ns,
        touches,
        kinds,
    ) = row;
    let tmp = TempDir::new("restart-table").unwrap();
    let path = tmp.join("rank.store");
    let (dram, nvm, clock) = devices();
    let store = FileStore::open_path(&path, 7, STORE_CAP).unwrap();
    let mut e = engine_with(&dram, &nvm, clock.clone(), Some(Box::new(store)));
    let (a, b) = run_three_epochs(&mut e);
    let d = e.nvmalloc("d", 6000, true).unwrap();
    e.write(d, 0, &[7u8; 6000]).unwrap();
    e.nvchkptall().unwrap();
    let c = e.nvmalloc("c", 2048, true).unwrap();
    let names = [(a, "a"), (b, "b"), (c, "c"), (d, "d")];
    let images: Vec<RemoteImage> = [(a, "a"), (b, "b"), (d, "d")]
        .iter()
        .map(|&(id, name)| {
            let payload = e.committed_bytes(id).unwrap();
            RemoteImage {
                id,
                name: name.to_string(),
                len: payload.len(),
                checksum: None,
                epoch: 3,
                payload,
            }
        })
        .collect();
    e.corrupt_committed(b).unwrap();
    let region = e.metadata_region();
    drop(e);
    FileStore::open_existing(&path)
        .unwrap()
        .corrupt_payload(b)
        .unwrap();

    let sink = Arc::new(BufferSink::new());
    let tracer = Tracer::new(sink.clone());
    let config = EngineConfig::default();
    let (fresh_dram, fresh_nvm, fresh_clock) = devices();
    let clock = match source {
        Source::Nvm => clock,
        Source::Store | Source::Images => fresh_clock,
    };
    let t0 = clock.now();
    let (mut e2, report) = match source {
        Source::Nvm => {
            let (mut e2, report) = CheckpointEngine::restart_with(
                &dram,
                &nvm,
                region,
                clock.clone(),
                config,
                strategy,
            )
            .unwrap();
            e2.set_tracer(tracer);
            (e2, report)
        }
        Source::Store => CheckpointEngine::restart_from_store(
            &fresh_dram,
            &fresh_nvm,
            16 * MB,
            clock.clone(),
            config,
            strategy,
            Box::new(FileStore::open_existing(&path).unwrap()),
            tracer,
        )
        .unwrap(),
        Source::Images => CheckpointEngine::restart_from_images(
            7,
            &fresh_dram,
            &fresh_nvm,
            16 * MB,
            clock.clone(),
            config,
            strategy,
            &images,
            4,
            tracer,
        )
        .unwrap(),
    };
    let named = |v: &[ChunkId]| {
        v.iter()
            .map(|id| names.iter().find(|(n, _)| n == id).unwrap().1)
            .collect::<Vec<_>>()
    };
    let label = format!("{:?} {:?}", source, strategy);
    assert_eq!(named(&report.restored), restored, "{label} restored");
    assert_eq!(named(&report.corrupt), corrupt, "{label} corrupt");
    assert_eq!(named(&report.deferred), deferred, "{label} deferred");
    assert_eq!(
        named(&report.never_committed),
        never_committed,
        "{label} never_committed"
    );
    assert_eq!(report.duration.as_nanos(), duration_ns, "{label} duration");
    assert_eq!(clock.now().since(t0), report.duration, "{label} control");

    let mut reported: Vec<ChunkId> = [
        &report.restored,
        &report.corrupt,
        &report.deferred,
        &report.never_committed,
    ]
    .into_iter()
    .flatten()
    .copied()
    .collect();
    reported.sort();
    let touched: Vec<bool> = reported
        .iter()
        .map(|&id| e2.read(id, 0, &mut [0u8; 16]).is_ok())
        .collect();
    assert_eq!(touched, touches, "{label} touches");
    assert_eq!(clock.now().since(t0).as_nanos(), hot_ns, "{label} hot");
    let emitted: Vec<&str> = sink.snapshot().iter().map(|ev| ev.kind.name()).collect();
    assert_eq!(emitted, kinds, "{label} trace kinds");
}

/// Every restart source under every strategy: reports, virtual-time
/// charges (up front and through first access) and trace events.
#[test]
fn restart_sources_and_strategies_are_pinned() {
    use RestartStrategy::{Eager, Lazy};
    use Source::{Images, Nvm, Store};
    let parallel = RestartStrategy::Parallel { streams: 4 };
    #[rustfmt::skip]
    let rows: [RestartRow; 9] = [
        (Nvm, Eager, &["d", "a"], &["b"], &[], &["c"], 5441, 5589, &[true, true, true, true], &[]),
        (Nvm, parallel, &["d", "a"], &["b"], &[], &["c"], 3299, 3447, &[true, true, true, true], &[]),
        (Nvm, Lazy, &[], &[], &["d", "a", "b"], &["c"], 187, 5552, &[true, true, true, false], &["restart", "restart"]),
        (Store, Eager, &["d", "a"], &["b"], &[], &[], 2499, 2610, &[true, true, true], &["store_recovery", "restart"]),
        (Store, parallel, &["d", "a"], &["b"], &[], &[], 1480, 1591, &[true, true, true], &["store_recovery", "restart"]),
        (Store, Lazy, &[], &[], &["d", "a", "b"], &[], 0, 2573, &[true, true, false], &["store_recovery", "restart", "restart", "restart"]),
        (Images, Eager, &["a", "b", "d"], &[], &[], &[], 5420, 5531, &[true, true, true], &["restart"]),
        (Images, parallel, &["a", "b", "d"], &[], &[], &[], 2474, 2585, &[true, true, true], &["restart"]),
        (Images, Lazy, &["a", "b", "d"], &[], &[], &[], 5420, 5531, &[true, true, true], &["restart"]),
    ];
    for row in rows {
        run_restart_case(row);
    }
}
