//! Concurrency suite of the always-on topology service.
//!
//! The serve loop (PR 7) publishes epoch-versioned RCU snapshots of the
//! incremental graph while reader threads answer route / k-NN / coverage /
//! membership queries against pinned epochs. Its whole correctness story
//! is *determinism under concurrency*: answers are a pure function of
//! `(seed, epoch, client, query)`, never of thread interleaving. This
//! suite pins that story from four sides:
//!
//! 1. **Differential**: concurrent [`run_serve`] must be byte-identical —
//!    per-client digests, per-epoch fingerprints, folded answer digest —
//!    to the single-threaded [`run_replay`] oracle, across topology kinds
//!    × reader counts × churn regimes (quiescent and 10% clustered).
//! 2. **Snapshot pinning**: a reader holding an epoch guard keeps that
//!    snapshot alive and unchanged while the writer splices the next
//!    epoch; the snapshot retires exactly when the last guard drops.
//! 3. **Properties**: random publish/pin/drop interleavings never tear a
//!    snapshot and always balance the retire accounting
//!    (`retired == published − live` at every step, all retired at
//!    quiescence); the route cache never serves a path that crosses an
//!    invalidated dirty extent after an epoch advance.
//! 4. **Channel sharing**: the published fingerprint walk equals the batch
//!    churn engine's `graph_hash` channel for the same schedule — serve
//!    mode and batch mode cannot drift apart silently.
//!
//! The `--ignored` soak scales the same invariants to a 10⁵-node universe
//! over 50 clustered-blackout epochs (run with
//! `cargo test --release --test serve_concurrency -- --ignored`).

use proptest::prelude::*;
use wsn::geom::hash::derive_seed2;
use wsn::geom::Aabb;
use wsn::graph::{EpochGuard, EpochPublisher};
use wsn::pointproc::{rng_from_seed, sample_poisson_window, PointSet};
use wsn::rgg::{IncTopology, IncrementalGraph};
use wsn::simnet::churn::{simulate_lifetime_plain, ChurnConfig, ChurnModel};
use wsn::simnet::serve::fingerprints_match_batch;
use wsn::simnet::{run_replay, run_serve, RouteCache, ServeConfig, ServeReport, Snapshot};

/// The serve-capable (plain incremental) topology kinds the differential
/// matrix sweeps.
const KINDS: [IncTopology; 3] = [
    IncTopology::Udg { radius: 1.0 },
    IncTopology::Rng { radius: 1.0 },
    IncTopology::Knn { k: 4 },
];

/// Reader counts of the differential matrix. On any host — including a
/// single hardware thread — every count must produce identical bytes.
const READER_COUNTS: [usize; 3] = [1, 4, 8];

/// A Poisson universe with a reserve pool (dead at start, admitted as
/// churn joins).
fn universe(seed: u64, side: f64, lambda: f64, reserve: f64) -> (PointSet, Vec<bool>) {
    let pts = sample_poisson_window(&mut rng_from_seed(seed), lambda, &Aabb::square(side));
    let n = pts.len();
    let deployed = n - (reserve * n as f64).round() as usize;
    (pts, (0..n).map(|i| i < deployed).collect())
}

/// A serve schedule: `p_fail > 0` gives 10%-scale clustered blackouts with
/// reserve joins; `p_fail == 0` serves a quiescent network (the cache-
/// promotion-heavy regime).
fn serve_cfg(epochs: usize, readers: usize, p_fail: f64, seed: u64) -> ServeConfig {
    let join_rate = if p_fail > 0.0 { 1.0 } else { 0.0 };
    let mut churn = ChurnConfig::new(epochs, 1e9, 0, p_fail, join_rate);
    churn.churn_model = ChurnModel::Clustered { radius: 1.5 };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, readers, 6, 16);
    cfg.seed = seed;
    cfg
}

/// The byte-identity comparison: everything answer-derived must agree;
/// timing fields are the only allowed difference.
fn assert_identical(serve: &ServeReport, oracle: &ServeReport, context: &str) {
    assert_eq!(
        serve.client_digests, oracle.client_digests,
        "{context}: per-client digests diverged"
    );
    assert_eq!(
        serve.answer_digest, oracle.answer_digest,
        "{context}: folded answer digest diverged"
    );
    assert_eq!(
        serve.epoch_fingerprints, oracle.epoch_fingerprints,
        "{context}: published fingerprint walk diverged"
    );
    assert_eq!(
        serve.errors, oracle.errors,
        "{context}: error counts diverged"
    );
    assert_eq!(
        serve.cache_hits, oracle.cache_hits,
        "{context}: cache behaviour diverged"
    );
    assert_eq!(
        serve.final_alive, oracle.final_alive,
        "{context}: churn schedules diverged"
    );
}

// ---------------------------------------------------------------------
// 1. The differential matrix.
// ---------------------------------------------------------------------

/// kinds × readers {1, 4, 8} × churn {quiescent, 10% clustered}: the
/// concurrent service answers byte-identically to the single-threaded
/// replay of the same schedule. The oracle runs once per (kind, churn) —
/// reader count must never reach the answers.
#[test]
fn concurrent_answers_match_single_threaded_replay() {
    for (ki, kind) in KINDS.into_iter().enumerate() {
        for (ci, p_fail) in [0.0, 0.10].into_iter().enumerate() {
            let seed = derive_seed2(0x5EC0, ki as u64, ci as u64);
            let (pts, alive) = universe(seed, 10.0, 14.0, 0.2);
            let oracle = run_replay(&pts, &alive, kind, &serve_cfg(4, 1, p_fail, seed));
            assert_eq!(oracle.errors, 0);
            for readers in READER_COUNTS {
                let cfg = serve_cfg(4, readers, p_fail, seed);
                let serve = run_serve(&pts, &alive, kind, &cfg);
                let context = format!("{} readers={readers} p_fail={p_fail}", kind.label());
                assert_identical(&serve, &oracle, &context);
                assert_eq!(
                    serve.snapshots_retired, serve.snapshots_published,
                    "{context}: snapshots leaked"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Snapshot pinning across a live splice.
// ---------------------------------------------------------------------

/// A guard pinned on epoch N keeps that snapshot alive, unchanged and
/// readable while the writer churns and splices epoch N+1 into the live
/// graph; it retires exactly when the last guard drops.
#[test]
fn pinned_snapshot_survives_the_next_splice_unchanged() {
    let (pts, alive) = universe(0x919, 8.0, 16.0, 0.2);
    let mut g = IncrementalGraph::build(pts, alive, IncTopology::Udg { radius: 1.0 }, 4);

    let publisher: EpochPublisher<Snapshot> = EpochPublisher::new();
    let handle = publisher.handle();
    publisher.publish(0, Snapshot::capture(0, &g));

    let guard = handle.pin().expect("epoch 0 is published");
    assert_eq!(guard.epoch(), 0);
    let pinned_fp = guard.fingerprint;
    let pinned_alive = guard.alive.clone();
    let pinned_labels = guard.comp_label.clone();

    // The writer splices epoch 1 while the guard is held: kill a block of
    // the pinned snapshot's alive population and admit some reserve.
    let deaths: Vec<u32> = (0..g.points().len() as u32)
        .filter(|&u| g.alive()[u as usize] && u % 7 == 0)
        .collect();
    let joins: Vec<u32> = (0..g.points().len() as u32)
        .filter(|&u| !g.alive()[u as usize])
        .take(20)
        .collect();
    assert!(!deaths.is_empty() && !joins.is_empty());
    g.apply_churn(&deaths, &joins);
    publisher.publish(1, Snapshot::capture(1, &g));

    // Readers see the new epoch; the pinned guard still reads epoch 0's
    // bytes, untouched by the splice.
    assert_eq!(handle.latest_epoch(), Some(1));
    assert_eq!(guard.epoch(), 0);
    assert_eq!(guard.fingerprint, pinned_fp);
    assert_eq!(guard.alive, pinned_alive);
    assert_eq!(guard.comp_label, pinned_labels);
    assert_ne!(
        handle.pin().expect("epoch 1 is published").fingerprint,
        pinned_fp,
        "the splice must have changed the published topology"
    );

    // Retire accounting: epoch 0 is retained exactly as long as the guard.
    let stats = handle.stats();
    assert_eq!(stats.published, 2);
    assert_eq!(stats.retired, 0, "pinned epoch 0 must not retire");
    assert_eq!(stats.live_pins, 1);
    drop(guard);
    let stats = handle.stats();
    assert_eq!(stats.retired, 1, "dropping the last guard retires epoch 0");
    assert_eq!(stats.live_pins, 0);
    drop(publisher);
    assert_eq!(handle.stats().retired, 2);
}

// ---------------------------------------------------------------------
// 3a. Property: publish/pin/drop interleavings balance the accounting.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of publish / pin / drop-a-random-guard: at
    /// every step `published − retired` equals the number of distinct
    /// epochs actually held live (guards ∪ current), no guard ever reads
    /// a torn payload, and at quiescence every snapshot has retired.
    #[test]
    fn publish_pin_drop_accounting_balances(seed in 0u64..10_000) {
        /// A payload whose words are all derived from its epoch — a torn
        /// or reused buffer cannot keep them consistent.
        fn payload(epoch: u64) -> Vec<u64> {
            (0..8).map(|i| derive_seed2(0xF00D, epoch, i)).collect()
        }
        /// Plain assert: helpers cannot early-return `TestCaseError`, and
        /// a torn payload is a hard bug either way.
        fn check_payload(guard: &EpochGuard<Vec<u64>>) {
            assert_eq!(**guard, payload(guard.epoch()), "torn snapshot payload");
        }

        let publisher: EpochPublisher<Vec<u64>> = EpochPublisher::new();
        let handle = publisher.handle();
        let mut guards: Vec<EpochGuard<Vec<u64>>> = Vec::new();
        let mut next_epoch = 0u64;
        for step in 0..60u64 {
            match derive_seed2(seed, step, 0) % 3 {
                0 => {
                    publisher.publish(next_epoch, payload(next_epoch));
                    next_epoch += 1;
                }
                1 => {
                    if let Some(g) = handle.pin() {
                        check_payload(&g);
                        guards.push(g);
                    }
                }
                _ => {
                    if !guards.is_empty() {
                        let at = (derive_seed2(seed, step, 1) % guards.len() as u64) as usize;
                        guards.swap_remove(at);
                    }
                }
            }
            // The live set: distinct pinned epochs plus the current slot.
            let mut live: Vec<u64> = guards.iter().map(|g| g.epoch()).collect();
            if let Some(e) = handle.latest_epoch() {
                live.push(e);
            }
            live.sort_unstable();
            live.dedup();
            let stats = handle.stats();
            prop_assert_eq!(stats.published, next_epoch);
            prop_assert_eq!(stats.live_snapshots(), live.len() as u64);
            prop_assert_eq!(stats.live_pins, guards.len() as u64);
            for g in &guards {
                check_payload(g);
            }
        }
        // Quiescence: all guards and the publisher gone → everything
        // published has retired and no pin remains.
        drop(guards);
        drop(publisher);
        let stats = handle.stats();
        prop_assert_eq!(stats.retired, stats.published);
        prop_assert_eq!(stats.live_pins, 0);
        prop_assert_eq!(stats.live_snapshots(), 0);
    }

    /// The route-cache invalidation rule: after `advance_epoch` with a set
    /// of dirty extents, no resident entry's path crosses any extent, and
    /// every survivor is promoted to the new epoch — a cached route can be
    /// stale-optimal but never invalid.
    #[test]
    fn route_cache_never_serves_across_dirty_extents(seed in 0u64..10_000) {
        let pts: PointSet = sample_poisson_window(
            &mut rng_from_seed(derive_seed2(seed, 0, 0)),
            8.0,
            &Aabb::square(6.0),
        );
        if pts.len() < 4 {
            return Ok(());
        }
        let n = pts.len() as u64;
        let mut cache = RouteCache::new(32);
        for i in 0..40u64 {
            let src = (derive_seed2(seed, i, 1) % n) as u32;
            let dst = (derive_seed2(seed, i, 2) % n) as u32;
            let len = 2 + (derive_seed2(seed, i, 3) % 6) as usize;
            let path: Vec<u32> = (0..len as u64)
                .map(|j| (derive_seed2(seed, i, 4 + j) % n) as u32)
                .collect();
            cache.insert(src, dst, path, 0);
        }
        // Random dirty extents inside the window (possibly overlapping).
        let dirty: Vec<Aabb> = (0..1 + derive_seed2(seed, 99, 0) % 3)
            .map(|b| {
                let x = 6.0 * u01(derive_seed2(seed, 100 + b, 0));
                let y = 6.0 * u01(derive_seed2(seed, 100 + b, 1));
                let w = 0.5 + 2.0 * u01(derive_seed2(seed, 100 + b, 2));
                Aabb::from_coords(x, y, (x + w).min(6.0), (y + w).min(6.0))
            })
            .collect();
        // Some entries additionally fail snapshot validation.
        let mut still_valid = |p: &[u32]| {
            !derive_seed2(seed, 0x7A11D, p.iter().map(|&u| u as u64).sum()).is_multiple_of(4)
        };
        cache.advance_epoch(1, 0xF00D, &dirty, &pts, &mut still_valid);
        prop_assert_eq!(
            cache.paths_crossing(&dirty, &pts),
            0,
            "an entry crossing a dirty extent survived the epoch advance"
        );
        let epochs = cache.epochs();
        prop_assert!(epochs.iter().all(|&e| e == 1), "unpromoted survivor: {:?}", epochs);
    }

    /// The quiescent-epoch shortcut: an advance with no dirty extents and
    /// an unchanged snapshot fingerprint must promote every resident entry
    /// without a single `still_valid` replay — and must agree byte-for-byte
    /// (same residents, same promotion) with the full sweep it replaces.
    /// The first advance a cache sees (no witnessed fingerprint yet) and
    /// any fingerprint change must still pay for the full sweep.
    #[test]
    fn route_cache_quiescent_epoch_skips_revalidation(seed in 0u64..10_000) {
        let pts: PointSet = sample_poisson_window(
            &mut rng_from_seed(derive_seed2(seed, 1, 0)),
            8.0,
            &Aabb::square(6.0),
        );
        if pts.len() < 4 {
            return Ok(());
        }
        let n = pts.len() as u64;
        let fp = derive_seed2(seed, 0xF1, 0);
        let mut cache = RouteCache::new(32);
        for i in 0..24u64 {
            let src = (derive_seed2(seed, i, 1) % n) as u32;
            let dst = (derive_seed2(seed, i, 2) % n) as u32;
            let len = 2 + (derive_seed2(seed, i, 3) % 6) as usize;
            let path: Vec<u32> = (0..len as u64)
                .map(|j| (derive_seed2(seed, i, 4 + j) % n) as u32)
                .collect();
            cache.insert(src, dst, path, 0);
        }
        // A quiescent snapshot never invalidates a path, so the faithful
        // model of `still_valid` on an unchanged graph is deterministic in
        // the path — identical answers on every sweep.
        let still_valid =
            |p: &[u32]| !derive_seed2(seed, 0x5741B, p.iter().map(|&u| u as u64).sum()).is_multiple_of(4);
        // Advance 1: same fingerprint, no dirty extents — but the cache has
        // not witnessed `fp` yet, so the sweep must run over every entry.
        let resident = cache.len();
        let mut calls = 0usize;
        cache.advance_epoch(1, fp, &[], &pts, |p| {
            calls += 1;
            still_valid(p)
        });
        prop_assert_eq!(calls, resident, "first advance must replay every entry");
        // Shadow: what the full sweep would do from here.
        let mut shadow = cache.clone();
        // Advance 2: dirty empty + fingerprint unchanged → zero replays,
        // every survivor promoted.
        let survivors = cache.len();
        let mut calls = 0usize;
        cache.advance_epoch(2, fp, &[], &pts, |p| {
            calls += 1;
            still_valid(p)
        });
        prop_assert_eq!(calls, 0, "quiescent advance ran still_valid");
        prop_assert_eq!(cache.len(), survivors, "quiescent advance changed residency");
        prop_assert!(cache.epochs().iter().all(|&e| e == 2), "unpromoted survivor");
        // Differential: a forced full sweep (fingerprint changed) over the
        // same unchanged graph keeps exactly the same residents in the same
        // order — the shortcut is an optimisation, not a behaviour change.
        let mut shadow_calls = 0usize;
        shadow.advance_epoch(2, fp ^ 1, &[], &pts, |p| {
            shadow_calls += 1;
            still_valid(p)
        });
        prop_assert_eq!(shadow_calls, survivors, "changed fingerprint must replay");
        prop_assert_eq!(shadow.len(), cache.len(), "sweep and shortcut diverged");
        prop_assert_eq!(shadow.epochs(), cache.epochs(), "promotion diverged");
    }
}

/// Uniform in [0, 1) from one hash word (mirrors the simnet helper, which
/// is crate-private).
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// 4. Channel sharing with the batch engine.
// ---------------------------------------------------------------------

/// The published fingerprint walk equals the batch churn engine's
/// `graph_hash` channel for the same `(universe, kind, schedule, seed)` —
/// the regression fence for serve/batch divergence. (The serve module's
/// unit tests pin snapshot fingerprint == live post-splice fingerprint on
/// every epoch of the same writer schedule.)
#[test]
fn published_fingerprints_equal_batch_graph_hash_channel() {
    for (ki, kind) in KINDS.into_iter().enumerate() {
        let seed = derive_seed2(0xF1F0, ki as u64, 0);
        let (pts, alive) = universe(seed, 9.0, 14.0, 0.25);
        let cfg = serve_cfg(4, 2, 0.10, seed);
        let serve = run_serve(&pts, &alive, kind, &cfg);
        let mut batch_cfg = cfg.churn;
        batch_cfg.traffic_per_epoch = 0;
        let batch = simulate_lifetime_plain(&pts, &alive, kind, &batch_cfg, cfg.seed);
        assert!(
            fingerprints_match_batch(&serve, &batch),
            "{}: serve fingerprints diverged from the batch graph_hash walk",
            kind.label()
        );
    }
}

// ---------------------------------------------------------------------
// 5. The release soak (--ignored).
// ---------------------------------------------------------------------

/// 10⁵-node universe, 50 epochs of clustered blackouts with reserve
/// joins, 4 readers: snapshot residency stays bounded (no leak), every
/// snapshot retires at quiescence, epochs publish monotonically (one
/// fingerprint per epoch, changing whenever churn actually struck), and
/// the answers still match the single-threaded replay byte for byte.
#[test]
#[ignore = "release soak: run with cargo test --release --test serve_concurrency -- --ignored"]
fn soak_100k_nodes_50_epochs_bounded_and_deterministic() {
    let (pts, alive) = universe(0x50A7 ^ 0xFFFF, 100.0, 10.0, 0.125);
    assert!(pts.len() > 90_000, "universe came up short: {}", pts.len());
    let mut churn = ChurnConfig::new(50, 1e12, 0, 0.10, 0.5);
    churn.churn_model = ChurnModel::Clustered { radius: 5.0 };
    churn.verify = false;
    let mut cfg = ServeConfig::new(churn, 4, 8, 12);
    cfg.seed = 0x50AC;
    let kind = IncTopology::Udg { radius: 1.0 };

    let report = run_serve(&pts, &alive, kind, &cfg);
    assert_eq!(report.epochs, 50);
    assert_eq!(report.errors, 0);
    assert!(report.qps > 0.0);
    assert_eq!(report.epoch_fingerprints.len(), 50, "one publish per epoch");
    assert_eq!(report.snapshots_published, 50);
    assert_eq!(
        report.snapshots_retired, report.snapshots_published,
        "soak leaked snapshots"
    );
    assert!(
        report.max_live_snapshots <= 2,
        "lockstep residency bound violated: {} live",
        report.max_live_snapshots
    );
    assert!(
        report.deaths_total > 0 && report.joins_total > 0,
        "soak schedule produced no churn"
    );
    // Monotone epoch progression with real topology movement: adjacent
    // fingerprints differ whenever that epoch actually churned — over 50
    // epochs at 10% clustered churn, at least half must move.
    let moved = report
        .epoch_fingerprints
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count();
    assert!(moved >= 25, "only {moved}/49 epochs moved the topology");

    let oracle = run_replay(&pts, &alive, kind, &cfg);
    assert_identical(&report, &oracle, "soak 100k/50-epoch");
}
