//! Segmented-column integration suite: dirty-segment incremental rebuilds,
//! composed-answer correctness, per-segment provenance, durable
//! composition, and seeded cancellation sweeps where the cancel lands
//! mid-merge (some segments already rebuilt, the rest pending) — in every
//! case provenance must propagate and the dirty set must survive.

use std::sync::Arc;

use synoptic_catalog::FsStorage;
use synoptic_core::{
    Budget, BuildOutcome, CancelToken, PrefixSums, RangeEstimator, RangeQuery, Rng, SegmentLayout,
    SegmentedEstimator, SynopticError,
};
use synoptic_hist::builder::{build_anytime, build_with_budget, AnytimeParams, HistogramMethod};
use synoptic_stream::{
    ColumnBuild, ColumnHandle, DurabilityConfig, MaintainedPool, RebuildConfig, RebuildPolicy,
    SharedStorage,
};

const N: usize = 64;

fn values() -> Vec<i64> {
    (0..N as i64)
        .map(|i| (i * i * 13 + 5 * i) % 89 - 30)
        .collect()
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("synoptic-segtest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn rebuild_touches_only_the_dirty_segment() {
    let pool = MaintainedPool::new(1);
    let vals = values();
    let col = pool
        .add_column_segmented(
            "c",
            &vals,
            HistogramMethod::Sap0,
            48,
            8,
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(4)),
        )
        .unwrap();
    assert_eq!(col.segments(), Some(8));
    // All four updates land in segment 2 (positions 16..24 at 8 segments
    // of width 8).
    for t in 0..4 {
        col.update(17 + t, 5).unwrap();
    }
    col.quiesce();
    let stats = col.stats();
    assert_eq!(stats.rebuilds, 1);
    assert_eq!(stats.segments_rebuilt, 1, "stats: {stats:?}");
    assert_eq!(stats.segments_reused, 7);
    // The dirty set is clean again after the committed rebuild.
    assert_eq!(col.dirty_segments().unwrap(), vec![false; 8]);
    // The refreshed segment reflects the new mass.
    let q = RangeQuery { lo: 16, hi: 23 };
    let est = col.estimate(q);
    let exact = col.exact(q) as f64;
    assert!(
        (est - exact).abs() / exact.abs().max(1.0) < 0.5,
        "estimate {est} should track exact {exact}"
    );
}

#[test]
fn updates_across_segments_mark_each_touched_segment() {
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_segmented(
            "c",
            &values(),
            HistogramMethod::Sap0,
            48,
            4,
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .unwrap();
    col.update(0, 1).unwrap(); // segment 0
    col.update(40, 1).unwrap(); // segment 2
    assert_eq!(
        col.dirty_segments().unwrap(),
        vec![true, false, true, false]
    );
    col.request_rebuild().unwrap();
    col.quiesce();
    let stats = col.stats();
    assert_eq!(stats.segments_rebuilt, 2);
    assert_eq!(stats.segments_reused, 2);
}

#[test]
fn manual_rebuild_with_clean_segments_refreshes_everything() {
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_segmented(
            "c",
            &values(),
            HistogramMethod::Sap0,
            48,
            4,
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .unwrap();
    col.request_rebuild().unwrap();
    col.quiesce();
    let stats = col.stats();
    assert_eq!(stats.rebuilds, 1);
    assert_eq!(stats.segments_rebuilt, 4);
    assert_eq!(stats.segments_reused, 0);
}

#[test]
fn saturated_budget_makes_the_composition_exact() {
    // One bucket per position in every segment ⇒ each partial is exact,
    // and the composed estimator must answer every cross-segment range
    // exactly (the segment-layer analogue of the merge-equivalence
    // property: composing exact partials loses nothing).
    let pool = MaintainedPool::new(1);
    let vals = values();
    let wpb = HistogramMethod::Sap0.words_per_bucket();
    let col = pool
        .add_column_segmented(
            "c",
            &vals,
            HistogramMethod::Sap0,
            wpb * N,
            8,
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .unwrap();
    for q in RangeQuery::all(N) {
        let est = col.estimate(q);
        let exact = col.exact(q) as f64;
        assert!(
            (est - exact).abs() < 1e-6,
            "q={q:?}: est {est} vs exact {exact}"
        );
    }
    // Provenance: every segment committed a real (tier-0) build.
    let outcomes = col.segment_outcomes().unwrap();
    assert_eq!(outcomes.len(), 8);
    for o in &outcomes {
        assert_eq!(o.used, "SAP0");
        assert!(!o.is_degraded());
    }
    // The joint split granted every segment a positive budget.
    let budgets = col.segment_budgets().unwrap();
    assert!(budgets.iter().all(|&w| w >= wpb));
}

/// Registration builds the segments in parallel; the column must be the
/// serial composition: `build_anytime` on each slice with the column's own
/// budget split, in segment order.
fn serial_composition(
    vals: &[i64],
    budgets: &[usize],
    params: &AnytimeParams,
) -> (SegmentedEstimator, Vec<BuildOutcome>) {
    let layout = SegmentLayout::equi_width(vals.len(), budgets.len()).unwrap();
    let mut parts: Vec<Arc<dyn RangeEstimator>> = Vec::new();
    let mut outcomes = Vec::new();
    for (s, &words) in budgets.iter().enumerate() {
        let (l, r) = layout.bounds(s);
        let slice = &vals[l..=r];
        let ps = PrefixSums::from_values(slice);
        let built = build_anytime(HistogramMethod::Sap0, slice, &ps, words, params).unwrap();
        parts.push(Arc::from(built.estimator));
        outcomes.push(built.outcome);
    }
    (SegmentedEstimator::new(layout, parts).unwrap(), outcomes)
}

/// 16 segments of 16 keys with uneven mass, so the joint budget split
/// gives the segments different bucket counts.
fn sixteen_segment_values() -> Vec<i64> {
    let mut rng = Rng::new(0x16);
    (0..256)
        .map(|i| rng.i64_in(-40, 40) + if i / 16 % 3 == 0 { 500 } else { 0 })
        .collect()
}

#[test]
fn parallel_registration_answers_like_the_serial_composition() {
    let pool = MaintainedPool::new(1);
    let vals = sixteen_segment_values();
    let col = pool
        .add_column_segmented(
            "c",
            &vals,
            HistogramMethod::Sap0,
            144,
            16,
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .unwrap();
    let budgets = col.segment_budgets().unwrap();
    let (serial, outcomes) = serial_composition(&vals, &budgets, &AnytimeParams::unconstrained());
    let mut rng = Rng::new(0x64);
    for _ in 0..64 {
        let (a, b) = (rng.usize_in(0, vals.len()), rng.usize_in(0, vals.len()));
        let q = RangeQuery {
            lo: a.min(b),
            hi: a.max(b),
        };
        assert_eq!(
            col.estimate(q).to_bits(),
            serial.estimate(q).to_bits(),
            "q={q:?}"
        );
    }
    let tiers = |os: &[BuildOutcome]| {
        os.iter()
            .map(|o| (o.tier, o.used.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(tiers(&col.segment_outcomes().unwrap()), tiers(&outcomes));
}

#[test]
fn parallel_registration_degrades_the_same_segments_under_a_cell_cap() {
    let pool = MaintainedPool::new(1);
    let vals = sixteen_segment_values();
    let cap = 400;
    let col = pool
        .add_column_segmented(
            "c",
            &vals,
            HistogramMethod::Sap0,
            144,
            16,
            RebuildConfig::new(RebuildPolicy::Manual).with_max_cells(cap),
        )
        .unwrap();
    let budgets = col.segment_budgets().unwrap();
    let params = AnytimeParams::unconstrained().with_max_cells(cap);
    let (_, outcomes) = serial_composition(&vals, &budgets, &params);
    let tiers: Vec<usize> = outcomes.iter().map(|o| o.tier).collect();
    // The cap must split the segments, or the comparison proves nothing.
    assert!(
        tiers.contains(&0) && tiers.iter().any(|&t| t > 0),
        "tiers {tiers:?}"
    );
    let got = col.segment_outcomes().unwrap();
    assert_eq!(got.iter().map(|o| o.tier).collect::<Vec<_>>(), tiers);
    assert_eq!(
        got.iter().map(|o| o.used.as_str()).collect::<Vec<_>>(),
        outcomes.iter().map(|o| o.used.as_str()).collect::<Vec<_>>()
    );
}

/// Seeded sweep: cancellation lands mid-merge. Each seed dirties a
/// different set of segments, then cancels the column's token before the
/// rebuild drains, so the worker fails partway through the
/// rebuild-and-compose cycle. Required invariants, per seed:
/// provenance propagates (`last_error` is `Cancelled`, counted in
/// `failed_rebuilds`, committed outcomes untouched), nothing swaps, and
/// the dirty marks are restored so the next rebuild still knows what
/// changed.
#[test]
fn seeded_cancellation_mid_merge_propagates_provenance_and_restores_dirty() {
    for seed in 1u64..=5 {
        let token = CancelToken::new();
        let pool = MaintainedPool::new(1);
        let col = pool
            .add_column_segmented(
                "c",
                &values(),
                HistogramMethod::Sap0,
                48,
                8,
                RebuildConfig::new(RebuildPolicy::Manual).with_cancel_token(token.clone()),
            )
            .unwrap();
        let outcomes_before = col.segment_outcomes().unwrap();
        let generation_before = col.serving_generation();
        // Deterministic xorshift dirty pattern: 1–4 distinct segments.
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut dirtied = Vec::new();
        for _ in 0..=(seed % 4) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let seg = (s % 8) as usize;
            col.update(seg * 8, 3).unwrap();
            dirtied.push(seg);
        }
        token.cancel();
        col.request_rebuild().unwrap();
        col.quiesce();
        let stats = col.stats();
        assert_eq!(stats.rebuilds, 0, "seed {seed}: nothing may commit");
        assert_eq!(stats.failed_rebuilds, 1, "seed {seed}");
        assert_eq!(stats.segments_rebuilt, 0, "seed {seed}");
        assert!(
            matches!(col.last_error(), Some(SynopticError::Cancelled)),
            "seed {seed}: got {:?}",
            col.last_error()
        );
        // Nothing swapped; the committed per-segment provenance is the
        // registration-time provenance, bit for bit.
        assert_eq!(col.serving_generation(), generation_before, "seed {seed}");
        assert_eq!(col.segment_outcomes().unwrap(), outcomes_before);
        // Every dirtied segment is still marked for the next rebuild.
        let dirty = col.dirty_segments().unwrap();
        for &seg in &dirtied {
            assert!(dirty[seg], "seed {seed}: segment {seg} lost its mark");
        }
    }
}

#[test]
fn segmented_durable_column_journals_and_checkpoints_like_monolithic() {
    let dir = tempdir("durable");
    let storage: SharedStorage = Arc::new(FsStorage::new());
    let durability = DurabilityConfig::journaled(dir.join("wal"));
    let pool = MaintainedPool::new(1);
    let col = pool
        .add_column_segmented_durable(
            "c",
            &values(),
            HistogramMethod::Sap0,
            48,
            4,
            RebuildConfig::new(RebuildPolicy::EveryKUpdates(3)),
            storage,
            &durability,
            0,
            None,
        )
        .unwrap();
    assert!(col.journaled());
    for t in 0..6 {
        col.update(t, 2).unwrap();
    }
    col.quiesce();
    // Every acknowledged update hit the journal before the Fenwick write.
    assert_eq!(col.wal_mark(), 6);
    let stats = col.stats();
    assert!(stats.rebuilds >= 1);
    assert!(stats.segments_rebuilt >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts two columns serve bit-identical answers over every range, with
/// the same provenance and the same maintenance history.
fn assert_same_column(mono: &ColumnHandle, seg: &ColumnHandle, what: &str) {
    for q in RangeQuery::all(N) {
        assert_eq!(
            mono.estimate(q).to_bits(),
            seg.estimate(q).to_bits(),
            "{what}: q={q:?}"
        );
    }
    let (a, b) = (mono.last_outcome().unwrap(), seg.last_outcome().unwrap());
    assert_eq!((&a.used, a.tier), (&b.used, b.tier), "{what}");
    let (x, y) = (mono.stats(), seg.stats());
    let history = |s: synoptic_stream::RebuildStats| (s.rebuilds, s.upgrades, s.failed_upgrades);
    assert_eq!(history(x), history(y), "{what}");
}

/// Both column kinds run one pipeline: a one-segment segmented column and
/// a monolithic anytime column fed the same values, updates and config
/// serve the same bits after registration, after every rebuild and after
/// every upgrade — unconstrained, degraded by a cell cap, and degraded
/// then upgraded in the background.
#[test]
fn a_one_segment_column_answers_like_the_monolithic_column() {
    let vals = values();
    let (method, words) = (HistogramMethod::Sap0, 24);
    let cells = {
        let metered = Budget::unlimited();
        let ps = PrefixSums::from_values(&vals);
        build_with_budget(method, &vals, &ps, words, &metered).unwrap();
        metered.cells_used()
    };
    let manual = || RebuildConfig::new(RebuildPolicy::Manual);
    let configs = [
        ("unconstrained", manual()),
        ("capped", manual().with_max_cells(cells / 2)),
        (
            "upgraded",
            manual()
                .with_max_cells(cells / 2)
                .with_background_upgrade(4),
        ),
    ];
    for (name, config) in configs {
        let pool = MaintainedPool::new(1);
        let build = ColumnBuild::Anytime {
            method,
            budget_words: words,
        };
        let mono = pool
            .add_column("mono", &vals, build, config.clone())
            .unwrap();
        let seg = pool
            .add_column_segmented("seg", &vals, method, words, 1, config)
            .unwrap();
        assert_ne!(
            mono.estimator().method_name(),
            "SEGMENTED",
            "served unwrapped"
        );
        let mut rng = Rng::new(0x51);
        for round in 0..4 {
            if round > 0 {
                let batch: Vec<(usize, i64)> = (0..5)
                    .map(|_| (rng.usize_in(0, N), rng.i64_in(-9, 9)))
                    .collect();
                for col in [&mono, &seg] {
                    col.update_batch(&batch).unwrap();
                    assert!(col.request_rebuild().unwrap());
                }
            }
            mono.quiesce();
            seg.quiesce();
            assert_same_column(&mono, &seg, &format!("{name} round {round}"));
        }
        let outcome = mono.last_outcome().unwrap();
        match name {
            "capped" => assert!(outcome.is_degraded()),
            "upgraded" => assert!(!outcome.is_degraded() && mono.stats().upgrades == 4),
            _ => assert!(!outcome.is_degraded()),
        }
    }
}
