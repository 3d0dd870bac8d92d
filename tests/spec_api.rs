//! Integration tests of the unified `SearchSpec` front door on the real
//! domains: every spec run equals its strategy's `*_with` engine room
//! called directly with the same seed, specs round-trip through JSON
//! (the `tables --spec` reproducibility contract), and the erased
//! `AnySearcher` form matches the typed runs.

use pnmcs::games::{SameGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::baselines::{
    beam_search_with, flat_monte_carlo_with, iterated_sampling_with, simulated_annealing_with,
};
use pnmcs::search::{
    decode_report, nested_with, nrpa_with, uct_with, AnnealingConfig, AnySearcher, DynGame,
    NestedConfig, NrpaConfig, Rng, Score, SearchCtx, SearchReport, SearchSpec, UctConfig,
};
use pnmcs::search::{Game, MemoryPolicy};

/// Asserts that the front door's `report` equals its engine room `room`
/// run directly from `Rng::seeded(report.seed)` on an unbounded context:
/// same score, sequence and counters.
fn assert_matches<M: PartialEq + std::fmt::Debug>(
    report: &SearchReport<M>,
    room: impl FnOnce(&mut Rng, &mut SearchCtx) -> (Score, Vec<M>),
    label: &str,
) {
    let mut ctx = SearchCtx::unbounded();
    let (score, sequence) = room(&mut Rng::seeded(report.seed), &mut ctx);
    assert_eq!(report.score, score, "{label} score");
    assert_eq!(report.sequence, sequence, "{label} sequence");
    assert_eq!(&report.stats, ctx.stats(), "{label} stats");
    assert!(report.interrupted.is_none(), "{label} interrupted");
}

#[test]
fn shims_equal_specs_on_morpion_seed_for_seed() {
    let board = cross_board(Variant::Disjoint, 3);
    for seed in [1u64, 2009] {
        let spec_run = SearchSpec::nested(1).seed(seed).run(&board);
        assert_matches(
            &spec_run,
            |rng, ctx| nested_with(&board, 1, &NestedConfig::paper(), rng, ctx),
            "nested",
        );

        let greedy = SearchSpec::nested(1)
            .memory(MemoryPolicy::Greedy)
            .seed(seed)
            .run(&board);
        assert_matches(
            &greedy,
            |rng, ctx| nested_with(&board, 1, &NestedConfig::greedy(), rng, ctx),
            "nested-greedy",
        );

        let cfg = NrpaConfig::with_iterations(10);
        let spec_run = SearchSpec::nrpa_with(1, cfg.clone()).seed(seed).run(&board);
        assert_matches(
            &spec_run,
            |rng, ctx| nrpa_with(&board, 1, &cfg, rng, ctx),
            "nrpa",
        );

        let ucfg = UctConfig {
            iterations: 300,
            ..UctConfig::default()
        };
        let spec_run = SearchSpec::uct_with(ucfg.clone()).seed(seed).run(&board);
        assert_matches(
            &spec_run,
            |rng, ctx| uct_with(&board, &ucfg, rng, ctx),
            "uct",
        );
    }
}

#[test]
fn shims_equal_specs_on_samegame_and_tsp() {
    let sg = SameGame::random(7, 7, 3, 4);
    let tsp = TspGame::new(TspInstance::random(10, 4), None);
    for seed in [3u64, 77] {
        let spec_run = SearchSpec::flat_mc(64).seed(seed).run(&sg);
        assert_matches(
            &spec_run,
            |rng, ctx| flat_monte_carlo_with(&sg, 64, rng, ctx),
            "flat-mc",
        );

        let spec_run = SearchSpec::iterated_sampling(2).seed(seed).run(&sg);
        assert_matches(
            &spec_run,
            |rng, ctx| iterated_sampling_with(&sg, 2, rng, ctx),
            "iterated-sampling",
        );

        let spec_run = SearchSpec::beam(4, 2).seed(seed).run(&tsp);
        assert_matches(
            &spec_run,
            |rng, ctx| beam_search_with(&tsp, 4, 2, rng, ctx),
            "beam",
        );

        let spec_run = SearchSpec::nested(2).seed(seed).run(&tsp);
        assert_matches(
            &spec_run,
            |rng, ctx| nested_with(&tsp, 2, &NestedConfig::paper(), rng, ctx),
            "nested-tsp",
        );

        let acfg = AnnealingConfig {
            iterations: 1_500,
            ..Default::default()
        };
        let spec_run = SearchSpec::simulated_annealing_with(acfg.clone())
            .seed(seed)
            .run(&sg);
        assert_matches(
            &spec_run,
            |rng, ctx| simulated_annealing_with(&sg, &acfg, rng, ctx),
            "simulated-annealing-samegame",
        );

        let spec_run = SearchSpec::simulated_annealing_with(acfg.clone())
            .seed(seed)
            .run(&tsp);
        assert_matches(
            &spec_run,
            |rng, ctx| simulated_annealing_with(&tsp, &acfg, rng, ctx),
            "simulated-annealing-tsp",
        );
    }
}

#[test]
fn simulated_annealing_spec_round_trips_and_reruns_identically() {
    // The last baseline joins the `tables --spec '<json>'` contract:
    // serialise, re-parse, rerun, and the reports agree bit-for-bit.
    let sg = SameGame::random(7, 7, 3, 6);
    let spec = SearchSpec::simulated_annealing_with(AnnealingConfig {
        iterations: 800,
        t_initial: 6.0,
        t_final: 0.02,
    })
    .seed(2009)
    .build();
    let json = serde_json::to_string(&spec).unwrap();
    let pasted: SearchSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, pasted);
    let first = spec.run(&sg);
    let second = pasted.run(&sg);
    assert_eq!(first.score, second.score);
    assert_eq!(first.sequence, second.sequence);
    assert_eq!(first.stats, second.stats);

    // The sequence replays (annealing reports real lines, not vectors).
    let mut replay = sg;
    for mv in &first.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), first.score);
}

#[test]
fn a_pasted_spec_json_reproduces_a_run_exactly() {
    // The `tables --spec '<json>'` contract: serialise, re-parse, rerun,
    // and the two reports agree bit-for-bit (scores, sequences, stats).
    let sg = SameGame::random(8, 8, 4, 11);
    let spec = SearchSpec::leaf(1, 4, 3).seed(2009).build();
    let first = spec.run(&sg);
    let json = serde_json::to_string(&spec).unwrap();
    let pasted: SearchSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, pasted);
    let second = pasted.run(&sg);
    assert_eq!(first.score, second.score);
    assert_eq!(first.sequence, second.sequence);
    assert_eq!(first.stats, second.stats);
    assert_eq!(first.client_jobs, second.client_jobs);

    // Reports themselves round-trip too (persisted sweep rows).
    let report_json = serde_json::to_string(&first).unwrap();
    let back: SearchReport<pnmcs::games::Tap> = serde_json::from_str(&report_json).unwrap();
    assert_eq!(back.score, first.score);
    assert_eq!(back.sequence, first.sequence);
    assert_eq!(back.stats, first.stats);
    assert_eq!(back.seed, first.seed);
}

#[test]
fn erased_searcher_matches_typed_searcher() {
    let sg = SameGame::random(6, 6, 3, 8);
    let specs: Vec<SearchSpec> = vec![
        SearchSpec::nested(1).seed(5).build(),
        SearchSpec::nrpa(1).seed(5).build(),
        SearchSpec::uct().seed(5).build(),
        // Tree-parallel at one worker is deterministic, so erasure
        // transparency is assertable for the new backend too.
        SearchSpec::tree_parallel(1).seed(5).build(),
        SearchSpec::simulated_annealing_with(AnnealingConfig {
            iterations: 400,
            ..Default::default()
        })
        .seed(5)
        .build(),
    ];
    for spec in &specs {
        let typed = spec.run(&sg);
        let erased: &dyn AnySearcher = spec;
        let report = erased.search_erased(&DynGame::new(sg.clone()), None);
        let decoded = decode_report(&sg, &report);
        assert_eq!(decoded.score, typed.score, "{}", erased.label());
        assert_eq!(decoded.sequence, typed.sequence, "{}", erased.label());
        assert_eq!(decoded.stats, typed.stats, "{}", erased.label());
    }
}

#[test]
fn reports_subsume_the_legacy_result_shapes() {
    // One report answers what previously took three types: score +
    // sequence + stats (SearchResult), wall/work (ThreadReport), and the
    // leaf backend's (outcome, elapsed) tuple.
    let board = cross_board(Variant::Disjoint, 2);
    let report = SearchSpec::root_parallel(2, 2).seed(9).run(&board);
    assert!(report.elapsed.as_nanos() > 0);
    assert!(report.total_work() > 0);
    assert!(report.client_jobs > 0);
    let legacy = report.result();
    assert_eq!(legacy.score, report.score);
    assert_eq!(legacy.stats.work_units, report.total_work());
    let mut replay = board;
    for mv in &report.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), report.score);
}

#[test]
fn tree_parallel_knobs_round_trip_and_rerun_identically() {
    use pnmcs::search::AlgorithmSpec;
    let sg = SameGame::random(6, 6, 3, 4);
    let cfg = UctConfig {
        iterations: 150,
        ..UctConfig::default()
    };
    // Both remaining knobs (width and warm-tree reuse) serde-round-trip;
    // the deterministic specs (one worker) also rerun identically from
    // the parsed spec.
    for threads in [1usize, 2] {
        for reuse in [false, true] {
            let spec = SearchSpec::tree_parallel_with(cfg.clone(), threads)
                .tree_reuse(reuse)
                .seed(9)
                .build();
            let json = serde_json::to_string(&spec).unwrap();
            let back: SearchSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "round-trip of {json}");
            let AlgorithmSpec::TreeParallel {
                threads: t,
                tree_reuse: r,
                ..
            } = &back.algorithm
            else {
                panic!("wrong variant from {json}");
            };
            assert_eq!((*t, *r), (threads, reuse));
            if threads == 1 {
                let first = spec.run(&sg);
                let again = back.run(&sg);
                assert_eq!(first.score, again.score, "{json}");
                assert_eq!(first.sequence, again.sequence, "{json}");
                assert_eq!(first.stats, again.stats, "{json}");
            }
        }
    }
}

#[test]
fn pre_knob_tree_parallel_json_parses_to_the_defaults() {
    // A PR-4 row carries only the kind and the width; it must still
    // parse, landing on the one tree-parallel search.
    let json = r#"{"algorithm":{"kind":"tree_parallel","threads":4},"seed":7}"#;
    let spec: SearchSpec = serde_json::from_str(json).unwrap();
    assert_eq!(spec, SearchSpec::tree_parallel(4).seed(7).build());
}

/// A tree-parallel row exactly as the serialiser wrote it before the
/// search had one configuration: the four removed knobs at the values
/// that named the surviving search.
const LEGACY_DEFAULT_ROW: &str = concat!(
    r#"{"algorithm":{"kind":"tree_parallel","#,
    r#""config":{"iterations":200,"exploration":0.4,"max_bias":0.5},"threads":1,"#,
    r#""lock":"Sharded","stats":"WuUct","leaf_batch":0,"leaf_batch_dynamic":false,"#,
    r#""tree_reuse":false},"#,
    r#""budget":{"deadline_ms":null,"max_playouts":null,"max_nodes":null},"seed":9}"#
);

#[test]
fn legacy_rows_with_the_default_knobs_replay_bit_identically() {
    let cfg = UctConfig {
        iterations: 200,
        ..UctConfig::default()
    };
    let legacy: SearchSpec = serde_json::from_str(LEGACY_DEFAULT_ROW).unwrap();
    let current = SearchSpec::tree_parallel_with(cfg.clone(), 1)
        .seed(9)
        .build();
    assert_eq!(legacy, current);
    assert_eq!(legacy.algorithm.tag(), current.algorithm.tag());
    // `leaf_batch: 1` also named inline rollouts.
    let one = LEGACY_DEFAULT_ROW.replace(r#""leaf_batch":0"#, r#""leaf_batch":1"#);
    assert_eq!(serde_json::from_str::<SearchSpec>(&one).unwrap(), current);

    let sg = SameGame::random(6, 6, 3, 9);
    let tsp = TspGame::new(TspInstance::random(8, 4), None);
    let replay = legacy.run(&sg);
    let uct = SearchSpec::uct_with(cfg.clone()).seed(9).run(&sg);
    assert_eq!(
        (replay.score, &replay.sequence, &replay.stats),
        (uct.score, &uct.sequence, &uct.stats),
        "samegame: a width-1 legacy row is still sequential UCT"
    );
    let replay = legacy.run(&tsp);
    let uct = SearchSpec::uct_with(cfg).seed(9).run(&tsp);
    assert_eq!(
        (replay.score, &replay.sequence, &replay.stats),
        (uct.score, &uct.sequence, &uct.stats),
        "tsp: a width-1 legacy row is still sequential UCT"
    );
}

#[test]
fn removed_tree_parallel_knobs_fail_to_parse_naming_the_field() {
    for (field, from, to) in [
        ("lock", r#""lock":"Sharded""#, r#""lock":"Global""#),
        ("stats", r#""stats":"WuUct""#, r#""stats":"VirtualLoss""#),
        ("leaf_batch", r#""leaf_batch":0"#, r#""leaf_batch":4"#),
        (
            "leaf_batch_dynamic",
            r#""leaf_batch_dynamic":false"#,
            r#""leaf_batch_dynamic":true"#,
        ),
    ] {
        let json = LEGACY_DEFAULT_ROW.replace(from, to);
        assert_ne!(json, LEGACY_DEFAULT_ROW, "{field}: the value was replaced");
        let err = serde_json::from_str::<SearchSpec>(&json)
            .expect_err("a removed knob must not parse")
            .to_string();
        assert!(
            err.contains(&format!("removed tree-parallel knob `{field}:")),
            "{field}: error must name the field, got {err:?}"
        );
    }
}

#[test]
fn tree_parallel_knobs_are_part_of_tag_identity() {
    use pnmcs::search::AlgorithmSpec;
    // Width and warm-tree reuse change which search the racing workers
    // perform, so two specs differing only in one must not look alike
    // to the engine's duplicate detection.
    let base = AlgorithmSpec::tree_parallel(4);
    assert_eq!(base.tag(), AlgorithmSpec::tree_parallel(4).tag());
    assert_ne!(base.tag(), AlgorithmSpec::tree_parallel(2).tag());
    assert_ne!(
        base.tag(),
        SearchSpec::tree_parallel(4)
            .tree_reuse(true)
            .build()
            .algorithm
            .tag()
    );
}
