//! Cross-backend agreement: the sequential reference, the threaded
//! runtime, the discrete-event simulator, and the unified `SearchSpec`
//! executors must make identical search decisions for identical seeds —
//! the determinism contract that makes the simulated cluster results
//! transferable. (The deprecated `run_threads` shim is exercised on
//! purpose: shim ≡ reference ≡ spec is exactly the contract under test.)
//!
//! Since the executors moved onto the persistent pool, this suite also
//! pins: pool-backed spec runs ≡ the frozen spawn-per-step baselines
//! per seed; leaf results bit-identical across 1/2/4 workers (the
//! per-slot scratch reuse must not leak state between items); and the
//! tree-parallel UCT contract — single-worker ≡ sequential `uct`,
//! multi-worker always replayable, on all five domains through both the
//! typed and erased (engine) paths.
#![allow(deprecated)]

use pnmcs::engine::{Engine, EngineConfig, JobSpec, JobState};
use pnmcs::games::{SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::parallel::{
    run_threads, run_threads_traced, simulate_trace, trace::run_reference, DispatchPolicy, RunMode,
    ThreadConfig,
};
use pnmcs::search::exec::baseline::{leaf_parallel_spawn, root_parallel_spawn};
use pnmcs::search::{decode_sequence, CodedGame, DynGame, SearchSpec, Searcher, UctConfig};
use pnmcs::sim::ClusterSpec;

mod common;
use common::test_workers;

fn thread_config(level: u32, policy: DispatchPolicy) -> ThreadConfig {
    let mut cfg = ThreadConfig::new(level, policy, 3);
    cfg.n_medians = 6;
    cfg.seed = 4242;
    cfg
}

#[test]
fn threads_match_reference_on_morpion() {
    // Tiny cross: a complete level-2 parallel game in well under a second.
    let board = cross_board(Variant::Disjoint, 2);
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
        let cfg = thread_config(2, policy);
        let (t_out, _) = run_threads(&board, &cfg);
        let (r_out, _) = run_reference(&board, 2, cfg.seed, RunMode::FullGame, None);
        assert_eq!(t_out.score, r_out.score, "{policy}");
        assert_eq!(t_out.sequence, r_out.sequence, "{policy}");
        assert_eq!(t_out.total_work, r_out.total_work, "{policy}");
        assert_eq!(t_out.client_jobs, r_out.client_jobs, "{policy}");
    }
}

#[test]
fn unified_spec_matches_reference_and_threads() {
    // The new front door's root-parallel executor joins the agreement
    // set: spec ≡ reference ≡ threads, score/sequence/work/jobs.
    let board = cross_board(Variant::Disjoint, 2);
    for mode in [RunMode::FullGame, RunMode::FirstMove] {
        let mut cfg = thread_config(2, DispatchPolicy::LastMinute);
        cfg.mode = mode;
        let (t_out, _) = run_threads(&board, &cfg);
        let (r_out, _) = run_reference(&board, 2, cfg.seed, mode, None);
        let spec_report = cfg.to_spec().search(&board, None);
        assert_eq!(spec_report.score, r_out.score, "{mode:?}");
        assert_eq!(spec_report.sequence, r_out.sequence, "{mode:?}");
        assert_eq!(spec_report.stats.work_units, r_out.total_work, "{mode:?}");
        assert_eq!(spec_report.client_jobs, r_out.client_jobs, "{mode:?}");
        assert_eq!(spec_report.score, t_out.score, "{mode:?}");
        // A different worker count cannot change anything.
        let wide = SearchSpec::root_parallel(2, 7).seed(cfg.seed);
        let wide = if mode == RunMode::FirstMove {
            wide.first_move_only()
        } else {
            wide
        };
        let wide_report = wide.run(&board);
        assert_eq!(wide_report.score, spec_report.score, "{mode:?}");
        assert_eq!(wide_report.sequence, spec_report.sequence, "{mode:?}");
        assert_eq!(wide_report.stats, spec_report.stats, "{mode:?}");
    }
}

#[test]
fn simulator_executes_exactly_the_recorded_jobs() {
    let board = cross_board(Variant::Disjoint, 2);
    let (_, trace) = run_reference(&board, 2, 9, RunMode::FullGame, None);
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
        let out = simulate_trace(&trace, &ClusterSpec::homogeneous(5), policy);
        assert_eq!(out.stats.jobs, trace.client_jobs, "{policy}");
        assert_eq!(out.stats.total_work, trace.total_work, "{policy}");
    }
}

#[test]
fn first_move_agreement_at_level_3() {
    let board = cross_board(Variant::Disjoint, 2);
    let mut cfg = thread_config(3, DispatchPolicy::LastMinute);
    cfg.mode = RunMode::FirstMove;
    let (t_out, _) = run_threads(&board, &cfg);
    let (r_out, _) = run_reference(&board, 3, cfg.seed, RunMode::FirstMove, None);
    assert_eq!(t_out.score, r_out.score);
    assert_eq!(t_out.sequence, r_out.sequence);
}

#[test]
fn message_flow_follows_figures_2_through_5() {
    use pnmcs::parallel::{DISPATCHER, ROOT};
    let g = SumGame::random(4, 3, 8);
    let mut cfg = thread_config(2, DispatchPolicy::LastMinute);
    cfg.mode = RunMode::FirstMove;
    let (_, _, log) = run_threads_traced(&g, &cfg);

    // Figure 2 (a): the root opens by sending positions to medians.
    let first_sends: Vec<_> = log.iter().filter(|e| e.from == ROOT).collect();
    assert!(first_sends
        .iter()
        .all(|e| e.tag == "EvalRequest" || e.tag == "Shutdown"));

    // Figure 2 (b): every client request is mediated by the dispatcher.
    let asks = log.iter().filter(|e| e.tag == "WhichClient").count();
    let grants = log.iter().filter(|e| e.tag == "UseClient").count();
    assert_eq!(asks, grants, "every ask is granted exactly once");

    // Figure 4 (c'): Last-Minute clients notify the dispatcher.
    let frees = log.iter().filter(|e| e.tag == "ClientFree").count();
    let client_results = log
        .iter()
        .filter(|e| e.tag == "EvalResult" && e.to != ROOT)
        .count();
    assert_eq!(frees, client_results, "one free notice per client job");
    assert!(log
        .iter()
        .any(|e| e.to == DISPATCHER && e.tag == "ClientFree"));

    // Figure 2 (d): medians report to the root (3 candidate moves).
    let to_root = log
        .iter()
        .filter(|e| e.to == ROOT && e.tag == "EvalResult")
        .count();
    assert_eq!(to_root, 3);
}

#[test]
fn round_robin_run_has_no_free_notices() {
    let g = SumGame::random(4, 3, 8);
    let mut cfg = thread_config(2, DispatchPolicy::RoundRobin);
    cfg.mode = RunMode::FirstMove;
    let (_, _, log) = run_threads_traced(&g, &cfg);
    assert_eq!(
        log.iter().filter(|e| e.tag == "ClientFree").count(),
        0,
        "Figure 2's protocol has no (c') message"
    );
}

#[test]
fn pool_backed_leaf_executor_is_bit_identical_to_the_spawn_baseline() {
    // The tentpole contract: moving the executors onto the persistent
    // pool changed *when* work runs, never *what* it computes. The
    // frozen PR-3 spawn-per-step implementation is the oracle.
    let sg = SameGame::random(7, 7, 3, 2);
    let board = cross_board(Variant::Disjoint, 2);
    for seed in [1u64, 42, 2009] {
        for threads in [1usize, 2, test_workers()] {
            let spec = SearchSpec::leaf(1, 4, threads).seed(seed).run(&sg);
            let spawn = leaf_parallel_spawn(&sg, 1, 4, threads, None, false, seed);
            assert_eq!(spec.score, spawn.score, "samegame seed {seed} t{threads}");
            assert_eq!(spec.sequence, spawn.sequence, "samegame seed {seed}");
            assert_eq!(spec.stats, spawn.stats, "samegame seed {seed}");
            assert_eq!(spec.client_jobs, spawn.client_jobs, "samegame seed {seed}");

            let spec = SearchSpec::leaf(2, 2, threads)
                .seed(seed)
                .first_move_only()
                .run(&board);
            let spawn = leaf_parallel_spawn(&board, 2, 2, threads, None, true, seed);
            assert_eq!(spec.score, spawn.score, "morpion seed {seed} t{threads}");
            assert_eq!(spec.sequence, spawn.sequence, "morpion seed {seed}");
            assert_eq!(spec.stats, spawn.stats, "morpion seed {seed}");
        }
    }
}

#[test]
fn pool_backed_root_executor_is_bit_identical_to_the_spawn_baseline() {
    let board = cross_board(Variant::Disjoint, 2);
    for seed in [7u64, 4242] {
        for threads in [1usize, test_workers()] {
            let spec = SearchSpec::root_parallel(2, threads).seed(seed).run(&board);
            let spawn = root_parallel_spawn(&board, 2, threads, None, false, seed);
            assert_eq!(spec.score, spawn.score, "seed {seed} t{threads}");
            assert_eq!(spec.sequence, spawn.sequence, "seed {seed} t{threads}");
            assert_eq!(spec.stats, spawn.stats, "seed {seed} t{threads}");
            assert_eq!(spec.client_jobs, spawn.client_jobs, "seed {seed}");
        }
    }
}

#[test]
fn leaf_results_are_bit_identical_across_1_2_4_workers() {
    // Regression net for the per-slot scratch reuse: a leaked buffer or
    // seed would show up as a worker-count-dependent result.
    let sg = SameGame::random(8, 8, 4, 6);
    let reference = SearchSpec::leaf(1, 4, 1).seed(11).run(&sg);
    for threads in [2usize, 4] {
        let wide = SearchSpec::leaf(1, 4, threads).seed(11).run(&sg);
        assert_eq!(wide.score, reference.score, "{threads} workers");
        assert_eq!(wide.sequence, reference.sequence, "{threads} workers");
        assert_eq!(wide.stats, reference.stats, "{threads} workers");
        assert_eq!(wide.client_jobs, reference.client_jobs, "{threads} workers");
    }
}

#[test]
fn single_worker_tree_parallel_equals_sequential_uct_on_real_domains() {
    // The acceptance contract of the shared tree: one worker draws the
    // exact RNG stream of sequential `uct` — WU-UCT's selection formula
    // reduces to the sequential one when nothing is in flight.
    let cfg = UctConfig {
        iterations: 400,
        ..UctConfig::default()
    };
    let sg = SameGame::random(6, 6, 3, 9);
    let tsp = TspGame::new(TspInstance::random(9, 3), None);
    for seed in [1u64, 2009] {
        let uct_sg = SearchSpec::uct_with(cfg.clone()).seed(seed).run(&sg);
        let tree_sg = SearchSpec::tree_parallel_with(cfg.clone(), 1)
            .seed(seed)
            .run(&sg);
        let label = format!("samegame seed {seed}");
        assert_eq!(tree_sg.score, uct_sg.score, "{label}");
        assert_eq!(tree_sg.sequence, uct_sg.sequence, "{label}");
        assert_eq!(tree_sg.stats, uct_sg.stats, "{label}");

        let uct_tsp = SearchSpec::uct_with(cfg.clone()).seed(seed).run(&tsp);
        let tree_tsp = SearchSpec::tree_parallel_with(cfg.clone(), 1)
            .seed(seed)
            .run(&tsp);
        let label = format!("tsp seed {seed}");
        assert_eq!(tree_tsp.score, uct_tsp.score, "{label}");
        assert_eq!(tree_tsp.sequence, uct_tsp.sequence, "{label}");
        assert_eq!(tree_tsp.stats, uct_tsp.stats, "{label}");
    }
}

/// Runs tree-parallel on `game` at the CI worker count through the
/// typed path and the erased path, asserting the replay invariant (the
/// one promise multi-worker tree-parallel makes) on both, and the
/// shared counter's exact iteration total.
fn tree_parallel_runs_on<G>(game: &G, label: &str)
where
    G: CodedGame + Send + Sync + 'static,
    G::Move: Send + Sync + std::fmt::Debug + PartialEq,
{
    let cfg = UctConfig {
        iterations: 300,
        ..UctConfig::default()
    };
    let spec = SearchSpec::tree_parallel_with(cfg, test_workers())
        .seed(5)
        .build();
    let typed = spec.run(game);
    let mut replay = game.clone();
    for mv in &typed.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), typed.score, "{label}: typed replay");
    assert_eq!(typed.stats.playouts, 300, "{label}: shared iteration total");

    let erased = spec.search(&DynGame::new(game.clone()), None);
    let decoded = decode_sequence(game, &erased.sequence);
    let mut replay = game.clone();
    for mv in &decoded {
        replay.play(mv);
    }
    assert_eq!(replay.score(), erased.score, "{label}: erased replay");
}

#[test]
fn tree_parallel_runs_on_all_five_domains_typed_and_erased() {
    tree_parallel_runs_on(&cross_board(Variant::Disjoint, 2), "morpion");
    tree_parallel_runs_on(&SameGame::random(6, 6, 3, 4), "samegame");
    tree_parallel_runs_on(&TspGame::new(TspInstance::random(8, 2), None), "tsp");
    tree_parallel_runs_on(&Sudoku::puzzle(3, 30, 7), "sudoku");
    tree_parallel_runs_on(&SumGame::random(6, 4, 3), "sumgame");
}

#[test]
fn tree_parallel_reaches_every_domain_through_the_engine() {
    // The erased (engine) path of the acceptance criterion: a
    // tree-parallel JobSpec on each domain completes and its decoded
    // best line replays to the reported score.
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 16,
    })
    .expect("valid engine config");
    let workers = test_workers();
    let spec = SearchSpec::tree_parallel_with(
        UctConfig {
            iterations: 200,
            ..UctConfig::default()
        },
        workers,
    )
    .seed(17)
    .build();

    fn check<G>(engine: &Engine, game: G, spec: &SearchSpec, label: &str)
    where
        G: CodedGame + Send + Sync + 'static,
        G::Move: Send + Sync,
    {
        let handle = engine
            .submit(JobSpec::from_spec(label, game.clone(), spec.clone()))
            .expect("submit tree-parallel job");
        let output = handle.join();
        assert_eq!(output.state, JobState::Completed, "{label}");
        let best = output.best.expect("completed job has a result");
        let decoded = decode_sequence(&game, &best.result.sequence);
        let mut replay = game;
        for mv in &decoded {
            replay.play(mv);
        }
        assert_eq!(replay.score(), best.result.score, "{label}: engine replay");
    }

    check(&engine, cross_board(Variant::Disjoint, 2), &spec, "morpion");
    check(&engine, SameGame::random(6, 6, 3, 8), &spec, "samegame");
    check(
        &engine,
        TspGame::new(TspInstance::random(8, 5), None),
        &spec,
        "tsp",
    );
    check(&engine, Sudoku::puzzle(3, 30, 2), &spec, "sudoku");
    check(&engine, SumGame::random(6, 4, 9), &spec, "sumgame");
    engine.shutdown();
}

#[test]
fn playout_caps_propagate_to_all_backends() {
    let board = cross_board(Variant::Disjoint, 3);
    let mut cfg = thread_config(2, DispatchPolicy::LastMinute);
    cfg.mode = RunMode::FirstMove;
    cfg.playout_cap = Some(4);
    let (t_out, _) = run_threads(&board, &cfg);
    let (r_out, _) = run_reference(&board, 2, cfg.seed, RunMode::FirstMove, Some(4));
    assert_eq!(t_out.score, r_out.score);
    assert_eq!(t_out.total_work, r_out.total_work);
}
