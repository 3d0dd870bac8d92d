//! Property tests of the unified API's budget and cancellation
//! semantics, across every backend:
//!
//! * a deadline or `max_playouts` budget halts every backend within
//!   tolerance and still returns a valid best-so-far sequence (the
//!   report's sequence replays from the root to the report's score);
//! * a pre-cancelled [`CancelToken`] returns promptly with
//!   `SearchReport::interrupted == Some(Cancelled)`;
//! * an *unhit* budget leaves results bit-identical to the unbudgeted
//!   run — the budget checks provably do not perturb the RNG stream.

use pnmcs::games::{SameGame, SumGame};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{Budget, CancelToken, CodedGame, Game, Interruption, SearchReport, SearchSpec};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Every deterministic strategy of the unified API, smallest-sensible
/// shapes, with the given seed. Tree-parallel joins at one worker (the
/// deterministic form; its multi-worker shape gets its own tests below,
/// since a schedule-dependent backend cannot promise bit-identity).
fn all_specs(seed: u64) -> Vec<SearchSpec> {
    vec![
        SearchSpec::nested(2).seed(seed).build(),
        SearchSpec::nrpa(1).seed(seed).build(),
        SearchSpec::uct().seed(seed).build(),
        SearchSpec::flat_mc(256).seed(seed).build(),
        SearchSpec::iterated_sampling(2).seed(seed).build(),
        SearchSpec::beam(3, 1).seed(seed).build(),
        SearchSpec::sample().seed(seed).build(),
        SearchSpec::simulated_annealing_with(pnmcs::search::AnnealingConfig {
            iterations: 2_000,
            ..Default::default()
        })
        .seed(seed)
        .build(),
        SearchSpec::leaf(1, 4, 2).seed(seed).build(),
        SearchSpec::root_parallel(2, 2).seed(seed).build(),
        SearchSpec::tree_parallel(1).seed(seed).build(),
    ]
}

mod common;
use common::test_workers;

fn assert_replays<G>(game: &G, report: &SearchReport<G::Move>, label: &str)
where
    G: Game,
{
    let mut replay = game.clone();
    for mv in &report.sequence {
        replay.play(mv);
    }
    assert_eq!(
        replay.score(),
        report.score,
        "{label}: report sequence must replay to the report score"
    );
}

fn with_budget(spec: &SearchSpec, budget: Budget) -> SearchSpec {
    SearchSpec {
        algorithm: spec.algorithm.clone(),
        budget,
        seed: spec.seed,
    }
}

fn budget_halts_everything<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    for spec in all_specs(seed) {
        let label = spec.algorithm.label();

        // (a) playout budget: halts with a valid best-so-far sequence.
        let budgeted = with_budget(&spec, Budget::none().with_max_playouts(40));
        let report = budgeted.run(game);
        assert_replays(game, &report, label);
        // A 40-playout cap leaves at most a modest overshoot (each
        // worker may finish the playout it is in when the cap trips).
        assert!(
            report.stats.playouts <= 40 + 16,
            "{label}: {} playouts blew through the cap",
            report.stats.playouts
        );

        // (b) an elapsed deadline halts promptly and stays consistent.
        let deadline = with_budget(&spec, Budget::none().with_deadline(Duration::ZERO));
        let t0 = Instant::now();
        let report = deadline.run(game);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{label}: elapsed-deadline run took {:?}",
            t0.elapsed()
        );
        assert_replays(game, &report, label);
    }
}

fn precancelled_returns_promptly<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let token = CancelToken::new();
    token.cancel();
    for spec in all_specs(seed) {
        let label = spec.algorithm.label();
        let t0 = Instant::now();
        let report = spec.run_cancellable(game, &token);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{label}: pre-cancelled run took {:?}",
            t0.elapsed()
        );
        assert_eq!(
            report.interrupted,
            Some(Interruption::Cancelled),
            "{label}: interrupted must record the cancellation"
        );
        assert_replays(game, &report, label);
    }
}

fn unhit_budget_is_bit_identical<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    // Limits far above what any of these runs can reach, plus a live
    // cancel token that never fires: every check is active on the hot
    // path, none may trip — and none may touch the RNG.
    let huge = Budget::none()
        .with_deadline(Duration::from_secs(3600))
        .with_max_playouts(u64::MAX / 2)
        .with_max_nodes(u64::MAX / 2);
    let token = CancelToken::new();
    for spec in all_specs(seed) {
        let label = spec.algorithm.label();
        let plain = spec.run(game);
        let budgeted = with_budget(&spec, huge.clone()).run_cancellable(game, &token);
        assert_eq!(plain.score, budgeted.score, "{label}");
        assert_eq!(plain.sequence, budgeted.sequence, "{label}");
        assert_eq!(
            plain.stats, budgeted.stats,
            "{label}: budget checks perturbed the search"
        );
        assert_eq!(budgeted.interrupted, None, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn budgets_halt_every_backend_with_valid_results(seed in 0u64..1000) {
        budget_halts_everything(&SumGame::random(6, 4, seed), seed);
    }

    #[test]
    fn budgets_halt_on_samegame_too(seed in 0u64..1000) {
        budget_halts_everything(&SameGame::random(6, 6, 3, seed), seed);
    }

    #[test]
    fn pre_cancelled_tokens_return_promptly(seed in 0u64..1000) {
        precancelled_returns_promptly(&SumGame::random(6, 4, seed), seed);
    }

    #[test]
    fn unhit_budgets_are_bit_identical(seed in 0u64..1000) {
        unhit_budget_is_bit_identical(&SumGame::random(5, 3, seed), seed);
    }
}

#[test]
fn deadline_interrupts_a_long_morpion_search_mid_flight() {
    // A real mid-search deadline (not pre-elapsed): a level-3 search on
    // the reduced cross runs for minutes uninterrupted; 50 ms must stop
    // it within a small multiple of the deadline and still hand back a
    // replayable game.
    let board = cross_board(Variant::Disjoint, 3);
    let t0 = Instant::now();
    let report = SearchSpec::nested(3).seed(1).deadline_ms(50).run(&board);
    let elapsed = t0.elapsed();
    assert_eq!(report.interrupted, Some(Interruption::Deadline));
    assert!(
        elapsed < Duration::from_secs(2),
        "50 ms deadline took {elapsed:?}"
    );
    assert_replays(&board, &report, "nested-3-deadline");
    assert!(report.score > 0, "best-so-far must not be empty-handed");
}

#[test]
fn mid_search_cancellation_from_another_thread_is_prompt() {
    let board = cross_board(Variant::Disjoint, 3);
    let token = CancelToken::new();
    let spec = SearchSpec::nested(3).seed(2).build();
    let (report, cancel_latency) = std::thread::scope(|scope| {
        let searcher = {
            let token = token.clone();
            let board = &board;
            let spec = &spec;
            scope.spawn(move || spec.run_cancellable(board, &token))
        };
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        token.cancel();
        let report = searcher.join().expect("search thread");
        (report, t0.elapsed())
    });
    assert_eq!(report.interrupted, Some(Interruption::Cancelled));
    assert!(
        cancel_latency < Duration::from_secs(2),
        "cancellation latency {cancel_latency:?}"
    );
    assert_replays(&board, &report, "nested-3-cancel");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Multi-worker tree-parallel cannot promise bit-identity, but it
    /// must always honour budgets and hand back a replayable line.
    #[test]
    fn budgets_halt_multi_worker_tree_parallel_with_replayable_results(seed in 0u64..1000) {
        let workers = test_workers();
        let game = SameGame::random(7, 7, 3, seed);
        let spec = SearchSpec::tree_parallel(workers).seed(seed).build();

        // (a) playout cap.
        let budgeted = with_budget(&spec, Budget::none().with_max_playouts(40));
        let report = budgeted.run(&game);
        assert_replays(&game, &report, "tree-parallel/playouts");
        // Each worker may finish the iteration it is in when the cap
        // trips, so the overshoot is bounded by the worker count.
        assert!(
            report.stats.playouts <= 40 + 16 + workers as u64,
            "{} playouts blew through the cap",
            report.stats.playouts
        );

        // (b) node (expansion) cap bounds the shared tree.
        let budgeted = with_budget(&spec, Budget::none().with_max_nodes(50));
        let report = budgeted.run(&game);
        assert_replays(&game, &report, "tree-parallel/nodes");
        assert!(
            report.stats.expansions <= 50 + 16 + workers as u64,
            "{} expansions blew through the node cap",
            report.stats.expansions
        );

        // (c) an elapsed deadline halts promptly.
        let budgeted = with_budget(&spec, Budget::none().with_deadline(Duration::ZERO));
        let t0 = Instant::now();
        let report = budgeted.run(&game);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "elapsed-deadline tree-parallel run took {:?}",
            t0.elapsed()
        );
        assert_replays(&game, &report, "tree-parallel/deadline");

        // (d) a pre-cancelled token stops it before real work.
        let token = CancelToken::new();
        token.cancel();
        let report = spec.run_cancellable(&game, &token);
        assert_eq!(report.interrupted, Some(Interruption::Cancelled));
        assert_replays(&game, &report, "tree-parallel/cancel");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The playout-budget over-issue bound: tree-parallel at *any*
    /// width never exceeds `max_playouts` by more than `threads`
    /// in-flight rollouts — one per worker, the iteration each worker
    /// may already have claimed when the cap trips.
    #[test]
    fn tree_parallel_playout_overissue_is_bounded_by_threads(seed in 0u64..1000) {
        let game = SameGame::random(6, 6, 3, seed);
        let cap = 40u64;
        for threads in [1usize, 2, 4, 8] {
            let spec = SearchSpec::tree_parallel(threads)
                .seed(seed)
                .max_playouts(cap)
                .build();
            let report = spec.run(&game);
            let label = format!("tree-parallel t{threads} seed {seed}");
            assert!(
                report.stats.playouts <= cap + threads as u64,
                "{label}: {} playouts overshot the {cap} cap by more than {threads} in-flight rollouts",
                report.stats.playouts
            );
            assert_replays(&game, &report, &label);
        }
    }
}

#[test]
fn node_budget_bounds_uct_tree_growth() {
    let board = SameGame::random(8, 8, 4, 5);
    let report = SearchSpec::uct().seed(3).max_nodes(200).run(&board);
    assert_eq!(report.interrupted, Some(Interruption::NodeBudget));
    assert!(
        report.stats.expansions <= 200 + 8,
        "expansions {} blew through the node cap",
        report.stats.expansions
    );
    assert_replays(&board, &report, "uct-node-budget");
}
