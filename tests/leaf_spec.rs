//! Leaf-parallel batched NMCS through the front door
//! (`SearchSpec::leaf(level, batch, threads)`): the top-level game is
//! played greedily, and each candidate move is evaluated by `batch`
//! seeded `level − 1` evaluations spread over a worker pool.
//!
//! Pins the strategy's shape on the toy domains: client-job counts,
//! batch multiplication, level-2 evaluations, first-move mode, the
//! NeedleLadder optimum, batch-size dominance and worker-count
//! independence.

use pnmcs::games::{NeedleLadder, SameGame, SumGame};
use pnmcs::search::SearchSpec;

#[test]
fn worker_count_does_not_change_results() {
    let g = SameGame::random(5, 5, 3, 11);
    let reference = SearchSpec::leaf(1, 4, 1).seed(2009).run(&g);
    for threads in [2, 4] {
        let out = SearchSpec::leaf(1, 4, threads).seed(2009).run(&g);
        assert_eq!(out.score, reference.score, "{threads} workers");
        assert_eq!(out.sequence, reference.sequence, "{threads} workers");
        assert_eq!(
            out.stats.work_units, reference.stats.work_units,
            "{threads} workers"
        );
        assert_eq!(out.client_jobs, reference.client_jobs, "{threads} workers");
    }
}

#[test]
fn batch_size_one_level_one_counts_one_playout_per_move() {
    let g = SumGame::random(4, 3, 2);
    let out = SearchSpec::leaf(1, 1, 2).run(&g);
    assert_eq!(out.sequence.len(), 4);
    assert_eq!(out.client_jobs, 12, "3 moves × 1 slot × 4 steps");
}

#[test]
fn batching_multiplies_leaf_evaluations() {
    let g = SumGame::random(4, 3, 2);
    let out = SearchSpec::leaf(1, 8, 4).run(&g);
    assert_eq!(out.client_jobs, 96, "3 moves × 8 slots × 4 steps");
}

#[test]
fn solves_needle_ladder_like_the_other_backends() {
    let g = NeedleLadder::new(10);
    let out = SearchSpec::leaf(1, 2, 2).run(&g);
    assert_eq!(out.score, g.optimum());
}

#[test]
fn bigger_batches_never_hurt_on_average() {
    // The batch max over more independent playouts stochastically
    // dominates fewer; averaged over instances it must not be worse.
    let mut small = 0i64;
    let mut large = 0i64;
    for seed in 0..8 {
        let g = SumGame::random(5, 4, seed);
        small += SearchSpec::leaf(1, 1, 2).seed(seed).run(&g).score;
        large += SearchSpec::leaf(1, 8, 2).seed(seed).run(&g).score;
    }
    assert!(
        large >= small,
        "batch 8 total {large} must not trail batch 1 total {small}"
    );
}

#[test]
fn first_move_mode_stops_after_one_step() {
    let g = SumGame::random(5, 3, 4);
    let out = SearchSpec::leaf(2, 2, 2).first_move_only().run(&g);
    assert_eq!(out.sequence.len(), 1);
}

#[test]
fn level_two_uses_nested_evaluations() {
    let g = SumGame::random(4, 3, 9);
    let out = SearchSpec::leaf(2, 2, 2).run(&g);
    assert_eq!(out.sequence.len(), 4);
    assert!(out.stats.work_units > 0);
}
