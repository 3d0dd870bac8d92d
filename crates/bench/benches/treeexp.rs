//! Criterion coverage of tree-parallel UCT: one benchmark per worker
//! count at a small fixed playout budget on the cheap-rollout SameGame
//! 6x6 board, plus the sequential anchor. CI compiles this via
//! `cargo bench --no-run`, so the `tables --tree` sweep machinery cannot
//! bit-rot; running it locally gives per-width timings with criterion's
//! statistics on top of the sweep's single-shot table.

use criterion::{criterion_group, criterion_main, Criterion};
use nmcs_core::{SearchSpec, UctConfig};
use nmcs_games::SameGame;
use std::hint::black_box;

fn bench_tree_parallel(c: &mut Criterion) {
    let game = SameGame::random(6, 6, 3, 7);
    let config = UctConfig {
        iterations: 400,
        ..UctConfig::default()
    };
    for workers in [1usize, 2, 4] {
        c.bench_function(format!("tree_parallel_{workers}w"), |b| {
            b.iter(|| {
                let report = SearchSpec::tree_parallel_with(config.clone(), workers)
                    .seed(7)
                    .run(&game);
                black_box(report.score)
            })
        });
    }

    // The sequential anchor at the same playout budget.
    c.bench_function("tree_parallel_uct_anchor_1w", |b| {
        b.iter(|| {
            let report = SearchSpec::uct_with(config.clone()).seed(7).run(&game);
            black_box(report.score)
        })
    });
}

criterion_group!(benches, bench_tree_parallel);
criterion_main!(benches);
