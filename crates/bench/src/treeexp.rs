//! Tree-parallel UCT experiment (`tables --tree`).
//!
//! Sweeps the **worker count** for `SearchSpec::tree_parallel` (lock-free
//! tree, WU-UCT statistics, inline rollouts) on a cheap-rollout
//! SameGame 6x6 board — the regime where selection and the shared
//! counters dominate — and a reduced Morpion cross, reporting score,
//! wall-clock time, playout throughput, and each row's throughput
//! relative to the same domain's one-worker row (`vs w1`). Sequential
//! UCT is the `workers = 1` anchor: per seed, tree-parallel at one
//! worker is bit-identical to `SearchSpec::uct()` — the sweep asserts
//! it, so the scaling experiment can never drift from the conformance
//! contract.
//!
//! Unlike the leaf and root sweeps, the score column is **allowed to
//! move with the worker count** above one worker: tree-parallel workers
//! race on one shared tree, so their interleaving shapes the search
//! itself. The `deterministic` column states the contract per row so
//! the table never over-promises (see
//! `AlgorithmSpec::worker_count_deterministic`).
//!
//! Every row records the exact [`SearchSpec`] JSON that produced it;
//! deterministic rows are reproducible from the command line with
//! `tables --spec '<json>' --game <domain>`, nondeterministic rows
//! reproduce the *distribution*, not the cell.

use crate::pooldelta::PoolProbe;
use crate::report::Table;
use morpion::{cross_board, Variant};
use nmcs_core::{CodedGame, SearchSpec, Searcher, UctConfig};
use nmcs_games::SameGame;
use serde::Serialize;

/// One measured (domain × workers) cell of the tree-parallel sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TreeRow {
    pub domain: String,
    pub threads: usize,
    pub score: i64,
    pub elapsed_ms: f64,
    pub playouts: u64,
    pub playouts_per_sec: f64,
    /// Throughput relative to the same domain's one-worker row (1.0 for
    /// that row itself) — the measured, not asserted, parallel speed-up.
    pub vs_w1: f64,
    /// Executor-pool deque steals per second during this row's run
    /// (delta of the shared metrics registry around the measurement).
    pub steals_per_sec: f64,
    /// Executor-pool worker parks per second during this row's run.
    pub parks_per_sec: f64,
    /// Executor-pool wakeup-generation bumps per second during this
    /// row's run.
    pub wakeups_per_sec: f64,
    /// Whether this cell's result is reproducible bit-for-bit from its
    /// spec (true at one worker, false above — the honest column).
    pub deterministic: bool,
    /// The exact spec JSON describing this row.
    pub spec: String,
}

fn measure<G>(domain: &str, game: &G, threads: usize, iterations: usize, seed: u64) -> TreeRow
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let config = UctConfig {
        iterations,
        ..UctConfig::default()
    };
    let spec = SearchSpec::tree_parallel_with(config.clone(), threads)
        .seed(seed)
        .build();
    let probe = PoolProbe::start();
    let report = spec.search(game, None);
    let delta = probe.finish();
    if threads == 1 {
        // The sweep's built-in conformance check: one worker ≡ uct.
        let uct = SearchSpec::uct_with(config).seed(seed).run(game);
        assert_eq!(
            (report.score, &report.sequence),
            (uct.score, &uct.sequence),
            "{domain}: single-worker tree-parallel must equal sequential UCT",
        );
    }
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    TreeRow {
        domain: domain.to_string(),
        threads,
        score: report.score,
        elapsed_ms: secs * 1e3,
        playouts: report.stats.playouts,
        playouts_per_sec: report.stats.playouts as f64 / secs,
        vs_w1: 1.0, // filled in by `sweep_domain` once the width-1 row exists
        steals_per_sec: delta.steals_per_sec(secs),
        parks_per_sec: delta.parks_per_sec(secs),
        wakeups_per_sec: delta.wakeups_per_sec(secs),
        deterministic: spec.algorithm.worker_count_deterministic(),
        spec: serde_json::to_string(&spec).expect("specs serialise"),
    }
}

fn sweep_domain<G>(
    rows: &mut Vec<TreeRow>,
    domain: &str,
    game: &G,
    threads: &[usize],
    iterations: usize,
    seed: u64,
) where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let base = rows.len();
    for &t in threads {
        rows.push(measure(domain, game, t, iterations, seed));
    }
    // Normalise the domain's rows against its one-worker row (if the
    // sweep has one) so the parallel speed-up is a printed number.
    if let Some(w1) = rows[base..].iter().find(|r| r.threads == 1) {
        let w1_pps = w1.playouts_per_sec.max(1e-9);
        for row in &mut rows[base..] {
            row.vs_w1 = row.playouts_per_sec / w1_pps;
        }
    }
}

/// Sweeps tree-parallel UCT over worker counts at a fixed iteration
/// budget (the shared counter keeps total playouts
/// constant per row, so the throughput column isolates parallel
/// efficiency). The primary domain is a **6x6 SameGame** — rollouts of
/// a few microseconds, the regime where selection cost and the shared
/// counters dominate — with a reduced Morpion cross as the
/// expensive-rollout contrast.
pub fn tree_sweep(threads: &[usize], iterations: usize, seed: u64) -> Vec<TreeRow> {
    let samegame = SameGame::random(6, 6, 3, seed);
    let cross = cross_board(Variant::Disjoint, 3);
    let mut rows = Vec::new();
    sweep_domain(
        &mut rows,
        "samegame-6x6",
        &samegame,
        threads,
        iterations,
        seed,
    );
    // Morpion rollouts are ~2 orders of magnitude more expensive;
    // a quarter of the iteration budget keeps the sweep's wall clock
    // balanced between the domains.
    sweep_domain(
        &mut rows,
        "morpion-5d-c3",
        &cross,
        threads,
        (iterations / 4).max(1),
        seed,
    );
    rows
}

/// Renders a sweep as a table in the style of the paper harness.
pub fn tree_table(rows: &[TreeRow]) -> Table {
    let mut table = Table::new(
        "Tree-parallel UCT: workers (vs one worker)",
        &[
            "domain",
            "workers",
            "score",
            "elapsed (ms)",
            "playouts",
            "playouts/sec",
            "vs w1",
            "steals/s",
            "parks/s",
            "wakeups/s",
            "deterministic",
        ],
    );
    for r in rows {
        table.row(&[
            r.domain.clone(),
            r.threads.to_string(),
            r.score.to_string(),
            format!("{:.1}", r.elapsed_ms),
            r.playouts.to_string(),
            format!("{:.0}", r.playouts_per_sec),
            format!("{:.2}x", r.vs_w1),
            format!("{:.0}", r.steals_per_sec),
            format!("{:.0}", r.parks_per_sec),
            format!("{:.0}", r.wakeups_per_sec),
            if r.deterministic { "yes" } else { "no" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn playout_totals_are_invariant_across_the_whole_grid() {
        // The shared iteration counter: any worker count executes the
        // same number of playouts, so throughput comparisons are fair.
        let rows = tree_sweep(&[1, 2], 120, 7);
        for domain in rows.chunks(2) {
            assert!(domain.iter().all(|r| r.playouts == domain[0].playouts));
        }
    }

    #[test]
    fn rows_are_marked_deterministic_honestly_and_anchor_to_uct() {
        // `measure` itself asserts the uct anchor for single-worker rows.
        let rows = tree_sweep(&[1, 2], 100, 3);
        for row in &rows {
            assert_eq!(row.deterministic, row.threads == 1, "{:?}", row);
            let spec: SearchSpec = serde_json::from_str(&row.spec).expect("row spec parses");
            assert!(matches!(
                spec.algorithm,
                nmcs_core::AlgorithmSpec::TreeParallel { .. }
            ));
        }
    }

    #[test]
    fn width_one_rows_normalise_to_one() {
        let rows = tree_sweep(&[1, 2], 80, 5);
        for row in rows.iter().filter(|r| r.threads == 1) {
            assert!((row.vs_w1 - 1.0).abs() < 1e-12, "{:?}", row);
        }
        assert_eq!(rows.len(), 4, "two domains x two widths");
    }
}
