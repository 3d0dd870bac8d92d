//! Parallel NMCS with real processes: the paper's §IV architecture on
//! threads, then the same search replayed on the simulated 64-client
//! cluster.
//!
//! Demonstrates the determinism contract: the threaded runtime, the
//! sequential reference, and the discrete-event simulator all reach the
//! same score with the same seed — only the clock differs.
//!
//! ```text
//! cargo run --release --example parallel_search [seed]
//! ```

// `run_threads` is deprecated in favour of `SearchSpec::root_parallel`;
// this example demonstrates the message-passing runtime itself (and that
// the unified spec agrees with it), so it calls the shim deliberately.
#![allow(deprecated)]

use pnmcs::morpion::{cross_board, Variant};
use pnmcs::parallel::{
    run_threads, simulate_trace, trace::run_reference, DispatchPolicy, RunMode, ThreadConfig,
};
use pnmcs::search::SearchSpec;
use pnmcs::sim::{format_time, ClusterSpec};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    // The reduced cross keeps a level-3 search interactive on a laptop.
    let board = cross_board(Variant::Disjoint, 3);
    let level = 3;

    println!("Parallel NMCS level {level} (first move) on the 24-point 5D cross\n");

    // 1. Threaded backend: every role is an OS thread.
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
        let mut config = ThreadConfig::new(level, policy, 4);
        config.n_medians = 16;
        config.seed = seed;
        config.mode = RunMode::FirstMove;
        let (outcome, report) = run_threads(&board, &config);
        println!(
            "threads/{policy}: score {} with {} client jobs ({} work units) in {:.2?}",
            outcome.score, outcome.client_jobs, report.total_work, report.wall
        );
    }

    // 2. The unified front door runs the same strategy (budgets and
    //    cancellation available) with an identical outcome.
    let spec_report = SearchSpec::root_parallel(level, 4)
        .seed(seed)
        .first_move_only()
        .run(&board);
    println!(
        "spec:      score {} with {} client jobs ({} work units) in {:.2?}",
        spec_report.score,
        spec_report.client_jobs,
        spec_report.total_work(),
        spec_report.elapsed
    );

    // 3. Tree-level parallelism — the scheme from the parallel-MCTS
    //    literature the paper cites — through the same front door: one
    //    shared, lock-free UCT tree (CAS-claimed child slots) with
    //    WU-UCT unobserved-sample statistics steering concurrent
    //    workers apart. One worker is bit-identical to `SearchSpec::uct()`;
    //    more workers trade determinism for wall-clock (the honest
    //    contract is on `AlgorithmSpec::worker_count_deterministic`).
    for workers in [1usize, 4] {
        let tree = SearchSpec::tree_parallel(workers).seed(seed).run(&board);
        println!(
            "tree×{workers}:   score {} from {} playouts in {:.2?}{}",
            tree.score,
            tree.stats.playouts,
            tree.elapsed,
            if workers == 1 { "  (≡ uct)" } else { "" }
        );
    }

    // 4. Sequential reference records the job trace...
    let (ref_out, trace) = run_reference(&board, level, seed, RunMode::FirstMove, None);
    println!(
        "reference: score {} — identical to both threaded runs by construction",
        ref_out.score
    );

    // 5. ...which the simulator replays on the paper's cluster shapes.
    println!("\nvirtual-time replay of the same search:");
    for n in [1usize, 4, 16, 64] {
        let cluster = if n == 64 {
            ClusterSpec::paper_64()
        } else {
            ClusterSpec::homogeneous(n)
        };
        let out = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute);
        println!(
            "  {n:>2} clients: {:>9}  (mean utilisation {:>3.0}%)",
            format_time(out.makespan),
            out.stats.mean_utilisation * 100.0
        );
    }
}
