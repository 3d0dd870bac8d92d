//! The per-layer metric catalog, and the domain and playout replay
//! passes that time the `Game` and `PlayoutScratch` APIs on positions
//! and sequences a workload itself produced.

use crate::stats::Sheet;
use crate::TRACED_E2E;
use nmcs_core::{Game, PlayoutScratch, Rng, SearchCtx};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each replay measurement runs.
const REPLAY_BUDGET: Duration = Duration::from_millis(150);

/// Every per-layer metric a traced run prints, sorted.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "games.samegame.apply_undo_ns",
        "games.samegame.legal_moves_ns",
        "games.samegame.state_hash_ns",
        "morpion.apply_undo_ns",
        "morpion.legal_moves_ns",
        "morpion.state_hash_ns",
        "search.playout_us.undo.samegame",
        "search.playout_us.clone.samegame",
        "search.playout_us.undo.morpion",
        "search.playout_us.clone.morpion",
        "search.playouts",
        "search.work_units",
        "search.client_jobs",
        "pool.busy_ratio",
        "pool.steals",
        "pool.parks",
        "pool.wakeups",
        "pool.batch_slots",
        "pool.speedup_w2",
        "uct.iters_per_s.w1.samegame",
        "uct.iters_per_s.w1.morpion",
        "uct.iters_per_s.w2.samegame",
        "uct.iters_per_s.w2.morpion",
        "uct.expansions",
        "uct.overshoot",
        "session.step_ms_p50",
        "session.bytes",
        "session.tt_hit_ratio",
        "engine.queue_wait_ms_p50",
        "engine.queue_wait_ms_p99",
        "engine.run_ms_p50",
        "engine.executed_tasks",
        "engine.stolen_tasks",
        "engine.rejected_submissions",
        "engine.session_evictions",
        "serve.submit_ms_p50",
        "serve.submit_ms_p99",
        "serve.poll_ms_p50",
        "serve.metrics_ms_p50",
        "serve.session_open_ms_p50",
        "serve.gen_lag_ms_p99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for reason in nmcs_serve::metrics::SHED_REASONS {
        names.push(format!("serve.shed_ratio.{reason}"));
    }
    for m in TRACED_E2E {
        names.push(format!("traced.{m}"));
    }
    names.sort();
    names
}

/// Runs `body` repeatedly for [`REPLAY_BUDGET`]; `body` returns how many
/// operations it performed. Returns nanoseconds per operation.
fn ns_per_op(mut body: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < REPLAY_BUDGET || ops == 0 {
        ops += body();
    }
    started.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Times `apply`+`undo`, `legal_moves_into` and `state_hash` along each
/// `(root, sequence)` line, reporting `<prefix>.apply_undo_ns` (per
/// apply/undo pair), `<prefix>.legal_moves_ns` and
/// `<prefix>.state_hash_ns` (per call, over every position on the lines).
pub fn domain_replay<G: Game>(prefix: &str, lines: &[(G, Vec<G::Move>)], sheet: &mut Sheet) {
    let mut games: Vec<G> = lines.iter().map(|(g, _)| g.clone()).collect();
    let mut undos = Vec::new();
    let apply_undo = ns_per_op(|| {
        let mut n = 0;
        for (g, (_, seq)) in games.iter_mut().zip(lines) {
            for mv in seq {
                undos.push(g.apply(black_box(mv)));
            }
            g.undo_all(&mut undos);
            n += seq.len() as u64;
        }
        n
    });
    let positions: Vec<G> = lines
        .iter()
        .flat_map(|(root, seq)| {
            let mut g = root.clone();
            let mut out = vec![g.clone()];
            for mv in seq {
                g.play(mv);
                out.push(g.clone());
            }
            out
        })
        .collect();
    let mut buf = Vec::new();
    let legal = ns_per_op(|| {
        for p in &positions {
            p.legal_moves_into(&mut buf);
            black_box(buf.len());
        }
        positions.len() as u64
    });
    let hash = ns_per_op(|| {
        for p in &positions {
            black_box(p.state_hash());
        }
        positions.len() as u64
    });
    sheet.put(format!("{prefix}.apply_undo_ns"), apply_undo, "ns");
    sheet.put(format!("{prefix}.legal_moves_ns"), legal, "ns");
    sheet.put(format!("{prefix}.state_hash_ns"), hash, "ns");
}

/// Times uniform random playouts from each root through
/// `PlayoutScratch::run_undo` (position restored in place) and
/// `PlayoutScratch::run` (on a fresh clone, clone included), reporting
/// `search.playout_us.{undo,clone}.<domain>` per playout.
pub fn playout_replay<G: Game>(domain: &str, roots: &[G], seed: u64, sheet: &mut Sheet) {
    let mut scratch = PlayoutScratch::new();
    let mut ctx = SearchCtx::unbounded();
    let mut rng = Rng::seeded(seed);
    let mut seq = Vec::new();
    let mut games: Vec<G> = roots.to_vec();
    let undo = ns_per_op(|| {
        for g in games.iter_mut() {
            seq.clear();
            black_box(scratch.run_undo(g, &mut rng, None, &mut seq, &mut ctx));
        }
        games.len() as u64
    });
    let clone = ns_per_op(|| {
        for root in roots {
            let mut g = root.clone();
            seq.clear();
            black_box(scratch.run(&mut g, &mut rng, None, &mut seq, &mut ctx));
        }
        roots.len() as u64
    });
    sheet.put(format!("search.playout_us.undo.{domain}"), undo / 1e3, "us");
    sheet.put(
        format!("search.playout_us.clone.{domain}"),
        clone / 1e3,
        "us",
    );
}
