//! `tree-uct`: tree-parallel UCT with the default knobs (sharded node
//! locks + WU-UCT statistics) at a fixed iteration count, at width 1 and
//! width 2, on SameGame 6×6 (3 colours; rollouts of a few µs, so the
//! shared tree's locks and counters dominate) and Morpion 5D-c3
//! (expensive rollouts). Beside them, warm `tree_reuse` sessions step
//! SameGame 6×6 boards to terminal: the same layer used as a re-rooted
//! tree plus transposition table instead of a cold build.

use crate::stats::{mean, median, ms, percentile, Sheet};
use crate::trace::Tracer;
use crate::{E2e, Pass};
use morpion::{cross_board, Board, Variant};
use nmcs_core::{mix64, CodedGame, Game, SearchReport, SearchSession, SearchSpec, UctConfig};
use nmcs_games::SameGame;
use std::time::{Duration, Instant};

const SAMEGAME_ITERATIONS: usize = 4_000;
const MORPION_ITERATIONS: usize = 4_000;
const SESSION_ITERATIONS: usize = 500;
/// Inputs per second of `--seconds`, sized so one run's two widths plus
/// sessions take about `--seconds` on a 2-core Xeon, and SameGame
/// searches are 70% of the set (so p50 and p90 each sit inside one
/// domain's distribution).
const SAMEGAME_PER_SECOND: u64 = 7;
const MORPION_PER_SECOND: u64 = 3;
const SESSIONS_PER_SECOND: u64 = 2;
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    SameGame,
    Morpion,
}

impl Domain {
    fn name(self) -> &'static str {
        match self {
            Domain::SameGame => "samegame",
            Domain::Morpion => "morpion",
        }
    }

    fn iterations(self) -> usize {
        match self {
            Domain::SameGame => SAMEGAME_ITERATIONS,
            Domain::Morpion => MORPION_ITERATIONS,
        }
    }
}

/// One search input; `seed` is both the SameGame board seed and the
/// search seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub domain: Domain,
    pub seed: u64,
}

pub struct Inputs {
    pub searches: Vec<Input>,
    pub sessions: Vec<u64>,
}

/// The seed's inputs: SameGame and Morpion searches interleaved 7:3,
/// plus the session boards.
pub fn inputs(seed: u64, seconds: u64) -> Inputs {
    let derive = |tag: u64, k: u64| mix64(seed ^ mix64(tag ^ k));
    let n_sg = SAMEGAME_PER_SECOND * seconds;
    let n_mo = MORPION_PER_SECOND * seconds;
    let mut searches = Vec::new();
    let (mut sg, mut mo) = (0, 0);
    while sg < n_sg || mo < n_mo {
        // Keep the running mix at 7:3.
        if mo < n_mo && (sg >= n_sg || mo * n_sg <= sg * n_mo) {
            searches.push(Input {
                domain: Domain::Morpion,
                seed: derive(2, mo),
            });
            mo += 1;
        } else {
            searches.push(Input {
                domain: Domain::SameGame,
                seed: derive(1, sg),
            });
            sg += 1;
        }
    }
    Inputs {
        searches,
        sessions: (0..SESSIONS_PER_SECOND * seconds)
            .map(|k| derive(3, k))
            .collect(),
    }
}

fn samegame(seed: u64) -> SameGame {
    SameGame::random(6, 6, 3, seed)
}

fn config(iterations: usize) -> UctConfig {
    UctConfig {
        iterations,
        ..UctConfig::default()
    }
}

fn tree_spec(domain: Domain, width: usize, seed: u64) -> SearchSpec {
    SearchSpec::tree_parallel_with(config(domain.iterations()), width)
        .seed(seed)
        .build()
}

fn session_spec(seed: u64) -> SearchSpec {
    SearchSpec::uct_with(config(SESSION_ITERATIONS))
        .tree_reuse(true)
        .seed(seed)
        .build()
}

/// What the gate compares between a tree-parallel width-1 run and the
/// serial `SearchSpec::uct` reference.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Print {
    score: i64,
    codes: Vec<u64>,
    playouts: u64,
    expansions: u64,
    work_units: u64,
    interrupted: bool,
}

fn print<G: CodedGame>(root: &G, r: &SearchReport<G::Move>) -> Print {
    Print {
        score: r.score,
        codes: r.sequence.iter().map(|m| root.move_code(m)).collect(),
        playouts: r.stats.playouts,
        expansions: r.stats.expansions,
        work_units: r.stats.work_units,
        interrupted: r.interrupted.is_some(),
    }
}

/// Whether replaying `sequence` from `root` reaches `score`.
fn replays<G: Game>(root: &G, sequence: &[G::Move], score: i64) -> bool {
    let mut g = root.clone();
    for mv in sequence {
        g.play(mv);
    }
    g.score() == score
}

struct Run {
    /// Position of the input in the search set.
    index: usize,
    input: Input,
    width: usize,
    wall: Duration,
    print: Print,
    replayed: bool,
}

fn search<G: CodedGame + Send + Sync>(root: &G, index: usize, input: Input, width: usize) -> Run
where
    G::Move: Send + Sync,
{
    let started = Instant::now();
    let r = tree_spec(input.domain, width, input.seed).run(root);
    let wall = started.elapsed();
    Run {
        index,
        input,
        width,
        wall,
        print: print(root, &r),
        replayed: replays(root, &r.sequence, r.score),
    }
}

/// One warm session stepped to terminal.
#[derive(Default)]
struct SessionRun {
    steps: Vec<(i64, Vec<u64>, u64)>,
    step_ms: Vec<f64>,
    final_score: i64,
    bytes: usize,
    tt_hits: u64,
    expansions: u64,
    replay_failures: usize,
}

fn run_session(seed: u64, tracer: &Tracer, id: u64) -> SessionRun {
    let root = samegame(seed);
    let mut session = SearchSession::new(root.clone(), session_spec(seed), None);
    let mut out = SessionRun::default();
    while !session.is_done() {
        let before = session.game().clone();
        let started = Instant::now();
        let r = session.step(None);
        let ended = Instant::now();
        tracer.record(
            "session.step",
            out.steps.len() as u64 + 1,
            id,
            started,
            ended,
        );
        out.step_ms.push(ms(ended - started));
        if !replays(&before, &r.sequence, r.score) || r.sequence.is_empty() {
            out.replay_failures += 1;
        }
        out.expansions += r.stats.expansions;
        out.steps.push((
            r.score,
            r.sequence.iter().map(|m| before.move_code(m)).collect(),
            r.stats.playouts,
        ));
    }
    out.final_score = session.score();
    if !replays(&root, session.committed(), out.final_score) {
        out.replay_failures += 1;
    }
    out.bytes = session.approx_bytes();
    out.tt_hits = session.table_counters().0;
    out
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Pass {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let ins = inputs(seed, seconds);
        let boards: Vec<Option<SameGame>> = ins
            .searches
            .iter()
            .map(|i| (i.domain == Domain::SameGame).then(|| samegame(i.seed)))
            .collect();
        let cross: Board = cross_board(Variant::Disjoint, 3);
        for width in [1, 2] {
            std::hint::black_box(tree_spec(Domain::Morpion, width, 0).run(&cross));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some((ins, boards, cross));
    }
    let (ins, boards, cross) = prepared.expect("at least one setup");

    // Timed window, in two rounds as in `root-nested` (every input at
    // both widths, alternating which goes first, then every input at
    // width 2 again; an input's search time is the faster of its two
    // width-2 runs), then the sessions. Throughput counts every run.
    let mut runs: Vec<Run> = Vec::new();
    for round in 0..2 {
        for (i, &input) in ins.searches.iter().enumerate() {
            let widths: &[usize] = match (round, (i as u64 + seed).is_multiple_of(2)) {
                (0, true) => &[1, 2],
                (0, false) => &[2, 1],
                _ => &[2],
            };
            for &width in widths {
                let started = Instant::now();
                let run = match &boards[i] {
                    Some(board) => search(board, i, input, width),
                    None => search(&cross, i, input, width),
                };
                tracer.record("search", runs.len() as u64 + 1, 0, started, Instant::now());
                runs.push(run);
            }
        }
    }
    let sessions: Vec<SessionRun> = ins
        .sessions
        .iter()
        .enumerate()
        .map(|(k, &s)| run_session(s, tracer, k as u64 + 1))
        .collect();

    // Correctness, outside the timed window.
    let mut pass = Pass::default();
    for r in &runs {
        pass.attempted += 1;
        let what = format!(
            "{} seed {} width {}",
            r.input.domain.name(),
            r.input.seed,
            r.width
        );
        if !r.replayed {
            pass.failures
                .push(format!("{what}: sequence does not replay to its score"));
            continue;
        }
        if r.print.interrupted {
            pass.failures
                .push(format!("{what}: interrupted without a budget"));
            continue;
        }
        let overshoot = r.print.playouts as i64 - r.input.domain.iterations() as i64;
        if overshoot > r.width as i64 {
            pass.failures.push(format!(
                "{what}: {} playouts overshoot the cap by more than {}",
                r.print.playouts, r.width
            ));
            continue;
        }
        if r.width == 1 {
            let spec = SearchSpec::uct_with(config(r.input.domain.iterations()))
                .seed(r.input.seed)
                .build();
            let want = match r.input.domain {
                Domain::SameGame => {
                    let board = samegame(r.input.seed);
                    print(&board, &spec.run(&board))
                }
                Domain::Morpion => print(&cross, &spec.run(&cross)),
            };
            if want != r.print {
                pass.failures.push(format!(
                    "{what}: differs from SearchSpec::uct: {:?} vs {:?}",
                    r.print, want
                ));
            }
        }
    }
    for (k, s) in sessions.iter().enumerate() {
        pass.attempted += s.steps.len() as u64;
        if s.replay_failures > 0 {
            pass.failures.push(format!(
                "session {k}: {} steps do not replay to their scores",
                s.replay_failures
            ));
        }
        let again = run_session(ins.sessions[k], &Tracer::new(false), 0);
        if again.steps != s.steps || again.final_score != s.final_score {
            pass.failures
                .push(format!("session {k}: a rerun at the same seed diverged"));
        }
    }

    let at = |w: usize| runs.iter().filter(move |r| r.width == w);
    let rate = |w: usize, d: Option<Domain>| {
        let sel: Vec<&Run> = at(w)
            .filter(|r| d.is_none_or(|d| r.input.domain == d))
            .collect();
        sel.iter().map(|r| r.print.playouts).sum::<u64>() as f64
            / sel.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>()
    };
    let w2_ms = crate::stats::search_ms(at(2).map(|r| (r.index, r.wall)));
    pass.e2e = E2e {
        setup_s: median(&setup_s),
        p50_ms: percentile(&w2_ms, 0.5),
        tail_ms: percentile(&w2_ms, 0.9),
        throughput_w1: rate(1, None),
        throughput_w2: rate(2, None),
        score_mean: mean(&at(2).map(|r| r.print.score as f64).collect::<Vec<_>>()),
    };

    if tracer.enabled() {
        let mut sheet = Sheet::default();
        for w in [1, 2] {
            for d in [Domain::SameGame, Domain::Morpion] {
                sheet.put(
                    format!("uct.iters_per_s.w{w}.{}", d.name()),
                    rate(w, Some(d)),
                    "1/s",
                );
            }
        }
        sheet.count("uct.expansions", at(1).map(|r| r.print.expansions).sum());
        let overshoot = at(2)
            .map(|r| r.print.playouts as i64 - r.input.domain.iterations() as i64)
            .max()
            .unwrap_or(0);
        sheet.put("uct.overshoot", overshoot as f64, "count");
        let steps: Vec<f64> = sessions
            .iter()
            .flat_map(|s| s.step_ms.iter().copied())
            .collect();
        sheet.put("session.step_ms_p50", median(&steps), "ms");
        sheet.put(
            "session.bytes",
            mean(&sessions.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
            "bytes",
        );
        let hits: u64 = sessions.iter().map(|s| s.tt_hits).sum();
        let expansions: u64 = sessions.iter().map(|s| s.expansions).sum();
        sheet.put(
            "session.tt_hit_ratio",
            hits as f64 / expansions.max(1) as f64,
            "ratio",
        );
        pass.layers = sheet;
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_inputs_but_not_their_shape() {
        let a = inputs(1, 15);
        let b = inputs(2, 15);
        assert_ne!(a.searches, b.searches);
        assert_ne!(a.sessions, b.sessions);
        assert_eq!(a.searches, inputs(1, 15).searches);
        assert_eq!(a.searches.len(), 150);
        for ins in [&a, &b] {
            let sg = ins
                .searches
                .iter()
                .filter(|i| i.domain == Domain::SameGame)
                .count();
            assert_eq!(sg, 105);
        }
    }

    #[test]
    fn width_one_matches_serial_uct_and_sessions_replay() {
        let input = Input {
            domain: Domain::SameGame,
            seed: 5,
        };
        let root = samegame(5);
        let r = search(&root, 0, input, 1);
        let serial = SearchSpec::uct_with(config(SAMEGAME_ITERATIONS))
            .seed(5)
            .build();
        assert_eq!(r.print, print(&root, &serial.run(&root)));
        assert!(r.replayed);
        let s = run_session(9, &Tracer::new(false), 0);
        assert_eq!(s.replay_failures, 0);
        let again = run_session(9, &Tracer::new(false), 0);
        assert_eq!((s.steps, s.final_score), (again.steps, again.final_score));
    }
}
