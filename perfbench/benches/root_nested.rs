//! `root-nested`: the paper's algorithm. `SearchSpec::root_parallel(2, t)`
//! runs to completion on every input at t = 1 and at t = 2.
//!
//! The work is fixed and exact: score, sequence, playouts and client
//! jobs are identical at every width and equal to the stored reference
//! (`perfbench/reference.json`), so any timing change is a speed change.
//! Inputs are drawn by the seed from two fixed pools — SameGame 10×10
//! boards (4 colours) and search seeds on Morpion 5D-c3 — whose results
//! the reference holds.

use crate::layers;
use crate::stats::{mean, percentile, Sheet};
use crate::trace::Tracer;
use crate::{E2e, Pass};
use morpion::{cross_board, Board, Variant};
use nmcs_core::metrics::{snapshot, PoolSnapshot};
use nmcs_core::{CodedGame, Fnv1a, Rng, SearchReport, SearchSpec};
use nmcs_games::SameGame;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

pub const LEVEL: u32 = 2;
const SAMEGAME_POOL: u64 = 16;
const MORPION_POOL: u64 = 256;
/// Morpion inputs per second of `--seconds` (one width-1 search of
/// about 85 ms and two width-2 searches of about 50 ms each on a 2-core
/// Xeon): 20 s gives 100 of them, which with the SameGame boards makes
/// ≥ 100 inputs a run.
const MORPION_PER_SECOND: f64 = 5.0;
/// One SameGame board (about 1.4 s for its three searches) per this
/// many seconds.
const SECONDS_PER_SAMEGAME: u64 = 7;
const SETUPS: usize = 5;
const REFERENCE: &str = include_str!("../reference.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    SameGame,
    Morpion,
}

/// One search input: a pool entry. SameGame entry `i` is board seed `i`
/// searched with seed `i`; Morpion entry `i` is the 5D-c3 cross searched
/// with seed `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub domain: Domain,
    pub index: u64,
}

impl Input {
    fn key(&self) -> String {
        match self.domain {
            Domain::SameGame => format!("samegame-10x10-4/{}", self.index),
            Domain::Morpion => format!("morpion-5d-c3/{}", self.index),
        }
    }
}

/// The seed's inputs: SameGame boards spread evenly through the Morpion
/// searches.
pub fn inputs(seed: u64, seconds: u64) -> Vec<Input> {
    let mut rng = Rng::seeded(nmcs_core::mix64(seed ^ 0x7e57_0001));
    let mut sg: Vec<u64> = (0..SAMEGAME_POOL).collect();
    let mut mo: Vec<u64> = (0..MORPION_POOL).collect();
    rng.shuffle(&mut sg);
    rng.shuffle(&mut mo);
    let n_sg = ((seconds / SECONDS_PER_SAMEGAME) as usize).max(1);
    let n_mo =
        ((seconds as f64 * MORPION_PER_SECOND).ceil() as usize).clamp(1, MORPION_POOL as usize);
    let mut out: Vec<Input> = mo[..n_mo]
        .iter()
        .map(|&index| Input {
            domain: Domain::Morpion,
            index,
        })
        .collect();
    for (k, &index) in sg[..n_sg].iter().enumerate() {
        let at = (k * out.len()) / n_sg + k;
        out.insert(
            at,
            Input {
                domain: Domain::SameGame,
                index,
            },
        );
    }
    out
}

fn samegame(index: u64) -> SameGame {
    SameGame::random(10, 10, 4, index)
}

fn morpion() -> Board {
    cross_board(Variant::Disjoint, 3)
}

fn spec(width: usize, seed: u64) -> SearchSpec {
    SearchSpec::root_parallel(LEVEL, width).seed(seed).build()
}

/// The checked identity of one search result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub key: String,
    pub score: i64,
    pub len: u64,
    /// FNV-1a over the sequence's move codes.
    pub digest: u64,
    pub playouts: u64,
    pub work_units: u64,
    pub client_jobs: u64,
}

fn fingerprint<G: CodedGame>(key: String, root: &G, r: &SearchReport<G::Move>) -> Fingerprint {
    let mut h = Fnv1a::new();
    for mv in &r.sequence {
        h.write_u64(root.move_code(mv));
    }
    Fingerprint {
        key,
        score: r.score,
        len: r.sequence.len() as u64,
        digest: h.finish(),
        playouts: r.stats.playouts,
        work_units: r.stats.work_units,
        client_jobs: r.client_jobs,
    }
}

pub fn reference() -> Vec<Fingerprint> {
    serde_json::from_str(REFERENCE).expect("perfbench/reference.json parses")
}

/// Compares one result with the reference entry for its input.
pub fn check(got: &Fingerprint, reference: &[Fingerprint]) -> Result<(), String> {
    match reference.iter().find(|r| r.key == got.key) {
        None => Err(format!("{}: no reference entry", got.key)),
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("{}: got {got:?}, reference {want:?}", got.key)),
    }
}

/// One timed search.
struct Run {
    input: usize,
    width: usize,
    wall: Duration,
    print: Fingerprint,
    interrupted: bool,
}

/// The searched positions, built once per setup.
struct Games {
    boards: Vec<(u64, SameGame)>,
    morpion: Board,
}

impl Games {
    fn build(inputs: &[Input]) -> Games {
        Games {
            boards: inputs
                .iter()
                .filter(|i| i.domain == Domain::SameGame)
                .map(|i| (i.index, samegame(i.index)))
                .collect(),
            morpion: morpion(),
        }
    }

    fn board(&self, index: u64) -> &SameGame {
        &self
            .boards
            .iter()
            .find(|(i, _)| *i == index)
            .expect("board built")
            .1
    }
}

/// Runs `input` at `width`; the returned sequence is kept for the
/// domain replay pass.
fn search(games: &Games, input: Input, width: usize) -> (Duration, Fingerprint, bool, Line) {
    let started = Instant::now();
    match input.domain {
        Domain::SameGame => {
            let g = games.board(input.index);
            let r = spec(width, input.index).run(g);
            let wall = started.elapsed();
            (
                wall,
                fingerprint(input.key(), g, &r),
                r.interrupted.is_some(),
                Line::SameGame(r.sequence),
            )
        }
        Domain::Morpion => {
            let r = spec(width, input.index).run(&games.morpion);
            let wall = started.elapsed();
            (
                wall,
                fingerprint(input.key(), &games.morpion, &r),
                r.interrupted.is_some(),
                Line::Morpion(r.sequence),
            )
        }
    }
}

enum Line {
    SameGame(Vec<nmcs_games::Tap>),
    Morpion(Vec<morpion::Move>),
}

/// Sums of the pool counters over the traced width-2 searches.
#[derive(Default)]
struct PoolDelta {
    busy_ns: u64,
    idle_ns: u64,
    steals: u64,
    parks: u64,
    wakeups: u64,
    batch_slots: u64,
}

impl PoolDelta {
    fn add(&mut self, a: &PoolSnapshot, b: &PoolSnapshot) {
        self.busy_ns += b.busy_ns.saturating_sub(a.busy_ns);
        self.idle_ns += b.idle_ns.saturating_sub(a.idle_ns);
        self.steals += b.steals.saturating_sub(a.steals);
        self.parks += b.parks.saturating_sub(a.parks);
        self.wakeups += b.wakeups.saturating_sub(a.wakeups);
        self.batch_slots += b.batch_slots.saturating_sub(a.batch_slots);
    }
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Pass {
    // Set-up: inputs built and the shared executor pool spawned and
    // warmed by one width-2 search (at a fixed seed, so set-up work does
    // not vary with the inputs), several times; the median counts.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let ins = inputs(seed, seconds);
        let games = Games::build(&ins);
        std::hint::black_box(spec(2, 0).run(&games.morpion));
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some((ins, games));
    }
    let (ins, games) = prepared.expect("at least one setup");

    // Timed window, in two rounds: the first runs every input at width 1
    // and at width 2 (alternating which goes first, so drift does not
    // favour one width), the second runs every input at width 2 again.
    // An input's search time is the faster of its two width-2 runs (see
    // `search_ms`); throughput counts every run.
    let mut runs: Vec<Run> = Vec::new();
    let mut lines: Vec<(Input, Line)> = Vec::new();
    let mut pool = PoolDelta::default();
    for round in 0..2 {
        for (i, &input) in ins.iter().enumerate() {
            let widths: &[usize] = match (round, (i as u64 + seed).is_multiple_of(2)) {
                (0, true) => &[1, 2],
                (0, false) => &[2, 1],
                _ => &[2],
            };
            for &width in widths {
                let before = (tracer.enabled() && width == 2).then(|| snapshot().pool);
                let started = Instant::now();
                let (wall, print, interrupted, line) = search(&games, input, width);
                tracer.record("search", runs.len() as u64 + 1, 0, started, started + wall);
                if let Some(before) = before {
                    pool.add(&before, &snapshot().pool);
                }
                if width == 1 {
                    lines.push((input, line));
                }
                runs.push(Run {
                    input: i,
                    width,
                    wall,
                    print,
                    interrupted,
                });
            }
        }
    }

    // Correctness, outside the timed window: each result equals the
    // stored reference (and therefore the other width's result).
    let reference = reference();
    let mut pass = Pass {
        attempted: runs.len() as u64,
        ..Pass::default()
    };
    for r in &runs {
        let verdict = if r.interrupted {
            Err(format!("{}: interrupted without a budget", r.print.key))
        } else {
            check(&r.print, &reference)
        };
        if let Err(e) = verdict {
            pass.failures
                .push(format!("width {} input {}: {e}", r.width, r.input));
        }
    }

    let at = |w: usize| runs.iter().filter(move |r| r.width == w);
    let wall_s = |w: usize| at(w).map(|r| r.wall.as_secs_f64()).sum::<f64>();
    let playouts = |w: usize| at(w).map(|r| r.print.playouts).sum::<u64>();
    let w2_ms = crate::stats::search_ms(
        runs.iter()
            .filter(|r| r.width == 2)
            .map(|r| (r.input, r.wall)),
    );
    pass.e2e = E2e {
        setup_s: crate::stats::median(&setup_s),
        p50_ms: percentile(&w2_ms, 0.5),
        tail_ms: percentile(&w2_ms, 0.9),
        throughput_w1: playouts(1) as f64 / wall_s(1),
        throughput_w2: playouts(2) as f64 / wall_s(2),
        // Morpion only: a run holds too few SameGame boards for their
        // scores to average out across seeds.
        score_mean: mean(
            &at(2)
                .filter(|r| ins[r.input].domain == Domain::Morpion)
                .map(|r| r.print.score as f64)
                .collect::<Vec<_>>(),
        ),
    };

    if tracer.enabled() {
        let mut sheet = Sheet::default();
        // Exact counts over the search set (one search per input); every
        // width matches them, which the reference check above proves.
        sheet.count("search.playouts", playouts(1));
        sheet.count("search.work_units", at(1).map(|r| r.print.work_units).sum());
        sheet.count(
            "search.client_jobs",
            at(1).map(|r| r.print.client_jobs).sum(),
        );
        let busy = pool.busy_ns as f64;
        sheet.put(
            "pool.busy_ratio",
            busy / (busy + pool.idle_ns as f64).max(1.0),
            "ratio",
        );
        sheet.count("pool.steals", pool.steals);
        sheet.count("pool.parks", pool.parks);
        sheet.count("pool.wakeups", pool.wakeups);
        sheet.count("pool.batch_slots", pool.batch_slots);
        sheet.put(
            "pool.speedup_w2",
            pass.e2e.throughput_w2 / pass.e2e.throughput_w1,
            "ratio",
        );

        let mut sg_lines = Vec::new();
        let mut mo_lines = Vec::new();
        for (input, line) in lines {
            match line {
                Line::SameGame(seq) => sg_lines.push((games.board(input.index).clone(), seq)),
                Line::Morpion(seq) => mo_lines.push((games.morpion.clone(), seq)),
            }
        }
        layers::domain_replay("games.samegame", &sg_lines, &mut sheet);
        layers::domain_replay("morpion", &mo_lines, &mut sheet);
        let sg_roots: Vec<SameGame> = sg_lines.iter().map(|(g, _)| g.clone()).collect();
        layers::playout_replay("samegame", &sg_roots, seed, &mut sheet);
        layers::playout_replay(
            "morpion",
            std::slice::from_ref(&games.morpion),
            seed,
            &mut sheet,
        );
        pass.layers = sheet;
    }
    pass
}

/// Recomputes every pool entry at width 2 and writes
/// `perfbench/reference.json` (run from the repository root).
pub fn write_reference() -> Result<String, String> {
    let games = Games {
        boards: (0..SAMEGAME_POOL).map(|i| (i, samegame(i))).collect(),
        morpion: morpion(),
    };
    let all = (0..SAMEGAME_POOL)
        .map(|index| Input {
            domain: Domain::SameGame,
            index,
        })
        .chain((0..MORPION_POOL).map(|index| Input {
            domain: Domain::Morpion,
            index,
        }));
    let prints: Vec<Fingerprint> = all.map(|input| search(&games, input, 2).1).collect();
    let text = serde_json::to_string_pretty(&prints).map_err(|e| e.to_string())?;
    let path = "perfbench/reference.json";
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    Ok(path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_inputs_but_not_their_shape() {
        let a = inputs(1, 20);
        let b = inputs(2, 20);
        assert_ne!(a, b);
        assert_eq!(a, inputs(1, 20));
        assert_eq!(a.len(), b.len());
        assert!(a.len() >= 100, "at least 100 width-2 searches a run");
        for ins in [&a, &b] {
            assert_eq!(
                ins.iter().filter(|i| i.domain == Domain::SameGame).count(),
                2
            );
        }
    }

    #[test]
    fn the_reference_covers_both_pools() {
        let r = reference();
        assert_eq!(r.len() as u64, SAMEGAME_POOL + MORPION_POOL);
        for input in inputs(7, 20) {
            assert!(r.iter().any(|f| f.key == input.key()), "{}", input.key());
        }
    }

    #[test]
    fn a_corrupted_reference_trips_the_gate() {
        let games = Games {
            boards: vec![],
            morpion: morpion(),
        };
        let input = Input {
            domain: Domain::Morpion,
            index: 3,
        };
        let (_, got, _, _) = search(&games, input, 2);
        let mut reference = reference();
        assert_eq!(check(&got, &reference), Ok(()));
        let entry = reference
            .iter_mut()
            .find(|f| f.key == got.key)
            .expect("entry");
        entry.playouts += 1;
        assert!(check(&got, &reference).is_err());
        reference.retain(|f| f.key != got.key);
        assert!(check(&got, &reference).is_err());
    }
}
