//! Property tests of the scratch-state protocol (apply/undo) across all
//! five game domains:
//!
//! * `apply` followed by `undo` — including chains of applies unwound in
//!   LIFO order — restores an *identical* observable state: score, move
//!   count, and the legal-move list **in order** (order feeds the search
//!   RNG, so it is part of the contract);
//! * every search algorithm produces bit-identical results on the undo
//!   path and the clone path for pinned seeds (asserted via the
//!   [`SnapshotOnly`] adapter, which hides the fast path);
//! * the type-erased [`DynGame`] used by the engine preserves both
//!   properties.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{CodedGame, DynGame, NrpaConfig, SearchSpec};
use pnmcs::search::{Game, Rng, SnapshotOnly, UctConfig};
use proptest::prelude::*;

/// Observable surface of a position: score, move count, and the ordered
/// legal-move list (printed, so one helper serves every move type).
fn observe<G: Game>(g: &G) -> (i64, usize, Vec<String>) {
    let mut moves = Vec::new();
    g.legal_moves(&mut moves);
    (
        g.score(),
        g.moves_played(),
        moves.iter().map(|m| format!("{m:?}")).collect(),
    )
}

/// Walks a random game, and at every step round-trips an apply/undo
/// chain of up to `chain` moves, asserting the observable state is
/// restored exactly.
fn assert_round_trips<G: Game>(root: &G, seed: u64, chain: usize) {
    assert!(root.supports_undo(), "game under test must opt in");
    let mut g = root.clone();
    let mut rng = Rng::seeded(seed);
    let mut moves = Vec::new();
    let mut steps = 0;
    loop {
        g.legal_moves_into(&mut moves);
        if moves.is_empty() || steps > 60 {
            break;
        }
        let before = observe(&g);
        // Apply a random chain, then unwind it in LIFO order.
        let mut tokens = Vec::new();
        let mut chain_moves = Vec::new();
        for _ in 0..chain {
            g.legal_moves_into(&mut chain_moves);
            if chain_moves.is_empty() {
                break;
            }
            let mv = chain_moves[rng.below(chain_moves.len())].clone();
            tokens.push(g.apply(&mv));
        }
        while let Some(token) = tokens.pop() {
            g.undo(token);
        }
        let after = observe(&g);
        assert_eq!(before, after, "undo must restore the observable state");

        let mv = moves[rng.below(moves.len())].clone();
        g.play(&mv);
        steps += 1;
    }
}

/// Asserts the undo path and the clone path agree bit-for-bit on every
/// search algorithm for a pinned seed.
fn assert_paths_agree<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let slow_game = SnapshotOnly(game.clone());
    let specs = [
        SearchSpec::nested(1),
        SearchSpec::flat_mc(8),
        SearchSpec::uct_with(UctConfig {
            iterations: 60,
            ..Default::default()
        }),
        SearchSpec::nrpa_with(
            1,
            NrpaConfig {
                iterations: 5,
                alpha: 1.0,
            },
        ),
    ];
    for spec in specs {
        let spec = spec.seed(seed).build();
        let label = spec.algorithm.label();
        let fast = spec.run(game);
        let slow = spec.run(&slow_game);
        assert_eq!(fast.score, slow.score, "{label} score");
        assert_eq!(fast.sequence, slow.sequence, "{label} sequence");
        if label == "nested" {
            assert_eq!(fast.stats, slow.stats, "{label} stats");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn samegame_round_trips(seed in 0u64..500, w in 5usize..10, h in 5usize..10) {
        let g = SameGame::random(w, h, 3, seed);
        assert_round_trips(&g, seed, 3);
    }

    #[test]
    fn tsp_round_trips(seed in 0u64..500, n in 5usize..14) {
        let g = TspGame::new(TspInstance::random(n, seed), None);
        assert_round_trips(&g, seed, 3);
        let g = TspGame::new(TspInstance::random(n, seed), Some(3));
        assert_round_trips(&g, seed, 2);
    }

    #[test]
    fn sudoku_round_trips(seed in 0u64..500, holes in 10usize..50) {
        let g = Sudoku::puzzle(3, holes, seed);
        assert_round_trips(&g, seed, 3);
    }

    #[test]
    fn toy_round_trips(seed in 0u64..500, depth in 2usize..7) {
        assert_round_trips(&SumGame::random(depth, 4, seed), seed, 3);
        assert_round_trips(&NeedleLadder::new(depth.max(2)), seed, 2);
    }

    #[test]
    fn morpion_round_trips(seed in 0u64..200) {
        // Both rule variants: their constraint bits differ.
        assert_round_trips(&cross_board(Variant::Disjoint, 3), seed, 3);
        assert_round_trips(&cross_board(Variant::Touching, 3), seed, 3);
    }

    #[test]
    fn samegame_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&SameGame::random(6, 6, 3, seed), seed);
    }

    #[test]
    fn tsp_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&TspGame::new(TspInstance::random(8, seed), None), seed);
    }

    #[test]
    fn sudoku_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&Sudoku::puzzle(3, 30, seed), seed);
    }

    #[test]
    fn toy_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&SumGame::random(5, 3, seed), seed);
        assert_paths_agree(&NeedleLadder::new(7), seed);
    }

    #[test]
    fn erased_games_round_trip_and_agree(seed in 0u64..200) {
        // The engine's view: a DynGame over a fast-path game keeps both
        // protocol properties through the erasure.
        let typed = SumGame::random(5, 3, seed);
        let erased = DynGame::new(typed.clone());
        prop_assert!(erased.supports_undo());
        assert_round_trips(&erased, seed, 3);

        let fast = SearchSpec::nested(2).seed(seed).run(&erased);
        let slow = SearchSpec::nested(2).seed(seed).run(&DynGame::new(SnapshotOnly(typed)));
        prop_assert_eq!(fast.score, slow.score);
        prop_assert_eq!(fast.sequence, slow.sequence);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    #[test]
    fn morpion_paths_bit_identical(seed in 0u64..100) {
        let b = cross_board(Variant::Disjoint, 2);
        let fast = SearchSpec::nested(1).seed(seed).run(&b);
        let slow = SearchSpec::nested(1).seed(seed).run(&SnapshotOnly(b));
        prop_assert_eq!(fast.score, slow.score);
        prop_assert_eq!(fast.sequence, slow.sequence);
        prop_assert_eq!(fast.stats, slow.stats);
    }
}
