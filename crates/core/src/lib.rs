//! # nmcs-core — Sequential Nested Monte-Carlo Search
//!
//! This crate implements §III of *"Parallel Nested Monte-Carlo Search"*
//! (Cazenave & Jouandeau, NIDISC/IPDPS 2009): the generic [`Game`]
//! abstraction, the random [`sample`] playout, the nested
//! rollout search [`nested`] with memorised best sequence,
//! and the baselines the paper's related-work section measures against
//! (flat Monte-Carlo, iterated sampling, beam search and a simulated
//! annealing baseline in the spirit of Hyyrö & Poranen's pre-paper Morpion
//! record).
//!
//! Everything is deterministic given a seed: randomness flows exclusively
//! through the self-contained [`rng`] module (SplitMix64 seeding feeding a
//! xoshiro256★★ generator), so that parallel and simulated backends in the
//! companion crates can reproduce byte-identical searches.
//!
//! ## Quick example — the unified front door
//!
//! Every backend (NMCS, NRPA, UCT, the Monte-Carlo baselines, and the
//! leaf-/root-parallel executors) is reachable through one call:
//! [`SearchSpec::run`], with budgets, cancellation, and a common
//! [`SearchReport`].
//!
//! ```
//! use nmcs_core::{CodedGame, Game, Score, SearchSpec};
//!
//! // A toy game: walk 4 steps left (0) or right (1); score = # of rights.
//! #[derive(Clone)]
//! struct Walk { taken: Vec<u8> }
//! impl Game for Walk {
//!     type Move = u8;
//!     fn legal_moves(&self, out: &mut Vec<u8>) {
//!         if self.taken.len() < 4 { out.extend_from_slice(&[0, 1]); }
//!     }
//!     fn play(&mut self, mv: &u8) { self.taken.push(*mv); }
//!     fn score(&self) -> Score {
//!         self.taken.iter().map(|&m| m as Score).sum()
//!     }
//!     fn moves_played(&self) -> usize { self.taken.len() }
//! }
//! impl CodedGame for Walk {
//!     fn move_code(&self, mv: &u8) -> u64 { *mv as u64 }
//! }
//!
//! let game = Walk { taken: vec![] };
//! let report = SearchSpec::nested(1).seed(42).deadline_ms(500).run(&game);
//! assert_eq!(report.score, 4); // level-1 NMCS solves this toy game
//! assert!(report.interrupted.is_none());
//! ```

pub mod baselines;
pub mod ctx;
pub mod driver;
pub mod erased;
pub mod exec;
pub mod game;
pub mod metrics;
pub mod nrpa;
pub mod report;
pub mod rng;
pub mod search;
pub mod seeds;
pub mod session;
pub mod spec;
pub mod stats;
pub mod uct;

pub use baselines::{simulated_annealing_with, AnnealingConfig};
pub use ctx::SearchCtx;
pub use driver::{drive, DriveBudget, DriveReport};
pub use erased::{decode_report, decode_result, decode_sequence, AnyGame, AnySearcher, DynGame};
pub use exec::pool::ExecutorPool;
pub use game::{mix64, Game, Score, SnapshotOnly, Undo};
pub use metrics::{
    metrics_enabled, search_metrics, set_metrics_enabled, Counter, DeadLetter, DeadLetterQueue,
    EngineSnapshot, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, PoolMetrics,
    PoolSnapshot, SearchMetrics, SearchSnapshot, StalledJob, TagHistograms,
    TaggedHistogramSnapshot,
};
pub use nrpa::{nrpa_with, CodedGame, NrpaConfig, Policy};
pub use report::{Interruption, SearchReport};
pub use rng::{Fnv1a, Rng};
pub use search::{nested_with, sample, MemoryPolicy, NestedConfig, PlayoutScratch, SearchResult};
pub use session::SearchSession;
pub use spec::{AlgorithmSpec, Budget, CancelToken, SearchBuilder, SearchSpec, Searcher};
pub use stats::SearchStats;
pub use uct::{uct_tree_parallel, uct_with, UctConfig};

// Deprecated free functions, re-exported so historical `use` paths keep
// compiling (each is a thin shim over the unified SearchSpec API).
#[allow(deprecated)]
pub use nrpa::nrpa;
#[allow(deprecated)]
pub use search::nested;
#[allow(deprecated)]
pub use uct::uct;
