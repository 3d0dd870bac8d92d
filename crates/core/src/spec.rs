//! The unified search API: one front door for every backend.
//!
//! A [`SearchSpec`] names a strategy ([`AlgorithmSpec`]: NMCS, NRPA, UCT,
//! the Monte-Carlo baselines, leaf-parallel batching, root-parallel
//! fan-out), its per-algorithm configuration, a [`Budget`] (wall-clock
//! deadline, playout cap, node cap), and a seed — everything needed to
//! say *"run X on game G for at most 200 ms with this seed"* uniformly
//! across backends. Specs are plain serde-able data, so any sweep row or
//! service job is reproducible from one pasted JSON string.
//!
//! ```
//! use nmcs_core::spec::SearchSpec;
//! use nmcs_core::{CodedGame, Game, Score};
//!
//! #[derive(Clone)]
//! struct Walk(Vec<u8>);
//! impl Game for Walk {
//!     type Move = u8;
//!     fn legal_moves(&self, out: &mut Vec<u8>) {
//!         if self.0.len() < 4 { out.extend_from_slice(&[0, 1]); }
//!     }
//!     fn play(&mut self, mv: &u8) { self.0.push(*mv); }
//!     fn score(&self) -> Score { self.0.iter().map(|&m| m as Score).sum() }
//!     fn moves_played(&self) -> usize { self.0.len() }
//! }
//! impl CodedGame for Walk {
//!     fn move_code(&self, mv: &u8) -> u64 { *mv as u64 }
//! }
//!
//! let report = SearchSpec::nested(1).deadline_ms(200).seed(42).run(&Walk(vec![]));
//! assert_eq!(report.score, 4); // level-1 NMCS solves the toy walk
//! assert!(report.interrupted.is_none());
//! ```
//!
//! Determinism contract: for any spec whose budget is never hit, the
//! result is **bit-identical** to the historical direct call with the
//! same seed (`nested`, `nrpa`, `uct`, the baselines, `leaf_nested`,
//! `run_threads`/`run_reference`) — budget and cancellation polls never
//! touch the RNG stream. `tests/budget_props.rs` and
//! `tests/spec_api.rs` assert both halves of the contract.

use crate::baselines::{
    beam_search_with, flat_monte_carlo_with, iterated_sampling_with, simulated_annealing_with,
    AnnealingConfig,
};
use crate::ctx::SearchCtx;
use crate::exec;
use crate::game::Game;
use crate::nrpa::{nrpa_with, CodedGame, NrpaConfig};
use crate::report::SearchReport;
use crate::rng::Rng;
use crate::search::{nested_with, MemoryPolicy, NestedConfig, PlayoutScratch};
use crate::uct::{uct_tree_parallel_on, uct_with, TpTree, UctConfig, DEFAULT_TT_BYTES};
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cooperative cancellation handle usable with any backend (not just
/// the engine): clone it, hand one clone to the search via
/// [`SearchSpec::run_cancellable`] or [`SearchBuilder::cancel`], keep the
/// other, and call [`CancelToken::cancel`] from any thread. Every search
/// loop polls the token (at playout-move granularity), so even a deep
/// nested search unwinds within microseconds, returning its best-so-far
/// result with [`SearchReport::interrupted`] set to
/// [`crate::report::Interruption::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------

/// Stopping limits enforced uniformly across every backend. All fields
/// are optional; an all-`None` budget never stops a search.
///
/// Checks happen in the shared playout/evaluation loops (see
/// [`crate::ctx::SearchCtx`]), so a deadline or playout cap behaves the
/// same whether the spec runs serially, leaf-parallel, or root-parallel
/// — and the checks never perturb the RNG stream, so an *unhit* budget
/// leaves results bit-identical to an unbudgeted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Wall-clock limit, measured from the start of the run.
    pub deadline: Option<Duration>,
    /// Maximum completed random playouts (summed across workers).
    pub max_playouts: Option<u64>,
    /// Maximum candidate expansions / tree nodes (summed across workers).
    pub max_nodes: Option<u64>,
}

impl Budget {
    /// No limits.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_playouts.is_some() || self.max_nodes.is_some()
    }

    /// Chainable wall-clock limit.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Chainable playout cap.
    pub fn with_max_playouts(mut self, n: u64) -> Self {
        self.max_playouts = Some(n);
        self
    }

    /// Chainable node (expansion) cap.
    pub fn with_max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }
}

impl Serialize for Budget {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "deadline_ms".to_string(),
                self.deadline.map(|d| d.as_secs_f64() * 1e3).to_value(),
            ),
            ("max_playouts".to_string(), self.max_playouts.to_value()),
            ("max_nodes".to_string(), self.max_nodes.to_value()),
        ])
    }
}

impl Deserialize for Budget {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let opt = |name: &str| v.get_field(name).cloned().unwrap_or(Value::Null);
        let deadline_ms: Option<f64> = Option::from_value(&opt("deadline_ms"))?;
        // Negative and NaN deadlines clamp to zero; one past `Duration`'s
        // range is an error, not a panic.
        let deadline = deadline_ms
            .map(|ms| {
                Duration::try_from_secs_f64((ms / 1e3).max(0.0))
                    .map_err(|_| Error::custom(format!("deadline_ms {ms} is out of range")))
            })
            .transpose()?;
        Ok(Budget {
            deadline,
            max_playouts: Option::from_value(&opt("max_playouts"))?,
            max_nodes: Option::from_value(&opt("max_nodes"))?,
        })
    }
}

// ---------------------------------------------------------------------
// AlgorithmSpec
// ---------------------------------------------------------------------

/// Which search strategy to run, with its per-algorithm configuration.
/// Every variant maps to exactly one historical entry point, so a spec
/// run is reproducible as a direct library call with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Nested Monte-Carlo Search at `level` ([`crate::search::nested_with`]).
    Nested { level: u32, config: NestedConfig },
    /// Nested Rollout Policy Adaptation at `level` ([`crate::nrpa::nrpa_with`]).
    Nrpa { level: u32, config: NrpaConfig },
    /// Single-agent UCT ([`crate::uct::uct_with`]).
    Uct {
        config: UctConfig,
        /// Warm-tree mode: the search runs on a re-rootable shared tree
        /// with a bounded transposition table keyed by
        /// [`Game::state_hash`], so transposed move orders share
        /// statistics and `SearchSession` can keep the tree across
        /// steps. **Off** (the default): bit-identical to the pre-knob
        /// behaviour per seed. **On**: a different (table-backed)
        /// search — run-to-run deterministic, but *not* bit-identical
        /// to reuse-off. Part of [`AlgorithmSpec::tag`] identity.
        tree_reuse: bool,
    },
    /// Flat Monte-Carlo: best of `playouts` random playouts
    /// ([`crate::baselines::flat_monte_carlo_with`]).
    FlatMc { playouts: usize },
    /// Iterated sampling with `samples` playouts per candidate move
    /// ([`crate::baselines::iterated_sampling_with`]).
    IteratedSampling { samples: usize },
    /// Beam search of `width` with `samples` playouts per candidate
    /// ([`crate::baselines::beam_search_with`]).
    Beam { width: usize, samples: usize },
    /// A single random playout (the paper's `sample`).
    Sample,
    /// Leaf-parallel batched NMCS: each candidate move evaluated by a
    /// batch of seeded `level − 1` evaluations on a worker pool
    /// (the strategy of `parallel_nmcs::leaf_nested`).
    LeafParallel {
        level: u32,
        batch: usize,
        threads: usize,
        playout_cap: Option<usize>,
        /// Evaluate and play only the first move (paper Tables I–II mode).
        first_move: bool,
    },
    /// Root-parallel NMCS: the paper's root/median/client hierarchy,
    /// one median game per root move on a worker pool (the strategy of
    /// `parallel_nmcs::run_threads`; `level ≥ 2`, clients run
    /// `level − 2`).
    RootParallel {
        level: u32,
        threads: usize,
        playout_cap: Option<usize>,
        /// Evaluate and play only the first move (paper Tables I–II mode).
        first_move: bool,
    },
    /// Tree-parallel UCT ([`crate::uct::uct_tree_parallel`]): `threads`
    /// workers share one lock-free tree with WU-UCT statistics and
    /// inline rollouts. The one backend whose multi-worker results are
    /// schedule-dependent; `threads == 1` is bit-identical to
    /// [`AlgorithmSpec::Uct`] per seed.
    TreeParallel {
        config: UctConfig,
        threads: usize,
        /// Warm-tree mode, as on [`AlgorithmSpec::Uct`]: expansions
        /// intern their position's [`Game::state_hash`] in a bounded
        /// transposition table so transposed lines share statistics.
        /// Off (default): bit-identical to the pre-knob behaviour.
        /// On at `threads == 1`: run-to-run deterministic. Part of
        /// [`AlgorithmSpec::tag`] identity.
        tree_reuse: bool,
    },
    /// Simulated annealing over decision vectors
    /// ([`crate::baselines::simulated_annealing_with`]), the last
    /// pre-paper baseline (Hyyrö & Poranen's Morpion record holder).
    SimulatedAnnealing { config: AnnealingConfig },
}

impl AlgorithmSpec {
    /// Paper-faithful NMCS at `level`.
    pub fn nested(level: u32) -> Self {
        AlgorithmSpec::Nested {
            level,
            config: NestedConfig::paper(),
        }
    }

    /// NRPA at `level` with `iterations` recursive calls per level and
    /// the paper defaults for everything else (routed through
    /// [`NrpaConfig::paper`], so tunables are never hardcoded at call
    /// sites).
    pub fn nrpa(level: u32, iterations: usize) -> Self {
        AlgorithmSpec::Nrpa {
            level,
            config: NrpaConfig::with_iterations(iterations),
        }
    }

    /// Tree-parallel UCT on `threads` workers with default tunables.
    pub fn tree_parallel(threads: usize) -> Self {
        AlgorithmSpec::TreeParallel {
            config: UctConfig::default(),
            threads,
            tree_reuse: false,
        }
    }

    /// Simulated annealing with the default schedule.
    pub fn simulated_annealing() -> Self {
        AlgorithmSpec::SimulatedAnnealing {
            config: AnnealingConfig::default(),
        }
    }

    /// Short label for logs, tables, and progress lines.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::Nested { .. } => "nested",
            AlgorithmSpec::Nrpa { .. } => "nrpa",
            AlgorithmSpec::Uct { .. } => "uct",
            AlgorithmSpec::FlatMc { .. } => "flat-mc",
            AlgorithmSpec::IteratedSampling { .. } => "iterated-sampling",
            AlgorithmSpec::Beam { .. } => "beam",
            AlgorithmSpec::Sample => "sample",
            AlgorithmSpec::LeafParallel { .. } => "leaf-parallel",
            AlgorithmSpec::RootParallel { .. } => "root-parallel",
            AlgorithmSpec::TreeParallel { .. } => "tree-parallel",
            AlgorithmSpec::SimulatedAnnealing { .. } => "simulated-annealing",
        }
    }

    /// Whether this strategy promises bit-identical results regardless
    /// of how many workers execute it (given the same seed and an unhit
    /// budget). True for everything except tree-parallel UCT above one
    /// worker: leaf- and root-parallel derive every evaluation's seed
    /// from its logical coordinates, but tree-parallel workers race on
    /// one shared tree, so their interleaving shapes the search itself.
    pub fn worker_count_deterministic(&self) -> bool {
        !matches!(
            self,
            AlgorithmSpec::TreeParallel { threads, .. } if *threads > 1
        )
    }

    /// Stable digest of the variant *and* its configuration (used by the
    /// engine's duplicate detection). Two algorithms with the same shape
    /// but different tunables must not look alike.
    pub fn tag(&self) -> u64 {
        let words: [u64; 6] = match self {
            AlgorithmSpec::Nested { level, config } => [
                0x100 + *level as u64,
                config.memory as u64,
                config.playout_cap.map_or(u64::MAX, |c| c as u64),
                0,
                0,
                0,
            ],
            AlgorithmSpec::Nrpa { level, config } => [
                0x200 + *level as u64,
                config.iterations as u64,
                config.alpha.to_bits(),
                0,
                0,
                0,
            ],
            AlgorithmSpec::Uct { config, tree_reuse } => [
                0x300,
                config.iterations as u64,
                config.exploration.to_bits(),
                config.max_bias.to_bits(),
                // Reuse changes the search (table-backed tree), so it
                // is identity; `false` keeps the pre-knob tag.
                *tree_reuse as u64,
                0,
            ],
            AlgorithmSpec::FlatMc { playouts } => [0x400, *playouts as u64, 0, 0, 0, 0],
            AlgorithmSpec::Sample => [0x500, 0, 0, 0, 0, 0],
            AlgorithmSpec::IteratedSampling { samples } => [0x600, *samples as u64, 0, 0, 0, 0],
            AlgorithmSpec::Beam { width, samples } => {
                [0x700, *width as u64, *samples as u64, 0, 0, 0]
            }
            AlgorithmSpec::LeafParallel {
                level,
                batch,
                threads: _,
                playout_cap,
                first_move,
            } => [
                0x800 + *level as u64,
                *batch as u64,
                playout_cap.map_or(u64::MAX, |c| c as u64),
                *first_move as u64,
                0,
                0,
            ],
            AlgorithmSpec::RootParallel {
                level,
                threads: _,
                playout_cap,
                first_move,
            } => [
                0x900 + *level as u64,
                playout_cap.map_or(u64::MAX, |c| c as u64),
                *first_move as u64,
                0,
                0,
                0,
            ],
            // Unlike leaf/root, the thread count IS part of a
            // tree-parallel identity: the workers race on one shared
            // tree, so different counts genuinely produce different
            // searches.
            AlgorithmSpec::TreeParallel {
                config,
                threads,
                tree_reuse,
            } => [
                0xA00,
                config.iterations as u64,
                config.exploration.to_bits(),
                config.max_bias.to_bits(),
                *threads as u64,
                *tree_reuse as u64,
            ],
            AlgorithmSpec::SimulatedAnnealing { config } => [
                0xB00,
                config.iterations as u64,
                config.t_initial.to_bits(),
                config.t_final.to_bits(),
                0,
                0,
            ],
        };
        let mut h = crate::rng::Fnv1a::new();
        for w in words {
            h.write_u64(w);
        }
        h.finish()
    }
}

// The serde representation tags each variant with a `kind` string and
// inlines its configuration; hand-written because the vendored derive
// does not handle data-carrying enums.
impl Serialize for AlgorithmSpec {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        let fields = match self {
            AlgorithmSpec::Nested { level, config } => vec![
                kind("nested"),
                ("level".to_string(), level.to_value()),
                ("config".to_string(), config.to_value()),
            ],
            AlgorithmSpec::Nrpa { level, config } => vec![
                kind("nrpa"),
                ("level".to_string(), level.to_value()),
                ("config".to_string(), config.to_value()),
            ],
            AlgorithmSpec::Uct { config, tree_reuse } => vec![
                kind("uct"),
                ("config".to_string(), config.to_value()),
                ("tree_reuse".to_string(), tree_reuse.to_value()),
            ],
            AlgorithmSpec::FlatMc { playouts } => vec![
                kind("flat_mc"),
                ("playouts".to_string(), playouts.to_value()),
            ],
            AlgorithmSpec::IteratedSampling { samples } => vec![
                kind("iterated_sampling"),
                ("samples".to_string(), samples.to_value()),
            ],
            AlgorithmSpec::Beam { width, samples } => vec![
                kind("beam"),
                ("width".to_string(), width.to_value()),
                ("samples".to_string(), samples.to_value()),
            ],
            AlgorithmSpec::Sample => vec![kind("sample")],
            AlgorithmSpec::LeafParallel {
                level,
                batch,
                threads,
                playout_cap,
                first_move,
            } => vec![
                kind("leaf_parallel"),
                ("level".to_string(), level.to_value()),
                ("batch".to_string(), batch.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("playout_cap".to_string(), playout_cap.to_value()),
                ("first_move".to_string(), first_move.to_value()),
            ],
            AlgorithmSpec::RootParallel {
                level,
                threads,
                playout_cap,
                first_move,
            } => vec![
                kind("root_parallel"),
                ("level".to_string(), level.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("playout_cap".to_string(), playout_cap.to_value()),
                ("first_move".to_string(), first_move.to_value()),
            ],
            AlgorithmSpec::TreeParallel {
                config,
                threads,
                tree_reuse,
            } => vec![
                kind("tree_parallel"),
                ("config".to_string(), config.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("tree_reuse".to_string(), tree_reuse.to_value()),
            ],
            AlgorithmSpec::SimulatedAnnealing { config } => vec![
                kind("simulated_annealing"),
                ("config".to_string(), config.to_value()),
            ],
        };
        Value::Object(fields)
    }
}

impl Deserialize for AlgorithmSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| -> Result<&Value, Error> {
            v.get_field(name).ok_or_else(|| Error::missing_field(name))
        };
        let opt = |name: &str| v.get_field(name).cloned().unwrap_or(Value::Null);
        let kind = String::from_value(field("kind")?)?;
        match kind.as_str() {
            "nested" => Ok(AlgorithmSpec::Nested {
                level: u32::from_value(field("level")?)?,
                config: match v.get_field("config") {
                    Some(c) => NestedConfig::from_value(c)?,
                    None => NestedConfig::paper(),
                },
            }),
            "nrpa" => Ok(AlgorithmSpec::Nrpa {
                level: u32::from_value(field("level")?)?,
                config: match v.get_field("config") {
                    Some(c) => NrpaConfig::from_value(c)?,
                    None => NrpaConfig::paper(),
                },
            }),
            "uct" => Ok(AlgorithmSpec::Uct {
                config: match v.get_field("config") {
                    Some(c) => UctConfig::from_value(c)?,
                    None => UctConfig::default(),
                },
                // Pre-knob (PR-9) rows carry no `tree_reuse`; legacy
                // JSON replays with reuse off — the bit-identical path.
                tree_reuse: match v.get_field("tree_reuse") {
                    Some(b) => bool::from_value(b)?,
                    None => false,
                },
            }),
            "flat_mc" => Ok(AlgorithmSpec::FlatMc {
                playouts: usize::from_value(field("playouts")?)?,
            }),
            "iterated_sampling" => Ok(AlgorithmSpec::IteratedSampling {
                samples: usize::from_value(field("samples")?)?,
            }),
            "beam" => Ok(AlgorithmSpec::Beam {
                width: usize::from_value(field("width")?)?,
                samples: usize::from_value(field("samples")?)?,
            }),
            "sample" => Ok(AlgorithmSpec::Sample),
            "leaf_parallel" => Ok(AlgorithmSpec::LeafParallel {
                level: u32::from_value(field("level")?)?,
                batch: usize::from_value(field("batch")?)?,
                threads: usize::from_value(field("threads")?)?,
                playout_cap: Option::from_value(&opt("playout_cap"))?,
                first_move: bool::from_value(&opt("first_move")).unwrap_or(false),
            }),
            "root_parallel" => Ok(AlgorithmSpec::RootParallel {
                level: u32::from_value(field("level")?)?,
                threads: usize::from_value(field("threads")?)?,
                playout_cap: Option::from_value(&opt("playout_cap"))?,
                first_move: bool::from_value(&opt("first_move")).unwrap_or(false),
            }),
            "tree_parallel" => {
                reject_removed_tree_knobs(v)?;
                Ok(AlgorithmSpec::TreeParallel {
                    config: match v.get_field("config") {
                        Some(c) => UctConfig::from_value(c)?,
                        None => UctConfig::default(),
                    },
                    threads: usize::from_value(field("threads")?)?,
                    tree_reuse: match v.get_field("tree_reuse") {
                        Some(b) => bool::from_value(b)?,
                        None => false,
                    },
                })
            }
            "simulated_annealing" => Ok(AlgorithmSpec::SimulatedAnnealing {
                config: match v.get_field("config") {
                    Some(c) => AnnealingConfig::from_value(c)?,
                    None => AnnealingConfig::default(),
                },
            }),
            other => Err(Error::custom(format!("unknown algorithm kind `{other}`"))),
        }
    }
}

/// Tree-parallel rows written before the search had one configuration
/// carry four more fields. Each is accepted only at the value that names
/// the surviving search (lock-free tree, WU-UCT statistics, inline
/// rollouts), so those rows still replay; any other value is an error
/// naming the field, never a silent switch to a different search.
fn reject_removed_tree_knobs(v: &Value) -> Result<(), Error> {
    for name in ["lock", "stats", "leaf_batch", "leaf_batch_dynamic"] {
        let Some(x) = v.get_field(name) else {
            continue;
        };
        let surviving = match name {
            "lock" => matches!(x, Value::Str(s) if s == "Sharded"),
            "stats" => matches!(x, Value::Str(s) if s == "WuUct"),
            "leaf_batch" => matches!(u64::from_value(x), Ok(0 | 1)),
            _ => matches!(x, Value::Bool(false)),
        };
        if !surviving {
            let value = match x {
                Value::Str(s) => s.clone(),
                Value::Bool(b) => b.to_string(),
                Value::U64(n) => n.to_string(),
                Value::I64(n) => n.to_string(),
                Value::F64(f) => f.to_string(),
                other => format!("{other:?}"),
            };
            return Err(Error::custom(format!(
                "removed tree-parallel knob `{name}: {value}`"
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// SearchSpec
// ---------------------------------------------------------------------

/// A complete, serde-able description of one search run: strategy +
/// configuration + [`Budget`] + seed. Build one fluently via the
/// constructors (which return a [`SearchBuilder`]) and run it with
/// [`SearchSpec::run`] / [`Searcher::search`]:
///
/// ```
/// use nmcs_core::spec::SearchSpec;
/// # use nmcs_core::{CodedGame, Game, Score};
/// # #[derive(Clone)]
/// # struct Walk(Vec<u8>);
/// # impl Game for Walk {
/// #     type Move = u8;
/// #     fn legal_moves(&self, out: &mut Vec<u8>) {
/// #         if self.0.len() < 3 { out.extend_from_slice(&[0, 1]); }
/// #     }
/// #     fn play(&mut self, mv: &u8) { self.0.push(*mv); }
/// #     fn score(&self) -> Score { self.0.iter().map(|&m| m as Score).sum() }
/// #     fn moves_played(&self) -> usize { self.0.len() }
/// # }
/// # impl CodedGame for Walk { fn move_code(&self, mv: &u8) -> u64 { *mv as u64 } }
/// let spec = SearchSpec::nested(1).seed(7).max_playouts(10_000).build();
/// let json = serde_json::to_string(&spec).unwrap();          // persist …
/// let again: SearchSpec = serde_json::from_str(&json).unwrap(); // … replay
/// assert_eq!(spec, again);
/// assert_eq!(spec.run(&Walk(vec![])).score, again.run(&Walk(vec![])).score);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The strategy and its configuration.
    pub algorithm: AlgorithmSpec,
    /// Stopping limits (all optional).
    pub budget: Budget,
    /// Root seed; every random draw of the run derives from it.
    pub seed: u64,
}

impl SearchSpec {
    /// A spec from parts (the fluent constructors below are usually
    /// nicer).
    pub fn new(algorithm: AlgorithmSpec) -> Self {
        SearchSpec {
            algorithm,
            budget: Budget::none(),
            seed: 0,
        }
    }

    /// Paper-faithful NMCS at `level`.
    pub fn nested(level: u32) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::nested(level))
    }

    /// NMCS at `level` with an explicit [`NestedConfig`].
    pub fn nested_with(level: u32, config: NestedConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nested { level, config })
    }

    /// NRPA at `level` with the paper defaults ([`NrpaConfig::paper`]).
    pub fn nrpa(level: u32) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nrpa {
            level,
            config: NrpaConfig::paper(),
        })
    }

    /// NRPA at `level` with an explicit [`NrpaConfig`].
    pub fn nrpa_with(level: u32, config: NrpaConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nrpa { level, config })
    }

    /// Single-agent UCT with default tunables.
    pub fn uct() -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Uct {
            config: UctConfig::default(),
            tree_reuse: false,
        })
    }

    /// UCT with an explicit [`UctConfig`].
    pub fn uct_with(config: UctConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Uct {
            config,
            tree_reuse: false,
        })
    }

    /// Flat Monte-Carlo with `playouts` samples.
    pub fn flat_mc(playouts: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::FlatMc { playouts })
    }

    /// Iterated sampling with `samples` playouts per candidate move.
    pub fn iterated_sampling(samples: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::IteratedSampling { samples })
    }

    /// Beam search of `width` with `samples` playouts per candidate.
    pub fn beam(width: usize, samples: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Beam { width, samples })
    }

    /// A single random playout.
    pub fn sample() -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Sample)
    }

    /// Leaf-parallel batched NMCS: `batch` evaluations per candidate
    /// move on `threads` workers.
    pub fn leaf(level: u32, batch: usize, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::LeafParallel {
            level,
            batch,
            threads,
            playout_cap: None,
            first_move: false,
        })
    }

    /// Root-parallel NMCS (`level ≥ 2`) on `threads` workers.
    pub fn root_parallel(level: u32, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::RootParallel {
            level,
            threads,
            playout_cap: None,
            first_move: false,
        })
    }

    /// Tree-parallel UCT on `threads` workers (lock-free tree, WU-UCT
    /// statistics, inline rollouts). With `threads == 1` this is
    /// bit-identical to [`SearchSpec::uct`] per seed; with more
    /// workers, results are schedule-dependent (see
    /// [`AlgorithmSpec::worker_count_deterministic`]).
    pub fn tree_parallel(threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::tree_parallel(threads))
    }

    /// Tree-parallel UCT with an explicit [`UctConfig`].
    pub fn tree_parallel_with(config: UctConfig, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::TreeParallel {
            config,
            threads,
            tree_reuse: false,
        })
    }

    /// Simulated annealing with the default schedule.
    pub fn simulated_annealing() -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::simulated_annealing())
    }

    /// Simulated annealing with an explicit [`AnnealingConfig`].
    pub fn simulated_annealing_with(config: AnnealingConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::SimulatedAnnealing { config })
    }

    /// Runs the spec on `game`. See [`Searcher::search`] for the full
    /// contract.
    pub fn run<G>(&self, game: &G) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.search(game, None)
    }

    /// Runs the spec on `game`, observing `cancel` cooperatively: every
    /// backend polls the token at playout-move granularity and returns
    /// its best-so-far result with `interrupted` set when cancelled.
    pub fn run_cancellable<G>(&self, game: &G, cancel: &CancelToken) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.search(game, Some(cancel))
    }
}

impl Serialize for SearchSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("budget".to_string(), self.budget.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl Deserialize for SearchSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SearchSpec {
            algorithm: AlgorithmSpec::from_value(
                v.get_field("algorithm")
                    .ok_or_else(|| Error::missing_field("algorithm"))?,
            )?,
            budget: match v.get_field("budget") {
                Some(b) => Budget::from_value(b)?,
                None => Budget::none(),
            },
            seed: match v.get_field("seed") {
                Some(s) => u64::from_value(s)?,
                None => 0,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Searcher
// ---------------------------------------------------------------------

/// A strategy that can search a game under a budget. Implemented by
/// [`SearchSpec`] for every coded game; future backends (tree-parallel,
/// cluster, async) plug in by implementing this trait. The object-safe
/// erased twin for heterogeneous collections is
/// [`crate::erased::AnySearcher`].
pub trait Searcher<G: Game> {
    /// Runs the search on `game`, optionally observing a cancel token.
    ///
    /// Contract: the returned report's `sequence` replays from `game` to
    /// a position whose score is `score` (one exception: a parallel
    /// strategy in `first_move` mode reports the best *evaluation* score
    /// of the single move it plays, the paper's Tables I–II semantics);
    /// `interrupted` is `Some` iff the run stopped on a budget limit or
    /// cancellation; and when the budget is not hit, the result is
    /// bit-identical to the same strategy run without any budget.
    fn search(&self, game: &G, cancel: Option<&CancelToken>) -> SearchReport<G::Move>;
}

impl<G> Searcher<G> for SearchSpec
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    fn search(&self, game: &G, cancel: Option<&CancelToken>) -> SearchReport<G::Move> {
        let started = crate::metrics::monotonic_now();
        let mut ctx = SearchCtx::new(&self.budget, cancel);
        let mut client_jobs = 0u64;
        let (score, sequence) = match &self.algorithm {
            AlgorithmSpec::Nested { level, config } => {
                let mut rng = Rng::seeded(self.seed);
                nested_with(game, *level, config, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Nrpa { level, config } => {
                let mut rng = Rng::seeded(self.seed);
                nrpa_with(game, *level, config, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Uct { config, tree_reuse } => {
                if *tree_reuse {
                    // Reuse-on routes through the width-1 shared tree
                    // with a transposition table. A single tree worker
                    // is bit-identical to `uct_with` when no table
                    // intervenes, so the *only* behavioural delta of
                    // the knob is the statistics sharing it exists to
                    // provide.
                    let tree = TpTree::with_table(config, DEFAULT_TT_BYTES);
                    uct_tree_parallel_on(game, &tree, config, 1, self.seed, &mut ctx)
                } else {
                    let mut rng = Rng::seeded(self.seed);
                    uct_with(game, config, &mut rng, &mut ctx)
                }
            }
            AlgorithmSpec::FlatMc { playouts } => {
                let mut rng = Rng::seeded(self.seed);
                flat_monte_carlo_with(game, *playouts, &mut rng, &mut ctx)
            }
            AlgorithmSpec::IteratedSampling { samples } => {
                let mut rng = Rng::seeded(self.seed);
                iterated_sampling_with(game, *samples, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Beam { width, samples } => {
                let mut rng = Rng::seeded(self.seed);
                beam_search_with(game, *width, *samples, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Sample => {
                // Draw-for-draw identical to the paper's `sample` (the
                // scratch runner is asserted equivalent by unit tests).
                let mut rng = Rng::seeded(self.seed);
                let mut pos = game.clone();
                let mut seq = Vec::new();
                let mut scratch = PlayoutScratch::new();
                let score = scratch.run(&mut pos, &mut rng, None, &mut seq, &mut ctx);
                (score, seq)
            }
            AlgorithmSpec::LeafParallel {
                level,
                batch,
                threads,
                playout_cap,
                first_move,
            } => {
                let run = exec::leaf_parallel(
                    game,
                    *level,
                    *batch,
                    *threads,
                    *playout_cap,
                    *first_move,
                    self.seed,
                    &mut ctx,
                );
                client_jobs = run.client_jobs;
                (run.score, run.sequence)
            }
            AlgorithmSpec::RootParallel {
                level,
                threads,
                playout_cap,
                first_move,
            } => {
                let run = exec::root_parallel(
                    game,
                    *level,
                    *threads,
                    *playout_cap,
                    *first_move,
                    self.seed,
                    &mut ctx,
                );
                client_jobs = run.client_jobs;
                (run.score, run.sequence)
            }
            AlgorithmSpec::TreeParallel {
                config,
                threads,
                tree_reuse,
            } => {
                let tree = if *tree_reuse {
                    TpTree::with_table(config, DEFAULT_TT_BYTES)
                } else {
                    TpTree::new(config)
                };
                uct_tree_parallel_on(game, &tree, config, *threads, self.seed, &mut ctx)
            }
            AlgorithmSpec::SimulatedAnnealing { config } => {
                let mut rng = Rng::seeded(self.seed);
                simulated_annealing_with(game, config, &mut rng, &mut ctx)
            }
        };
        let interrupted = ctx.interruption();
        let elapsed = started.elapsed();
        let stats = ctx.into_stats();
        // Metrics are recorded once per *completed search*, after the
        // backend returned — never inside a rollout loop, and never
        // touching the RNG, so enabling them cannot change any result
        // (asserted by `tests/metrics_props.rs`).
        if crate::metrics::metrics_enabled() {
            let reg = crate::metrics::search_metrics();
            reg.searches.incr();
            reg.playouts.add(stats.playouts);
            reg.playout_moves.add(stats.playout_moves);
            match interrupted {
                Some(crate::report::Interruption::Deadline) => reg.deadline_trips.incr(),
                Some(crate::report::Interruption::PlayoutBudget) => reg.playout_trips.incr(),
                Some(crate::report::Interruption::NodeBudget) => reg.node_trips.incr(),
                Some(crate::report::Interruption::Cancelled) => reg.cancellations.incr(),
                None => {}
            }
            reg.wall.record(
                self.algorithm.tag(),
                self.algorithm.label(),
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        SearchReport {
            score,
            sequence,
            stats,
            elapsed,
            client_jobs,
            interrupted,
            seed: self.seed,
        }
    }
}

// ---------------------------------------------------------------------
// SearchBuilder
// ---------------------------------------------------------------------

/// Fluent builder returned by the [`SearchSpec`] constructors. Every
/// method is chainable; finish with [`SearchBuilder::build`] (to get the
/// serde-able spec) or [`SearchBuilder::run`] (to search immediately):
///
/// `SearchSpec::nested(2).deadline_ms(200).seed(42).run(&game)`
#[derive(Debug, Clone)]
pub struct SearchBuilder {
    spec: SearchSpec,
    cancel: Option<CancelToken>,
}

impl SearchBuilder {
    fn new(algorithm: AlgorithmSpec) -> Self {
        SearchBuilder {
            spec: SearchSpec::new(algorithm),
            cancel: None,
        }
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Replaces the whole budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.spec.budget = budget;
        self
    }

    /// Wall-clock limit.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.spec.budget.deadline = Some(d);
        self
    }

    /// Wall-clock limit in milliseconds.
    pub fn deadline_ms(self, ms: u64) -> Self {
        self.deadline(Duration::from_millis(ms))
    }

    /// Playout cap (completed playouts, summed across workers).
    pub fn max_playouts(mut self, n: u64) -> Self {
        self.spec.budget.max_playouts = Some(n);
        self
    }

    /// Node/expansion cap (summed across workers).
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.spec.budget.max_nodes = Some(n);
        self
    }

    /// Cross-step memory policy (NMCS variants only; ignored by other
    /// strategies).
    pub fn memory(mut self, memory: MemoryPolicy) -> Self {
        if let AlgorithmSpec::Nested { config, .. } = &mut self.spec.algorithm {
            config.memory = memory;
        }
        self
    }

    /// Per-playout move cap (NMCS and parallel variants; ignored by
    /// strategies without one).
    pub fn playout_cap(mut self, cap: usize) -> Self {
        match &mut self.spec.algorithm {
            AlgorithmSpec::Nested { config, .. } => config.playout_cap = Some(cap),
            AlgorithmSpec::LeafParallel { playout_cap, .. }
            | AlgorithmSpec::RootParallel { playout_cap, .. } => *playout_cap = Some(cap),
            _ => {}
        }
        self
    }

    /// Evaluate and play only the first move (parallel variants; the
    /// paper's Tables I–II mode).
    pub fn first_move_only(mut self) -> Self {
        match &mut self.spec.algorithm {
            AlgorithmSpec::LeafParallel { first_move, .. }
            | AlgorithmSpec::RootParallel { first_move, .. } => *first_move = true,
            _ => {}
        }
        self
    }

    /// Warm-tree mode (UCT and tree-parallel only; ignored by other
    /// strategies): the search runs on a re-rootable shared tree with a
    /// bounded transposition table keyed by [`Game::state_hash`], so
    /// transposed move orders share node statistics and sessions can
    /// keep the tree warm between steps.
    ///
    /// Determinism contract, stated explicitly: **reuse-off is
    /// bit-identical to the pre-knob behaviour** (the legacy code path
    /// runs verbatim, and legacy JSON without the field deserialises to
    /// off); **reuse-on is run-to-run deterministic at width 1** (same
    /// spec + seed → same result on every run), but is a different
    /// search from reuse-off — table sharing is the point. Part of
    /// [`AlgorithmSpec::tag`] identity.
    pub fn tree_reuse(mut self, reuse: bool) -> Self {
        match &mut self.spec.algorithm {
            AlgorithmSpec::Uct { tree_reuse, .. }
            | AlgorithmSpec::TreeParallel { tree_reuse, .. } => *tree_reuse = reuse,
            _ => {}
        }
        self
    }

    /// Attaches a cancel token observed by [`SearchBuilder::run`].
    pub fn cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Finishes the builder, returning the plain serde-able spec.
    pub fn build(self) -> SearchSpec {
        self.spec
    }

    /// Builds and immediately runs on `game`.
    pub fn run<G>(self, game: &G) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.spec.search(game, self.cancel.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Score;
    use crate::report::Interruption;

    /// Ternary toy with a unique optimum at all-2s, coded for NRPA.
    #[derive(Clone, Debug)]
    struct Ternary {
        depth: usize,
        taken: Vec<u8>,
    }

    impl Game for Ternary {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < self.depth {
                out.extend_from_slice(&[0, 1, 2]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            self.taken.iter().fold(0, |acc, &m| acc * 3 + m as Score)
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    impl CodedGame for Ternary {
        fn move_code(&self, mv: &u8) -> u64 {
            (self.taken.len() as u64) << 2 | *mv as u64
        }
    }

    fn game() -> Ternary {
        Ternary {
            depth: 4,
            taken: vec![],
        }
    }

    #[test]
    fn builder_produces_the_expected_spec() {
        let spec = SearchSpec::nested(2)
            .deadline_ms(200)
            .seed(42)
            .max_playouts(1_000)
            .build();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.budget.deadline, Some(Duration::from_millis(200)));
        assert_eq!(spec.budget.max_playouts, Some(1_000));
        assert!(matches!(
            spec.algorithm,
            AlgorithmSpec::Nested { level: 2, .. }
        ));
    }

    #[allow(deprecated)]
    #[test]
    fn every_serial_strategy_matches_its_legacy_entry_point() {
        use crate::baselines::{beam_search, flat_monte_carlo, iterated_sampling};
        use crate::nrpa::nrpa;
        use crate::search::{nested, sample};
        use crate::uct::uct;

        let g = game();
        for seed in [1u64, 7, 42] {
            let r = SearchSpec::nested(2).seed(seed).run(&g);
            let d = nested(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let cfg = NrpaConfig::with_iterations(8);
            let r = SearchSpec::nrpa_with(1, cfg.clone()).seed(seed).run(&g);
            let d = nrpa(&g, 1, &cfg, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let ucfg = UctConfig {
                iterations: 64,
                ..UctConfig::default()
            };
            let r = SearchSpec::uct_with(ucfg.clone()).seed(seed).run(&g);
            let d = uct(&g, &ucfg, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::flat_mc(16).seed(seed).run(&g);
            let d = flat_monte_carlo(&g, 16, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::iterated_sampling(2).seed(seed).run(&g);
            let d = iterated_sampling(&g, 2, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::beam(2, 2).seed(seed).run(&g);
            let d = beam_search(&g, 2, 2, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::sample().seed(seed).run(&g);
            let d = sample(&g, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let acfg = AnnealingConfig {
                iterations: 200,
                ..Default::default()
            };
            let r = SearchSpec::simulated_annealing_with(acfg.clone())
                .seed(seed)
                .run(&g);
            let d = crate::baselines::simulated_annealing(&g, &acfg, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );
        }
    }

    #[test]
    fn single_worker_tree_parallel_spec_equals_uct_spec() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 250,
            ..UctConfig::default()
        };
        for seed in [1u64, 9, 77] {
            let uct = SearchSpec::uct_with(cfg.clone()).seed(seed).run(&g);
            let tree = SearchSpec::tree_parallel_with(cfg.clone(), 1)
                .seed(seed)
                .run(&g);
            assert_eq!(tree.score, uct.score, "seed {seed}");
            assert_eq!(tree.sequence, uct.sequence, "seed {seed}");
            assert_eq!(tree.stats, uct.stats, "seed {seed}");
        }
    }

    #[test]
    fn multi_worker_tree_parallel_reports_replay() {
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let r = SearchSpec::tree_parallel(4).seed(3).run(&g);
        let mut replay = g;
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
        assert!(r.interrupted.is_none());
    }

    #[test]
    fn worker_count_determinism_is_declared_honestly() {
        assert!(AlgorithmSpec::nested(2).worker_count_deterministic());
        assert!(AlgorithmSpec::LeafParallel {
            level: 1,
            batch: 4,
            threads: 8,
            playout_cap: None,
            first_move: false,
        }
        .worker_count_deterministic());
        assert!(AlgorithmSpec::tree_parallel(1).worker_count_deterministic());
        assert!(!AlgorithmSpec::tree_parallel(4).worker_count_deterministic());
    }

    #[test]
    fn parallel_strategies_are_worker_count_invariant() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        for (one, four) in [
            (
                SearchSpec::leaf(1, 4, 1).seed(9).run(&g),
                SearchSpec::leaf(1, 4, 4).seed(9).run(&g),
            ),
            (
                SearchSpec::root_parallel(2, 1).seed(9).run(&g),
                SearchSpec::root_parallel(2, 4).seed(9).run(&g),
            ),
        ] {
            assert_eq!(one.score, four.score);
            assert_eq!(one.sequence, four.sequence);
            assert_eq!(one.stats, four.stats);
            assert_eq!(one.client_jobs, four.client_jobs);
        }
    }

    #[test]
    fn reports_replay_to_their_score() {
        let g = game();
        for spec in [
            SearchSpec::nested(1).seed(3).build(),
            SearchSpec::uct().seed(3).build(),
            SearchSpec::flat_mc(8).seed(3).build(),
            SearchSpec::leaf(1, 2, 2).seed(3).build(),
            SearchSpec::root_parallel(2, 2).seed(3).build(),
        ] {
            let r = spec.run(&g);
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "{}", spec.algorithm.label());
            assert!(r.interrupted.is_none());
        }
    }

    #[test]
    fn pre_cancelled_token_returns_promptly_with_interrupted_set() {
        let token = CancelToken::new();
        token.cancel();
        let g = Ternary {
            depth: 64,
            taken: vec![],
        };
        for spec in [
            SearchSpec::nested(3).seed(1).build(),
            SearchSpec::nrpa(2).seed(1).build(),
            SearchSpec::uct().seed(1).build(),
            SearchSpec::flat_mc(1_000_000).seed(1).build(),
            SearchSpec::leaf(2, 8, 2).seed(1).build(),
            SearchSpec::root_parallel(2, 2).seed(1).build(),
        ] {
            let r = spec.run_cancellable(&g, &token);
            assert_eq!(
                r.interrupted,
                Some(Interruption::Cancelled),
                "{}",
                spec.algorithm.label()
            );
        }
    }

    #[test]
    fn spec_serde_round_trips_every_variant() {
        let specs = [
            SearchSpec::nested(3).seed(5).deadline_ms(250).build(),
            SearchSpec::nested_with(2, NestedConfig::greedy())
                .playout_cap(40)
                .build(),
            SearchSpec::nrpa(2).seed(1).max_playouts(500).build(),
            SearchSpec::uct().max_nodes(10_000).build(),
            SearchSpec::flat_mc(64).build(),
            SearchSpec::iterated_sampling(4).build(),
            SearchSpec::beam(8, 2).build(),
            SearchSpec::sample().seed(11).build(),
            SearchSpec::leaf(2, 16, 8).playout_cap(100).build(),
            SearchSpec::root_parallel(3, 8).first_move_only().build(),
            SearchSpec::tree_parallel(4)
                .seed(8)
                .max_playouts(600)
                .build(),
            SearchSpec::tree_parallel_with(
                UctConfig {
                    iterations: 123,
                    ..UctConfig::default()
                },
                2,
            )
            .build(),
            SearchSpec::simulated_annealing().seed(13).build(),
            SearchSpec::simulated_annealing_with(AnnealingConfig {
                iterations: 500,
                t_initial: 2.5,
                t_final: 0.1,
            })
            .build(),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: SearchSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "round-trip of {json}");
        }
    }

    #[test]
    fn unhit_budget_is_bit_identical_to_unbudgeted_run() {
        let g = game();
        for spec_pair in [
            (
                SearchSpec::nested(2).seed(4).build(),
                SearchSpec::nested(2)
                    .seed(4)
                    .deadline(Duration::from_secs(3600))
                    .max_playouts(u64::MAX)
                    .max_nodes(u64::MAX)
                    .build(),
            ),
            (
                SearchSpec::uct().seed(4).build(),
                SearchSpec::uct().seed(4).max_playouts(u64::MAX).build(),
            ),
        ] {
            let (plain, budgeted) = spec_pair;
            let a = plain.run(&g);
            let b = budgeted.run(&g);
            assert_eq!(a.score, b.score);
            assert_eq!(a.sequence, b.sequence);
            assert_eq!(a.stats, b.stats, "budget checks must not perturb the RNG");
            assert!(b.interrupted.is_none());
        }
    }

    #[test]
    fn tag_distinguishes_configurations() {
        let a = AlgorithmSpec::nested(2).tag();
        let b = AlgorithmSpec::nested(3).tag();
        let c = AlgorithmSpec::nrpa(2, 100).tag();
        let d = AlgorithmSpec::nrpa(2, 50).tag();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
        // Thread count is an execution knob, not an identity: two leaf
        // specs differing only in threads produce identical results and
        // must collide.
        let l2 = AlgorithmSpec::LeafParallel {
            level: 1,
            batch: 4,
            threads: 2,
            playout_cap: None,
            first_move: false,
        };
        let l8 = AlgorithmSpec::LeafParallel {
            level: 1,
            batch: 4,
            threads: 8,
            playout_cap: None,
            first_move: false,
        };
        assert_eq!(l2.tag(), l8.tag());
        // Tree-parallel is the exception: its thread count shapes the
        // search, so it IS identity.
        assert_ne!(
            AlgorithmSpec::tree_parallel(2).tag(),
            AlgorithmSpec::tree_parallel(8).tag()
        );
        assert_ne!(
            AlgorithmSpec::tree_parallel(2).tag(),
            AlgorithmSpec::Uct {
                config: UctConfig::default(),
                tree_reuse: false,
            }
            .tag()
        );
        assert_ne!(
            AlgorithmSpec::simulated_annealing().tag(),
            AlgorithmSpec::nested(2).tag()
        );
        // Warm-tree reuse changes the search, so it is identity on both
        // tree backends — and `false` keeps the pre-knob tag.
        assert_ne!(
            SearchSpec::uct().tree_reuse(true).build().algorithm.tag(),
            SearchSpec::uct().build().algorithm.tag()
        );
        assert_ne!(
            SearchSpec::tree_parallel(2)
                .tree_reuse(true)
                .build()
                .algorithm
                .tag(),
            SearchSpec::tree_parallel(2).build().algorithm.tag()
        );
    }

    #[test]
    fn nrpa_constructor_routes_through_paper_defaults() {
        let AlgorithmSpec::Nrpa { config, .. } = AlgorithmSpec::nrpa(2, 37) else {
            panic!("wrong variant");
        };
        assert_eq!(config.iterations, 37);
        assert_eq!(config.alpha, NrpaConfig::paper().alpha);
    }
}
