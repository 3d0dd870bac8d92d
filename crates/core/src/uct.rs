//! Single-agent UCT — the Monte-Carlo tree search the paper's related
//! work parallelises (§II cites four parallel-MCTS papers).
//!
//! NMCS and UCT are the two families of Monte-Carlo search for
//! single-agent optimisation; the paper argues for nested rollouts on
//! problems "that have a large state space and no good heuristics".
//! This module provides the classic comparator: a UCT tree over the
//! maximisation game, with single-player adaptations:
//!
//! * rewards are normalised running averages of playout scores, plus a
//!   max-score memory per node (single-player UCT à la Schadd et al.:
//!   tracking the best playout matters more than the mean when only the
//!   best line counts);
//! * the final answer replays the best sequence *found during any
//!   playout*, not the visit-count path, matching how the NMCS results
//!   are scored.
//!
//! Two execution shapes share the algorithm:
//!
//! * [`uct_with`] — the sequential tree, one iteration at a time;
//! * [`uct_tree_parallel`] — **tree-parallel** UCT in the style of the
//!   parallel-MCTS literature the paper cites: one shared tree, workers
//!   descending concurrently, visit/value statistics accumulated
//!   atomically so rollouts (the dominant cost) run outside any lock.
//!   It has one configuration:
//!
//!   * a **lock-free tree** (Mirsoleimani et al.): a node's edge table
//!     is filled once by its first visitor, descents claim expansions
//!     with a CAS and publish children through write-once slots, so
//!     concurrent descents share only atomic counters;
//!   * **WU-UCT statistics** (*"Watch the Unobserved: a simple approach
//!     to parallelizing Monte Carlo tree search"*, Liu et al. 2020):
//!     in-flight descents widen only the exploration term and never
//!     distort the observed mean;
//!   * **inline rollouts**: each worker descends, rolls out and backs
//!     up one iteration at a time.
//!
//!   A single-worker tree-parallel run is **bit-identical** to
//!   [`uct_with`] for the same seed — the WU-UCT formula reduces exactly
//!   to the sequential one when nothing is in flight. Multi-worker runs
//!   are inherently schedule-dependent and promise only a replayable
//!   best line (the conformance tests assert both halves).

use crate::ctx::SearchCtx;
use crate::exec::pool::ExecutorPool;
use crate::game::{Game, Score, Undo};
use crate::rng::Rng;
use crate::search::{PlayoutScratch, SearchResult};
use crate::seeds::tree_worker_seed;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// UCT tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UctConfig {
    /// Playout budget (tree iterations).
    pub iterations: usize,
    /// Exploration constant for the normalised-mean term.
    pub exploration: f64,
    /// Mixing weight of the node's best-seen score against its mean
    /// (single-player modification; `0` = plain UCT).
    pub max_bias: f64,
}

impl Default for UctConfig {
    fn default() -> Self {
        Self {
            iterations: 1_000,
            exploration: 0.4,
            max_bias: 0.5,
        }
    }
}

struct Node<M> {
    /// Move that led here (None for the root).
    mv: Option<M>,
    children: Vec<usize>,
    /// Moves not yet expanded.
    unexpanded: Vec<M>,
    visits: u64,
    total: f64,
    best: Score,
    expanded: bool,
}

/// Runs UCT from `game` and returns the best playout found.
#[deprecated(note = "use SearchSpec::uct() — the unified search API")]
pub fn uct<G: Game>(game: &G, config: &UctConfig, rng: &mut Rng) -> SearchResult<G::Move> {
    let mut ctx = SearchCtx::unbounded();
    let (score, sequence) = uct_with(game, config, rng, &mut ctx);
    SearchResult {
        score,
        sequence,
        stats: ctx.into_stats(),
    }
}

/// Runs UCT from `game`, accounting into (and honouring the
/// budget/cancellation of) `ctx`.
///
/// The engine room behind `SearchSpec::uct()`; the deprecated [`uct`]
/// free function is a thin shim over it. The node budget
/// (`Budget::max_nodes`) counts tree expansions, so a budgeted UCT run
/// is bounded in memory as well as time.
pub fn uct_with<G: Game>(
    game: &G,
    config: &UctConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    let mut nodes: Vec<Node<G::Move>> = vec![Node {
        mv: None,
        children: Vec::new(),
        unexpanded: Vec::new(),
        visits: 0,
        total: 0.0,
        best: Score::MIN,
        expanded: false,
    }];

    let mut best_score = Score::MIN;
    let mut best_seq: Vec<G::Move> = Vec::new();
    // Running bounds for reward normalisation.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;

    let mut moves_buf: Vec<G::Move> = Vec::new();
    // On fast-path games every iteration walks this one shared position
    // with apply/undo instead of cloning the root; `undo_stack` holds the
    // tokens of the current descent and is fully unwound per iteration.
    let use_undo = game.supports_undo();
    let mut shared_pos = game.clone();
    let mut undo_stack: Vec<Undo<G>> = Vec::new();
    let mut playout: PlayoutScratch<G> = PlayoutScratch::new();
    for iteration in 0..config.iterations.max(1) {
        if iteration > 0 && ctx.should_stop() {
            break;
        }
        let mut cloned_pos: Option<G> = None;
        let pos: &mut G = if use_undo {
            debug_assert!(undo_stack.is_empty());
            &mut shared_pos
        } else {
            cloned_pos.insert(game.clone())
        };
        let mut path = vec![0usize];
        let mut seq: Vec<G::Move> = Vec::new();

        // ---- selection ----
        loop {
            let id = *path.last().expect("path non-empty");
            if !nodes[id].expanded {
                moves_buf.clear();
                pos.legal_moves(&mut moves_buf);
                nodes[id].unexpanded = moves_buf.clone();
                nodes[id].expanded = true;
                // Shuffle once so expansion order is unbiased.
                let n = nodes[id].unexpanded.len();
                for i in (1..n).rev() {
                    let j = rng.below(i + 1);
                    nodes[id].unexpanded.swap(i, j);
                }
            }
            // Expand one child if any remain.
            if let Some(mv) = nodes[id].unexpanded.pop() {
                if use_undo {
                    undo_stack.push(pos.apply(&mv));
                } else {
                    pos.play(&mv);
                }
                seq.push(mv.clone());
                ctx.record_expansion();
                let child = nodes.len();
                nodes.push(Node {
                    mv: Some(mv),
                    children: Vec::new(),
                    unexpanded: Vec::new(),
                    visits: 0,
                    total: 0.0,
                    best: Score::MIN,
                    expanded: false,
                });
                nodes[id].children.push(child);
                path.push(child);
                break;
            }
            if nodes[id].children.is_empty() {
                break; // terminal
            }
            // UCB over children with normalised means + max bias.
            let span = (hi - lo).max(1.0);
            let ln_n = ((nodes[id].visits.max(1)) as f64).ln();
            let mut best_child = nodes[id].children[0];
            let mut best_val = f64::NEG_INFINITY;
            for &c in &nodes[id].children {
                let n = &nodes[c];
                let mean = (n.total / n.visits.max(1) as f64 - lo) / span;
                let maxv = (n.best as f64 - lo) / span;
                let explore = config.exploration * (ln_n / n.visits.max(1) as f64).sqrt();
                let val = (1.0 - config.max_bias) * mean + config.max_bias * maxv + explore;
                if val > best_val {
                    best_val = val;
                    best_child = c;
                }
            }
            let mv = nodes[best_child].mv.clone().expect("non-root");
            if use_undo {
                undo_stack.push(pos.apply(&mv));
            } else {
                pos.play(&mv);
            }
            seq.push(mv);
            ctx.record_nested_move();
            path.push(best_child);
        }

        // ---- rollout ----
        let score = if use_undo {
            playout.run_undo(pos, rng, None, &mut seq, ctx)
        } else {
            crate::search::sample_ctx(pos, rng, None, &mut seq, ctx)
        };
        // Unwind the selection descent: the shared position returns to
        // the root for the next iteration.
        pos.undo_all(&mut undo_stack);
        let s = score as f64;
        lo = lo.min(s);
        hi = hi.max(s);

        // ---- backpropagation ----
        for &id in &path {
            let n = &mut nodes[id];
            n.visits += 1;
            n.total += s;
            n.best = n.best.max(score);
        }

        if score > best_score {
            best_score = score;
            best_seq = seq;
        }
    }

    (best_score, best_seq)
}

// ---------------------------------------------------------------------
// Tree-parallel UCT
// ---------------------------------------------------------------------

/// Per-node search statistics of the shared tree, updated atomically so
/// backpropagation never takes any structural lock.
struct TpStats {
    visits: AtomicU64,
    /// Sum of the playout scores backed up through this node. Integer
    /// sums below 2^53 convert to exactly the `f64` that [`uct_with`]
    /// accumulates, which keeps the single-worker run bit-identical.
    total: AtomicI64,
    /// Best playout score seen through this node.
    best: AtomicI64,
    /// In-flight descents: passed through this node, not yet
    /// backpropagated. WU-UCT selection adds them to the exploration
    /// denominators.
    inflight: AtomicU32,
}

impl TpStats {
    fn new() -> Self {
        TpStats {
            visits: AtomicU64::new(0),
            total: AtomicI64::new(0),
            best: AtomicI64::new(Score::MIN),
            inflight: AtomicU32::new(0),
        }
    }
}

/// One node of the shared tree, read and grown by every worker with no
/// lock and no reference count.
///
/// The node's edge table is filled once, by its first visitor, with the
/// shuffled legal moves; after that a descent *claims* expansion `i` by
/// bumping `claimed` with a CAS and publishes the child through edge
/// `i`'s slot. Slots are append-only until [`TpTree::reroot`], which
/// needs `&mut` and so never races a search.
///
/// `stats` is an `Arc` so a [`TransTable`] can hand the *same*
/// statistics cell to tree nodes reached by transposed move orders:
/// the tree stays a tree (edge moves and best-sequence replay stay
/// exact) while visit/value/best data is shared per position.
struct TpNode<M> {
    stats: Arc<TpStats>,
    /// Expansions claimed so far (at most the edge count). Edge `i` with
    /// `i < claimed` has a child published, or about to be by the
    /// descent that claimed it. Updated `Relaxed`: a claim publishes no
    /// data itself — the child becomes visible through its slot's
    /// `OnceLock` (release on set, acquire on get).
    claimed: AtomicU32,
    edges: OnceLock<Box<[Edge<M>]>>,
}

/// One outgoing edge: its move and the child it leads to, once claimed.
/// The child lives inline in the slot, so growing the tree allocates
/// once per first-visited node and never per expansion.
struct Edge<M> {
    mv: M,
    child: OnceLock<TpNode<M>>,
}

impl<M> TpNode<M> {
    fn new(stats: Arc<TpStats>) -> Self {
        TpNode {
            stats,
            claimed: AtomicU32::new(0),
            edges: OnceLock::new(),
        }
    }

    /// The published children with their moves, in expansion order.
    fn children(&self) -> impl Iterator<Item = (&M, &TpNode<M>)> {
        let edges = self.edges.get().map_or(&[][..], |e| &e[..]);
        edges
            .iter()
            .filter_map(|e| e.child.get().map(|c| (&e.mv, c)))
    }
}

impl<M: Clone> Edge<M> {
    /// Node and edge construction at expansion: lays out a node's edge
    /// table from its shuffled `moves`, one empty child slot per move,
    /// in the order [`uct_with`] pops them (last move first).
    fn table(moves: &[M]) -> Box<[Edge<M>]> {
        moves
            .iter()
            .rev()
            .map(|mv| Edge {
                mv: mv.clone(),
                child: OnceLock::new(),
            })
            // nmcs-lint: allow(hot-path) reason="node construction at expansion: one edge table per first-visited node, children live inline in it; the tree grows by design, bounded by the node budget, not per playout step"
            .collect()
    }
}

/// Set-associativity of the [`TransTable`] (slots scanned per lookup).
const TT_WAYS: usize = 8;

/// Default memory bound of a spec-level `tree_reuse` transposition
/// table (sessions size theirs through the engine's session budget).
pub(crate) const DEFAULT_TT_BYTES: usize = 8 * 1024 * 1024;

/// One occupied transposition slot: a position key, its shared
/// statistics cell, and the access tick driving LRU-within-set
/// eviction.
struct TtSlot {
    key: u64,
    stats: Arc<TpStats>,
    touch: u64,
}

/// A bounded transposition table keyed by [`Game::state_hash`], so
/// tree nodes reached by distinct move orders share one statistics
/// cell.
///
/// Set-associative with [`TT_WAYS`] ways: a lookup scans one set of
/// eight slots, an insert fills an empty way or evicts the
/// least-recently-touched one. The slot vector is allocated once at
/// construction, so memory is bounded *by construction* — churning a
/// million distinct states through the table recycles slots instead of
/// growing, and [`TransTable::bytes`] plateaus at the configured
/// bound. Everything is O(ways) per intern with no rehashing, and a
/// single-worker run interns in a deterministic order, keeping
/// reuse-on searches run-to-run deterministic at width 1.
///
/// Evicted statistics cells stay alive while tree nodes still hold
/// their `Arc`; eviction only stops *future* transpositions from
/// joining them.
pub(crate) struct TransTable {
    slots: Mutex<Vec<Option<TtSlot>>>,
    /// Set index mask (`set_count - 1`; set count is a power of two).
    set_mask: u64,
    /// Monotone access clock for LRU-within-set.
    tick: AtomicU64,
    occupied: AtomicUsize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

/// Approximate heap cost of one occupied slot (inline slot + the
/// `Arc<TpStats>` allocation it owns).
fn tt_entry_bytes() -> usize {
    std::mem::size_of::<Option<TtSlot>>() + std::mem::size_of::<TpStats>()
}

impl TransTable {
    /// A table sized to stay within `bytes_bound` once full.
    pub(crate) fn new(bytes_bound: usize) -> Self {
        let capacity = (bytes_bound / tt_entry_bytes()).max(TT_WAYS);
        let mut sets = 1usize;
        while sets * 2 * TT_WAYS <= capacity {
            sets *= 2;
        }
        let mut slots = Vec::new();
        slots.resize_with(sets * TT_WAYS, || None);
        TransTable {
            slots: Mutex::new(slots),
            set_mask: sets as u64 - 1,
            tick: AtomicU64::new(0),
            occupied: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the statistics cell for `key`, creating (and possibly
    /// evicting) as needed. Called once per tree expansion.
    fn intern(&self, key: u64) -> Arc<TpStats> {
        // nmcs-lint: allow(hot-path) reason="one table lock per tree expansion (not per playout step), held for an O(ways) scan; same budget-bounded cadence as node construction"
        let mut slots = self.slots.lock();
        let set = (key & self.set_mask) as usize * TT_WAYS;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut empty = None;
        let mut victim = set;
        let mut victim_touch = u64::MAX;
        for i in set..set + TT_WAYS {
            match &slots[i] {
                Some(s) if s.key == key => {
                    let stats = s.stats.clone();
                    slots[i].as_mut().expect("just matched").touch = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return stats;
                }
                Some(s) => {
                    if s.touch < victim_touch {
                        victim_touch = s.touch;
                        victim = i;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(i);
                    }
                }
            }
        }
        let stats = Arc::new(TpStats::new());
        let slot = TtSlot {
            key,
            stats: stats.clone(),
            touch: tick,
        };
        match empty {
            Some(i) => {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                slots[i] = Some(slot);
            }
            None => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                slots[victim] = Some(slot);
            }
        }
        stats
    }

    /// Approximate bytes held: the fixed slot backing plus one stats
    /// allocation per occupied slot. Monotone up to the bound, then
    /// flat — eviction recycles slots instead of growing.
    pub(crate) fn bytes(&self) -> usize {
        let backing =
            ((self.set_mask as usize + 1) * TT_WAYS) * std::mem::size_of::<Option<TtSlot>>();
        backing + self.occupied.load(Ordering::Relaxed) * std::mem::size_of::<TpStats>()
    }

    /// (hits, evictions) counters, for tables and gauges.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

fn f64_cas_min(cell: &AtomicU64, candidate: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) <= candidate {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn f64_cas_max(cell: &AtomicU64, candidate: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= candidate {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The shared search tree plus the UCB tunables every descent needs.
///
/// Crate-visible (not public API): `SearchSession` holds one across
/// steps, re-rooting it on each committed move so the next search
/// starts warm.
pub(crate) struct TpTree<M> {
    root: TpNode<M>,
    /// Running reward-normalisation bounds, shared by every worker.
    lo_bits: AtomicU64,
    hi_bits: AtomicU64,
    exploration: f64,
    max_bias: f64,
    /// When present, expansions intern their position's `state_hash`
    /// here and share the statistics cell with transposed lines. Absent
    /// on the reuse-off path, which therefore stays byte-for-byte the
    /// pre-table behaviour.
    table: Option<TransTable>,
}

/// Per-worker descent buffers, reused across iterations so the hot
/// loop stays allocation-free after warm-up. `'t` is the tree's borrow:
/// the path holds plain references into it.
struct DescentScratch<'t, G: Game> {
    use_undo: bool,
    undo_stack: Vec<Undo<G>>,
    moves: Vec<G::Move>,
    /// Moves of the current descent + rollout (the candidate best line).
    seq: Vec<G::Move>,
    /// Nodes of the current descent, root first.
    path: Vec<&'t TpNode<G::Move>>,
}

impl<G: Game> DescentScratch<'_, G> {
    fn new(game: &G) -> Self {
        DescentScratch {
            use_undo: game.supports_undo(),
            undo_stack: Vec::new(),
            moves: Vec::new(),
            seq: Vec::new(),
            path: Vec::new(),
        }
    }
}

/// A worker's best line so far, offered to the run once, at the end.
type BestLine<M> = (Score, Vec<M>);

/// What a finished worker hands back: its slot, budget context and best
/// line.
type WorkerOut<M> = (usize, SearchCtx, BestLine<M>);

impl<M: Clone> TpTree<M> {
    pub(crate) fn new(config: &UctConfig) -> Self {
        TpTree {
            root: TpNode::new(Arc::new(TpStats::new())),
            lo_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            hi_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exploration: config.exploration,
            max_bias: config.max_bias,
            table: None,
        }
    }

    /// Like [`TpTree::new`] but with a transposition table bounded to
    /// `table_bytes` — the reuse-on tree.
    pub(crate) fn with_table(config: &UctConfig, table_bytes: usize) -> Self {
        let mut tree = TpTree::new(config);
        tree.table = Some(TransTable::new(table_bytes));
        tree
    }

    /// The transposition table, if this is a reuse-on tree.
    pub(crate) fn table(&self) -> Option<&TransTable> {
        self.table.as_ref()
    }

    /// Re-roots the tree on the child reached by `mv`, keeping that
    /// subtree (statistics included) and the shared normalisation
    /// bounds; sibling subtrees are dropped. A move that was never
    /// expanded re-roots onto a fresh cold node. Takes `&mut self`, so
    /// it can never overlap a search on this tree.
    pub(crate) fn reroot(&mut self, mv: &M)
    where
        M: PartialEq,
    {
        let taken = self
            .root
            .edges
            .get_mut()
            .and_then(|edges| edges.iter_mut().find(|e| e.mv == *mv))
            .and_then(|e| e.child.take());
        self.root = taken.unwrap_or_else(|| TpNode::new(Arc::new(TpStats::new())));
    }

    /// Approximate heap bytes of the live tree (a between-steps walk —
    /// re-rooting drops subtrees, so this is recomputed, not counted)
    /// plus the transposition table's bound-plateaued footprint.
    pub(crate) fn approx_bytes(&self) -> usize {
        fn walk<M>(node: &TpNode<M>) -> usize {
            let edges = node.edges.get().map_or(0, |e| e.len());
            let own = std::mem::size_of::<TpStats>() + edges * std::mem::size_of::<Edge<M>>();
            own + node.children().map(|(_, c)| walk(c)).sum::<usize>()
        }
        std::mem::size_of::<TpNode<M>>()
            + walk(&self.root)
            + self.table.as_ref().map_or(0, |t| t.bytes())
    }

    /// UCB over the published children of `parent` with normalised
    /// means + max bias, folding in-flight descents in as WU-UCT does:
    /// they widen the exploration denominators (`N + O`) while the mean
    /// stays the mean of completed rollouts. With nothing in flight this
    /// is exactly the sequential formula — the keystone of the
    /// single-worker bit-identity contract. `None` when no child is published yet:
    /// every slot is claimed but still being filled by other descents.
    fn select_child<'t>(
        &self,
        parent: &'t TpNode<M>,
        is_root: bool,
    ) -> Option<(&'t M, &'t TpNode<M>)> {
        let lo = f64::from_bits(self.lo_bits.load(Ordering::Relaxed));
        let hi = f64::from_bits(self.hi_bits.load(Ordering::Relaxed));
        if !(lo.is_finite() && hi.is_finite()) {
            // Warm-up: every completed rollout updates lo/hi, so
            // non-finite bounds mean all of this node's children have
            // their first rollout still in flight (only reachable with
            // several workers — a single worker finishes each rollout
            // before the next selection). The UCB terms would all be
            // NaN here and NaN comparisons would pile every worker onto
            // child 0, so spread descents by fewest in-flight instead.
            return parent
                .children()
                .min_by_key(|(_, c)| c.stats.inflight.load(Ordering::Relaxed));
        }
        let span = (hi - lo).max(1.0);
        let parent_visits = parent.stats.visits.load(Ordering::Relaxed);
        // WU-UCT's parent term is ln(N + O). The selecting descent
        // itself already counts 1 in this (non-root) node's in-flight
        // tally; exclude it so the count is "other unobserved samples" —
        // and so one worker reduces exactly to the sequential ln(N).
        let own = u64::from(!is_root);
        let others = (parent.stats.inflight.load(Ordering::Relaxed) as u64).saturating_sub(own);
        let ln_n = ((parent_visits + others).max(1) as f64).ln();
        let mut best_val = f64::NEG_INFINITY;
        let mut best = None;
        for (mv, c) in parent.children() {
            let st = &c.stats;
            let visits = st.visits.load(Ordering::Relaxed);
            let fl = st.inflight.load(Ordering::Relaxed) as u64;
            let total = st.total.load(Ordering::Relaxed) as f64;
            // Mean and best of *completed* rollouts only; a child whose
            // first visit is still in flight has neither yet, so it is
            // rated at the bound. In-flight descents widen the
            // exploration denominator.
            let (mean_raw, best_seen) = if visits == 0 {
                (lo, lo)
            } else {
                (
                    total / visits as f64,
                    st.best.load(Ordering::Relaxed) as f64,
                )
            };
            let n_explore = (visits + fl).max(1) as f64;
            let mean = (mean_raw - lo) / span;
            let maxv = (best_seen - lo) / span;
            let explore = self.exploration * (ln_n / n_explore).sqrt();
            let val = (1.0 - self.max_bias) * mean + self.max_bias * maxv + explore;
            if best.is_none() || val > best_val {
                best_val = val;
                best = Some((mv, c));
            }
        }
        best
    }

    /// Walks one selection + expansion descent from the root, applying
    /// moves to `pos` and filling `scr.seq` / `scr.path`. Takes no lock
    /// and touches no reference count: a node's first visitor fills its edge table, a descent
    /// claims an expansion with one CAS and publishes the child already
    /// marked in flight, and selection reads only published children.
    /// Marks every non-root node on the path in-flight; the matching
    /// decrement happens in [`TpTree::backprop`]. Rollouts always run
    /// *after* this returns.
    // nmcs-lint: hot-entry
    fn descend<'t, G>(
        &'t self,
        pos: &mut G,
        scr: &mut DescentScratch<'t, G>,
        rng: &mut Rng,
        wctx: &mut SearchCtx,
    ) where
        G: Game<Move = M>,
    {
        let mut node = &self.root;
        let mut is_root = true;
        scr.path.push(node);
        loop {
            let edges = node.edges.get_or_init(|| {
                scr.moves.clear();
                pos.legal_moves(&mut scr.moves);
                // Shuffle once so expansion order is unbiased.
                let n = scr.moves.len();
                for i in (1..n).rev() {
                    let j = rng.below(i + 1);
                    scr.moves.swap(i, j);
                }
                Edge::table(&scr.moves)
            });
            // Expand one child if any remain: claim the next slot.
            let mut claimed = node.claimed.load(Ordering::Relaxed);
            while (claimed as usize) < edges.len() {
                match node.claimed.compare_exchange_weak(
                    claimed,
                    claimed + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let edge = &edges[claimed as usize];
                        if scr.use_undo {
                            scr.undo_stack.push(pos.apply(&edge.mv));
                        } else {
                            pos.play(&edge.mv);
                        }
                        // Transposition path: the key is the *child*
                        // position's hash, so the move is applied before
                        // the node exists.
                        let stats = match self.table.as_ref() {
                            Some(table) => table.intern(pos.state_hash()),
                            None => Arc::new(TpStats::new()),
                        };
                        // In flight before publication: a concurrent
                        // selector must never see a published child with
                        // a stale zero in-flight count — the warm-up
                        // spread (fewest in flight first) would pile
                        // descents onto it, and WU-UCT's `N + O` would
                        // miss the unobserved sample it already carries.
                        stats.inflight.fetch_add(1, Ordering::Relaxed);
                        let child = edge.child.get_or_init(|| TpNode::new(stats));
                        scr.seq.push(edge.mv.clone());
                        wctx.record_expansion();
                        scr.path.push(child);
                        return;
                    }
                    Err(seen) => claimed = seen,
                }
            }
            // Fully expanded: select among the published children. A
            // terminal node has none; so, briefly, does a node whose
            // every slot was claimed by descents still filling them —
            // either way the descent ends here and rolls out from `pos`.
            let Some((mv, next)) = self.select_child(node, is_root) else {
                return;
            };
            next.stats.inflight.fetch_add(1, Ordering::Relaxed);
            if scr.use_undo {
                scr.undo_stack.push(pos.apply(mv));
            } else {
                pos.play(mv);
            }
            scr.seq.push(mv.clone());
            wctx.record_nested_move();
            scr.path.push(next);
            node = next;
            is_root = false;
        }
    }

    /// Folds one completed rollout into the shared bounds and the
    /// path's atomic statistics, releasing the in-flight markers.
    fn backprop(&self, path: &[&TpNode<M>], score: Score) {
        let s = score as f64;
        f64_cas_min(&self.lo_bits, s);
        f64_cas_max(&self.hi_bits, s);
        for (depth, node) in path.iter().enumerate() {
            let st = &node.stats;
            st.visits.fetch_add(1, Ordering::Relaxed);
            st.total.fetch_add(score, Ordering::Relaxed);
            st.best.fetch_max(score, Ordering::Relaxed);
            if depth > 0 {
                st.inflight.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Keeps `line` as the worker's best when it strictly beats it — the
/// sequential search's rule, so one worker picks exactly its line. The
/// loser's buffer comes back in `line` for reuse.
fn keep_best<M>(best: &mut BestLine<M>, score: Score, line: &mut Vec<M>) {
    if score > best.0 {
        best.0 = score;
        std::mem::swap(&mut best.1, line);
    }
}

/// Shared state of one tree-parallel run (tree + budget counters), with
/// the worker loop as a method. Each worker keeps its own best line and
/// returns it; nothing on the iteration path is locked.
struct TpRun<'a, G: Game> {
    game: &'a G,
    tree: &'a TpTree<G::Move>,
    /// Iterations are claimed from this shared counter, so the total
    /// playout budget matches the sequential run at any width.
    iters: AtomicUsize,
    max_iters: usize,
    seed: u64,
}

impl<'a, G> TpRun<'a, G>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    /// The worker loop: descend, roll out inline, back up — one
    /// iteration at a time, rollouts outside every lock.
    fn worker(&self, slot: usize, wctx: &mut SearchCtx) -> BestLine<G::Move> {
        let mut rng = Rng::seeded(tree_worker_seed(self.seed, slot));
        let mut shared_pos = self.game.clone();
        let mut scr: DescentScratch<'a, G> = DescentScratch::new(self.game);
        let mut playout: PlayoutScratch<G> = PlayoutScratch::new();
        let mut best = (Score::MIN, Vec::new());

        loop {
            let iteration = self.iters.fetch_add(1, Ordering::Relaxed);
            if iteration >= self.max_iters {
                break;
            }
            if iteration > 0 && wctx.should_stop() {
                break;
            }

            let mut cloned_pos: Option<G> = None;
            let pos: &mut G = if scr.use_undo {
                debug_assert!(scr.undo_stack.is_empty());
                &mut shared_pos
            } else {
                cloned_pos.insert(self.game.clone())
            };
            scr.seq.clear();
            scr.path.clear();

            // ---- selection + expansion ----
            self.tree.descend(pos, &mut scr, &mut rng, wctx);

            // ---- rollout (outside every lock) ----
            let score = if scr.use_undo {
                playout.run_undo(pos, &mut rng, None, &mut scr.seq, wctx)
            } else {
                crate::search::sample_ctx(pos, &mut rng, None, &mut scr.seq, wctx)
            };
            // Unwind the selection descent: the shared position returns
            // to the root for the next iteration.
            pos.undo_all(&mut scr.undo_stack);

            // ---- backpropagation (lock-free) ----
            self.tree.backprop(&scr.path, score);
            keep_best(&mut best, score, &mut scr.seq);
        }
        best
    }
}

/// Tree-parallel UCT: `threads` workers share one tree through the
/// process-wide [`ExecutorPool`], descending concurrently. The engine
/// room behind `SearchSpec::tree_parallel`.
///
/// Concurrency shape: selection and expansion (cheap pointer-chasing)
/// run lock-free over CAS-claimed edge slots; rollouts — the dominant
/// cost on every domain we ship — run inline on each worker, outside
/// every lock; backpropagation goes straight to the nodes' atomic
/// counters. In-flight descents steer workers apart through WU-UCT's
/// exploration denominators, which reduce *exactly* to the sequential
/// formula when nothing is in flight — which is why `threads == 1` is
/// bit-identical to [`uct_with`] per seed (asserted by
/// `tests/cross_backend.rs`).
///
/// Budget/cancellation polls hit every worker once per iteration plus
/// once per playout move (inside the rollout), sharing one atomic meter
/// through the forked [`SearchCtx`]s; tree-parallel overshoots a
/// playout cap by at most one in-flight rollout per worker
/// (`tests/budget_props.rs` proves the bound at every width).
pub fn uct_tree_parallel<G>(
    game: &G,
    config: &UctConfig,
    threads: usize,
    seed: u64,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>)
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    let tree = TpTree::new(config);
    uct_tree_parallel_on(game, &tree, config, threads, seed, ctx)
}

/// Tree-parallel UCT on an *existing* tree: the warm-start entry point
/// behind [`uct_tree_parallel`] (which passes a fresh tree) and
/// `SearchSession` (which keeps one across steps, re-rooted per
/// committed move). The tree's UCB tunables were fixed at its
/// construction and must match `config`.
pub(crate) fn uct_tree_parallel_on<G>(
    game: &G,
    tree: &TpTree<G::Move>,
    config: &UctConfig,
    threads: usize,
    seed: u64,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>)
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(threads >= 1, "tree-parallel UCT needs at least one worker");
    debug_assert_eq!(tree.exploration.to_bits(), config.exploration.to_bits());
    debug_assert_eq!(tree.max_bias.to_bits(), config.max_bias.to_bits());
    let run = TpRun {
        game,
        tree,
        iters: AtomicUsize::new(0),
        max_iters: config.iterations.max(1),
        seed,
    };
    let outs: Mutex<Vec<WorkerOut<G::Move>>> = Mutex::new(Vec::with_capacity(threads));
    let parent: &SearchCtx = ctx;

    ExecutorPool::shared().run_batch(threads, &|slot| {
        let mut wctx = parent.fork();
        let best = run.worker(slot, &mut wctx);
        outs.lock().push((slot, wctx, best));
    });

    // Workers offer their best lines once, here; ties go to the lowest
    // worker slot, so the pick does not depend on finishing order.
    let mut outs = outs.into_inner();
    outs.sort_by_key(|(slot, ..)| *slot);
    let mut best = (Score::MIN, Vec::new());
    for (_, wctx, (score, mut line)) in outs {
        ctx.absorb(wctx);
        keep_best(&mut best, score, &mut line);
    }
    best
}

// The unit tests keep exercising the deprecated free functions: they are
// the regression net for the shims (new-API coverage lives in `spec.rs`).
#[allow(deprecated)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::flat_monte_carlo;

    /// Depth-`d` ternary game, unique optimum all-2s.
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

    fn optimum(d: usize) -> Score {
        (0..d).fold(0, |acc, _| acc * 3 + 2)
    }

    /// `Ternary` with the scratch-state fast path, for path-equality tests.
    #[derive(Clone, Debug)]
    struct FastTernary(Ternary);

    impl Game for FastTernary {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            self.0.legal_moves(out);
        }
        fn play(&mut self, mv: &u8) {
            self.0.play(mv);
        }
        fn score(&self) -> Score {
            self.0.score()
        }
        fn moves_played(&self) -> usize {
            self.0.moves_played()
        }
        fn supports_undo(&self) -> bool {
            true
        }
        fn apply(&mut self, mv: &u8) -> Undo<Self> {
            self.0.play(mv);
            Undo::internal()
        }
        fn undo(&mut self, token: Undo<Self>) {
            debug_assert!(token.is_internal());
            self.0.taken.pop().expect("undo without apply");
        }
    }

    #[test]
    fn uct_undo_path_is_bit_identical_to_clone_path() {
        let cfg = UctConfig {
            iterations: 300,
            ..Default::default()
        };
        for seed in 0..10 {
            let slow = uct(
                &Ternary {
                    depth: 5,
                    taken: vec![],
                },
                &cfg,
                &mut Rng::seeded(seed),
            );
            let fast = uct(
                &FastTernary(Ternary {
                    depth: 5,
                    taken: vec![],
                }),
                &cfg,
                &mut Rng::seeded(seed),
            );
            assert_eq!(fast.score, slow.score, "seed {seed}");
            assert_eq!(fast.sequence, slow.sequence, "seed {seed}");
            assert_eq!(fast.stats, slow.stats, "seed {seed}");
        }
    }

    #[test]
    fn uct_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let r = uct(&g, &cfg, &mut Rng::seeded(1));
        assert_eq!(r.score, optimum(4));
    }

    #[test]
    fn uct_sequences_replay_to_their_score() {
        for seed in 0..10 {
            let g = Ternary {
                depth: 5,
                taken: vec![],
            };
            let cfg = UctConfig {
                iterations: 200,
                ..Default::default()
            };
            let r = uct(&g, &cfg, &mut Rng::seeded(seed));
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
            assert_eq!(r.sequence.len(), 5);
        }
    }

    #[test]
    fn uct_beats_flat_mc_at_equal_budget() {
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let budget = 300;
        let trials = 20;
        let mut uct_total = 0;
        let mut flat_total = 0;
        for seed in 0..trials {
            let cfg = UctConfig {
                iterations: budget,
                ..Default::default()
            };
            uct_total += uct(&g, &cfg, &mut Rng::seeded(seed)).score;
            flat_total += flat_monte_carlo(&g, budget, &mut Rng::seeded(seed)).score;
        }
        assert!(
            uct_total > flat_total,
            "UCT ({uct_total}) should beat flat MC ({flat_total}) over {trials} trials"
        );
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let score_at = |iters: usize| {
            (0..10)
                .map(|s| {
                    let cfg = UctConfig {
                        iterations: iters,
                        ..Default::default()
                    };
                    uct(&g, &cfg, &mut Rng::seeded(s)).score
                })
                .sum::<Score>()
        };
        assert!(score_at(1_000) >= score_at(30));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 100,
            ..Default::default()
        };
        let a = uct(&g, &cfg, &mut Rng::seeded(9));
        let b = uct(&g, &cfg, &mut Rng::seeded(9));
        assert_eq!(a.score, b.score);
        assert_eq!(a.sequence, b.sequence);
    }

    /// Single-worker tree-parallel ≡ sequential UCT per seed, in both
    /// modes of running it: on a fresh tree ([`uct_tree_parallel`]) and
    /// on a caller-held one ([`uct_tree_parallel_on`], the session
    /// path) — WU-UCT reduces to the sequential formula when nothing is
    /// in flight.
    #[test]
    fn single_worker_tree_parallel_is_bit_identical_to_sequential_in_every_mode() {
        let cfg = UctConfig {
            iterations: 300,
            ..Default::default()
        };
        for seed in 0..10 {
            let g = Ternary {
                depth: 5,
                taken: vec![],
            };
            let mut seq_ctx = SearchCtx::unbounded();
            let sequential = uct_with(&g, &cfg, &mut Rng::seeded(seed), &mut seq_ctx);

            let mut fresh_ctx = SearchCtx::unbounded();
            let fresh = uct_tree_parallel(&g, &cfg, 1, seed, &mut fresh_ctx);
            assert_eq!(fresh, sequential, "seed {seed} fresh tree");
            assert_eq!(fresh_ctx.stats(), seq_ctx.stats(), "seed {seed} fresh tree");

            let tree = TpTree::new(&cfg);
            let mut held_ctx = SearchCtx::unbounded();
            let held = uct_tree_parallel_on(&g, &tree, &cfg, 1, seed, &mut held_ctx);
            assert_eq!(held, sequential, "seed {seed} held tree");
            assert_eq!(held_ctx.stats(), seq_ctx.stats(), "seed {seed} held tree");
        }
    }

    #[test]
    fn single_worker_tree_parallel_matches_on_fast_path_games_too() {
        let cfg = UctConfig {
            iterations: 200,
            ..Default::default()
        };
        for seed in 0..5 {
            let g = FastTernary(Ternary {
                depth: 5,
                taken: vec![],
            });
            let mut seq_ctx = SearchCtx::unbounded();
            let sequential = uct_with(&g, &cfg, &mut Rng::seeded(seed), &mut seq_ctx);
            let mut tp_ctx = SearchCtx::unbounded();
            let tree = uct_tree_parallel(&g, &cfg, 1, seed, &mut tp_ctx);
            assert_eq!(tree, sequential, "seed {seed}");
        }
    }

    #[test]
    fn multi_worker_tree_parallel_replays_and_honours_the_iteration_total() {
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 400,
            ..Default::default()
        };
        for workers in [2usize, 4] {
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = uct_tree_parallel(&g, &cfg, workers, 9, &mut ctx);
            let mut replay = g.clone();
            for mv in &seq {
                replay.play(mv);
            }
            assert_eq!(replay.score(), score, "{workers} workers");
            // The iteration counter is shared: total playouts equal the
            // configured budget no matter how many workers split it.
            assert_eq!(ctx.stats().playouts, 400, "{workers} workers");
        }
    }

    #[test]
    fn multi_worker_tree_parallel_still_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let mut ctx = SearchCtx::unbounded();
        let (score, _) = uct_tree_parallel(&g, &cfg, 4, 1, &mut ctx);
        assert_eq!(score, optimum(4));
    }

    #[test]
    fn tree_parallel_terminal_root_is_handled() {
        let g = Ternary {
            depth: 0,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 10,
            ..Default::default()
        };
        for threads in [1usize, 3] {
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = uct_tree_parallel(&g, &cfg, threads, 1, &mut ctx);
            assert_eq!(score, 0, "{threads} workers");
            assert!(seq.is_empty(), "{threads} workers");
        }
    }

    #[test]
    fn terminal_root_is_handled() {
        let g = Ternary {
            depth: 0,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 10,
            ..Default::default()
        };
        let r = uct(&g, &cfg, &mut Rng::seeded(1));
        assert_eq!(r.score, 0);
        assert!(r.sequence.is_empty());
    }

    #[test]
    fn trans_table_bytes_plateau_under_a_million_state_churn() {
        let bound = 64 * 1024;
        let table = TransTable::new(bound);
        assert!(
            table.bytes() <= bound,
            "fresh table backing {} must fit the bound {bound}",
            table.bytes()
        );
        let mut peak = 0usize;
        for key in 0..1_000_000u64 {
            table.intern(crate::game::mix64(key + 1));
            peak = peak.max(table.bytes());
        }
        assert!(
            peak <= bound + tt_entry_bytes() * TT_WAYS,
            "peak {peak} exceeded bound {bound}: churn must recycle slots, not grow"
        );
        assert_eq!(
            table.bytes(),
            peak,
            "a full table is flat: bytes stays at the plateau"
        );
        let (_, evictions) = table.counters();
        assert!(evictions > 0, "a million states must overflow 64 KiB");
    }

    #[test]
    fn trans_table_interns_same_key_to_the_same_stats_cell() {
        let table = TransTable::new(16 * 1024);
        let a = table.intern(42);
        let b = table.intern(42);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one cell");
        let c = table.intern(43);
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct cells");
        assert_eq!(table.counters().0, 1, "exactly one hit");
    }

    #[test]
    fn reroot_keeps_the_chosen_subtree_statistics() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 500,
            ..Default::default()
        };
        let mut tree = TpTree::new(&cfg);
        let mut ctx = SearchCtx::unbounded();
        let (_, seq) = uct_tree_parallel_on(&g, &tree, &cfg, 1, 7, &mut ctx);
        let first = seq[0];

        let child_visits = tree
            .root
            .children()
            .find(|(mv, _)| **mv == first)
            .map(|(_, child)| child.stats.visits.load(Ordering::Relaxed))
            .expect("the best line's first move was expanded");
        assert!(child_visits > 0);
        let bytes_before = tree.approx_bytes();

        tree.reroot(&first);
        assert_eq!(
            tree.root.stats.visits.load(Ordering::Relaxed),
            child_visits,
            "the new root carries the child's visit count"
        );
        assert!(
            tree.approx_bytes() < bytes_before,
            "re-rooting drops the sibling subtrees"
        );

        // Re-rooting on a move with no expanded child starts cold (9 is
        // not a Ternary move, standing in for an unexplored line).
        tree.reroot(&9u8);
        assert_eq!(tree.root.stats.visits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn table_backed_single_worker_runs_are_run_to_run_deterministic() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 300,
            ..Default::default()
        };
        for seed in 0..5 {
            let run = |cfg: &UctConfig| {
                let tree = TpTree::with_table(cfg, 256 * 1024);
                let mut ctx = SearchCtx::unbounded();
                let out = uct_tree_parallel_on(&g, &tree, cfg, 1, seed, &mut ctx);
                (out, *ctx.stats())
            };
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a, b, "seed {seed}: width-1 reuse-on is deterministic");
        }
    }

    #[test]
    fn table_backed_tree_still_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        for threads in [1usize, 4] {
            let tree = TpTree::with_table(&cfg, 1024 * 1024);
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = uct_tree_parallel_on(&g, &tree, &cfg, threads, 3, &mut ctx);
            assert_eq!(score, optimum(4), "threads {threads}");
            let mut replay = g.clone();
            for mv in &seq {
                replay.play(mv);
            }
            assert_eq!(replay.score(), score, "threads {threads}: replayable line");
        }
    }

    /// Pick 4 of 6 items, any order; the position is the chosen *set*,
    /// so every permutation of a set transposes. Scores spread enough
    /// (weights 1,2,4,8,16,32) that search has something to rank.
    #[derive(Clone, Debug)]
    struct PickSet {
        chosen: u8,
        count: usize,
    }

    impl Game for PickSet {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.count < 4 {
                out.extend((0..6u8).filter(|i| self.chosen & (1 << i) == 0));
            }
        }
        fn play(&mut self, mv: &u8) {
            self.chosen |= 1 << mv;
            self.count += 1;
        }
        fn score(&self) -> Score {
            self.chosen as Score
        }
        fn moves_played(&self) -> usize {
            self.count
        }
        fn state_hash(&self) -> u64 {
            crate::game::mix64(self.chosen as u64 + 1)
        }
    }

    #[test]
    fn transposed_move_orders_share_one_statistics_cell() {
        let g = PickSet {
            chosen: 0,
            count: 0,
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let tree = TpTree::with_table(&cfg, 1024 * 1024);
        let mut ctx = SearchCtx::unbounded();
        let (score, _) = uct_tree_parallel_on(&g, &tree, &cfg, 1, 5, &mut ctx);
        assert_eq!(score, 0b111100, "the four heaviest items win");
        let (hits, _) = tree.table().expect("reuse-on tree").counters();
        assert!(
            hits > 0,
            "permuted picks reach equal sets; the table must dedupe them"
        );

        // The sharing is physical: two distinct depth-1 children that
        // lead to a common grandchild set expose the same Arc somewhere
        // below — spot-check that total interns < total expansions.
        let expansions = ctx.stats().expansions as usize;
        assert!(
            (hits as usize) + tree_distinct_stats(&tree.root) == expansions + 1,
            "every expansion either hit the table or made a fresh cell \
             (hits {hits} + distinct vs expansions {expansions} + root)"
        );
    }

    /// Counts distinct statistics cells in the subtree (root included).
    fn tree_distinct_stats<M>(node: &TpNode<M>) -> usize {
        fn walk<M>(node: &TpNode<M>, seen: &mut Vec<*const TpStats>) {
            let ptr = Arc::as_ptr(&node.stats);
            if !seen.contains(&ptr) {
                seen.push(ptr);
            }
            for (_, c) in node.children() {
                walk(c, seen);
            }
        }
        let mut seen = Vec::new();
        walk(node, &mut seen);
        seen.len()
    }

    /// A minimal 6×6 SameGame: colours 1..=3 (0 = empty), cell
    /// `col * 6 + row` with row 0 at the bottom. A move names the first
    /// cell (in index order) of a same-coloured group of at least two;
    /// playing it removes the group for `(n - 2)²`, drops the cells
    /// above and closes empty columns leftwards.
    #[derive(Clone, Debug)]
    struct MiniSameGame {
        cells: [u8; 36],
        score: Score,
        played: usize,
    }

    impl MiniSameGame {
        fn random(seed: u64) -> Self {
            let mut rng = Rng::seeded(seed);
            let mut cells = [0u8; 36];
            for c in cells.iter_mut() {
                *c = 1 + rng.below(3) as u8;
            }
            MiniSameGame {
                cells,
                score: 0,
                played: 0,
            }
        }

        /// The group containing `at`, as a bitmask over cells.
        fn group(&self, at: usize) -> u64 {
            let colour = self.cells[at];
            let mut group = 1u64 << at;
            let mut stack = vec![at];
            while let Some(i) = stack.pop() {
                let (col, row) = (i / 6, i % 6);
                let mut near = Vec::new();
                if col > 0 {
                    near.push(i - 6);
                }
                if col < 5 {
                    near.push(i + 6);
                }
                if row > 0 {
                    near.push(i - 1);
                }
                if row < 5 {
                    near.push(i + 1);
                }
                for j in near {
                    if self.cells[j] == colour && group & (1 << j) == 0 {
                        group |= 1 << j;
                        stack.push(j);
                    }
                }
            }
            group
        }
    }

    impl Game for MiniSameGame {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            let mut seen = 0u64;
            for i in 0..36 {
                if self.cells[i] == 0 || seen & (1 << i) != 0 {
                    continue;
                }
                let group = self.group(i);
                seen |= group;
                if group.count_ones() >= 2 {
                    out.push(i as u8);
                }
            }
        }
        fn play(&mut self, mv: &u8) {
            let group = self.group(*mv as usize);
            let n = group.count_ones() as Score;
            self.score += (n - 2) * (n - 2);
            self.played += 1;
            let mut columns: Vec<Vec<u8>> = (0..6)
                .map(|col| {
                    (0..6)
                        .map(|row| col * 6 + row)
                        .filter(|&i| group & (1 << i) == 0 && self.cells[i] != 0)
                        .map(|i| self.cells[i])
                        .collect()
                })
                .collect();
            columns.retain(|c| !c.is_empty());
            self.cells = [0; 36];
            for (col, cells) in columns.iter().enumerate() {
                self.cells[col * 6..col * 6 + cells.len()].copy_from_slice(cells);
            }
        }
        fn score(&self) -> Score {
            self.score
        }
        fn moves_played(&self) -> usize {
            self.played
        }
        fn state_hash(&self) -> u64 {
            self.cells
                .iter()
                .fold(0x5a3e, |h, &c| crate::game::mix64(h ^ (u64::from(c) + 1)))
        }
    }

    /// Walks the finished tree checking the lock-free structure's
    /// invariants; `own_stats` says every node has a statistics cell of
    /// its own (no transposition table), so visit counts nest.
    fn assert_tree_invariants<M>(node: &TpNode<M>, own_stats: bool, what: &str) {
        assert_eq!(
            node.stats.inflight.load(Ordering::Relaxed),
            0,
            "{what}: in-flight markers all released"
        );
        let moves = node.edges.get().map_or(0, |e| e.len());
        let claimed = node.claimed.load(Ordering::Relaxed) as usize;
        let published = node.children().count();
        assert_eq!(claimed, published, "{what}: every claim was published");
        assert!(
            published <= moves,
            "{what}: {published} children > {moves} moves"
        );
        if own_stats {
            let child_visits: u64 = node
                .children()
                .map(|(_, c)| c.stats.visits.load(Ordering::Relaxed))
                .sum();
            assert!(
                child_visits <= node.stats.visits.load(Ordering::Relaxed),
                "{what}: children visited more than their parent"
            );
        }
        for (_, child) in node.children() {
            assert_tree_invariants(child, own_stats, what);
        }
    }

    fn check_multi_worker_invariants<G>(game: &G, name: &str, iterations: usize)
    where
        G: Game + Send + Sync,
        G::Move: Send + Sync,
    {
        let env_workers = std::env::var("NMCS_TEST_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .unwrap_or(4);
        let cfg = UctConfig {
            iterations,
            ..Default::default()
        };
        for threads in [2, 8, env_workers] {
            for reuse in [false, true] {
                let tree = if reuse {
                    TpTree::with_table(&cfg, 256 * 1024)
                } else {
                    TpTree::new(&cfg)
                };
                let mut ctx = SearchCtx::unbounded();
                let (score, seq) = uct_tree_parallel_on(game, &tree, &cfg, threads, 5, &mut ctx);
                let what = format!("{name} threads {threads} reuse {reuse}");
                let mut replay = game.clone();
                for mv in &seq {
                    replay.play(mv);
                }
                assert_eq!(replay.score(), score, "{what}: replayable line");
                assert_tree_invariants(&tree.root, !reuse, &what);
                if !reuse {
                    assert_eq!(
                        tree.root.stats.visits.load(Ordering::Relaxed),
                        ctx.stats().playouts,
                        "{what}: one root visit per playout"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_worker_trees_keep_the_lock_free_invariants() {
        let ternary = Ternary {
            depth: 6,
            taken: vec![],
        };
        check_multi_worker_invariants(&ternary, "ternary", 600);
        check_multi_worker_invariants(&MiniSameGame::random(3), "samegame 6x6", 600);
    }
}
