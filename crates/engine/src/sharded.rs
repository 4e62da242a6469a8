//! The graph-partitioned multi-core engine.
//!
//! Every engine tier so far runs one simulation on one thread;
//! [`replicate`](crate::replicate()) only parallelises *across* seeds. This
//! module parallelises a **single run**: the node set is split into
//! shards by a [`Partition`] (contiguous ranges for geometric numberings,
//! index-striped for the complete graph — each topology picks via
//! [`Topology::preferred_partition`]), and the shards step concurrently.
//!
//! # Scheduling contract: the count-split
//!
//! Uniform scheduling decomposes **exactly**. In a block of `B`
//! time-steps, the number of steps scheduled on each shard is jointly
//! multinomial over the shard sizes, and conditioned on those counts the
//! scheduled agents are uniform *within* each shard. The engine samples
//! that decomposition directly instead of scanning a shared schedule:
//!
//! 1. Per block, the per-shard granted counts `c_0..c_{S−1}` are drawn
//!    from one dedicated counter stream (`CounterRng::for_shard(seed,
//!    u64::MAX, block)` — the tag is reserved; shard ids fit `u32`) as a
//!    chain of conditional binomials over the partition's shard sizes,
//!    `c_s ~ Binomial(B − Σc_<s, size_s / rem_nodes)`. The chain's joint
//!    law is exactly the multinomial the old per-step uniform draw
//!    induced.
//! 2. Each shard runs its granted count alone: one agent draw (uniform
//!    over its own members) plus `m` partner draws per step, all from its
//!    private stream keyed `(seed, shard, block)`
//!    ([`CounterRng::for_shard`]).
//!
//! No shard touches another's randomness and no per-step global hash
//! work remains, so scheduled-step throughput scales with the worker
//! count while the trajectory stays a pure function of
//! `(protocol, topology, initial states, seed, shards, block, read
//! mode)` — **independent of how many threads execute it**. A shard
//! paused mid-block realigns in `O(1)`: executing the block sub-range
//! `[q0, q1)` means running granted steps `j ∈ [⌊c·q0/B⌋, ⌊c·q1/B⌋)`,
//! and the stream skips to position `j0·(m+1)` with one multiply-add
//! ([`CounterRng::advance_by`]).
//!
//! # Cross-shard reads: two modes
//!
//! Shards only ever *write* their own members, so the within-block
//! interleaving of shard-local interactions is unobservable. What needs a
//! policy is a scheduled agent *reading* a partner another shard owns
//! (the owner may be mid-write). [`ReadMode`] picks it:
//!
//! - [`Defer`](ReadMode::Defer) (default on contiguous partitions): the
//!   interaction is queued — `(merge key, agent, partners, entropy)` —
//!   and applied between blocks in one deterministic merge, ordered by
//!   `(granted index, shard)`, a round-robin interleave of the shard
//!   sub-sequences. The relaxation is a bounded *reordering*: every
//!   deferred interaction lands within its own block, i.e. delayed by
//!   less than `B` steps — less than `B/n` parallel rounds. With the
//!   default block (`B ≤ n/16`) that is a ≤ 1/16-round perturbation
//!   carried by the cut fraction ([`Partition::cross_edge_fraction`]) of
//!   interactions; on rings and tori the cut is `O(shards/√n)` and the
//!   bias sits orders of magnitude below the statistical harness's
//!   resolution. Interaction counts are exact: every granted step
//!   executes exactly once, local or merged.
//! - [`Snapshot`](ReadMode::Snapshot) (default on strided partitions —
//!   expanders and the complete graph, where the cut approaches
//!   `(S−1)/S` and deferring would serialise most interactions through
//!   the merge): remote partner reads come from a **block-start
//!   snapshot** of the global state, local reads stay live, and every
//!   interaction applies immediately — no queue, no merge. A remote read
//!   is then at most one block stale, a staleness bias of
//!   `O(B/n × cut-fraction)` parallel rounds (≤ 1/16 round at the
//!   default block even at full cut), verified against the bit-exact
//!   engines by `snapshot_reads_match_packed_on_high_cut_families` in
//!   `tests/sharded_equivalence.rs`. The gather costs `O(n)` per block —
//!   16 words per step at the default block length.
//!
//! Both modes are statistical-tier relaxations with the same trajectory
//! determinism: `(seed, shards, block, read mode)` fixes the run bit for
//! bit regardless of thread count.
//!
//! # Threads
//!
//! `run` leases workers from the crate-wide [`pool`] budget — nested use
//! (a sharded run inside `replicate` or inside a `pp-serve` round)
//! degrades to single-threaded inline execution instead of
//! oversubscribing. A call checks out its workers from the pool's parked
//! set once and keeps them across all of its blocks, so shard `s` meets
//! the same thread every block; no thread is spawned while a parked one
//! is free. Each block, a worker gets an owned task: its shards by value
//! and the block's segment, whose `Arc`s share the protocol, topology and
//! partition. The boundary work (the merge, or the next block's snapshot
//! gather) runs on the calling thread while workers wait.

use crate::engine::{
    check_population, check_states_arity, check_states_width, fit_population, tally_packed,
};
use crate::kernel::{run_steps, Deferred, Owner, TurboWord};
use crate::packed::MAX_PACKED_OBSERVATIONS;
use crate::pool;
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::{Engine, PackedProtocol};
use pp_graph::{Partition, PartitionKind, Topology};
use rand::rngs::{CounterRng, GOLDEN};
use std::sync::Arc;

/// The stream tag of the per-block count-split draw
/// (`CounterRng::for_shard(seed, SPLIT_STREAM, block)`). Reserved: real
/// shard ids are bounded by the `u32` node-id budget.
const SPLIT_STREAM: u64 = u64::MAX;

/// How a scheduled agent reads partners owned by another shard. Part of
/// the trajectory key (and of the snapshot aux payload): two runs agree
/// bit for bit only when their read modes match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Queue the interaction and apply it in the deterministic
    /// block-boundary merge (bounded reordering; exact interaction
    /// counts). Default for contiguous partitions, whose cut is small.
    Defer,
    /// Read remote partners from a block-start snapshot of the global
    /// state and apply the interaction immediately (bounded staleness;
    /// no merge). Default for strided partitions — high-cut families
    /// where deferring would serialise most interactions.
    Snapshot,
}

impl ReadMode {
    /// The mode each partition layout defaults to.
    pub fn default_for(kind: PartitionKind) -> Self {
        match kind {
            PartitionKind::Contiguous => ReadMode::Defer,
            PartitionKind::Strided => ReadMode::Snapshot,
        }
    }

    /// The mode's snapshot-aux encoding (`Defer` = 0, `Snapshot` = 1).
    pub fn aux_word(self) -> u64 {
        match self {
            ReadMode::Defer => 0,
            ReadMode::Snapshot => 1,
        }
    }

    /// Decodes [`aux_word`](Self::aux_word); `None` for unknown codes.
    pub fn from_aux_word(w: u64) -> Option<Self> {
        match w {
            0 => Some(ReadMode::Defer),
            1 => Some(ReadMode::Snapshot),
            _ => None,
        }
    }
}

/// One shard's state: the packed words of its members (in
/// [`Partition::local_index`] order) plus its pending boundary queue.
#[derive(Debug)]
struct Shard<W> {
    states: Vec<W>,
    queue: Vec<Deferred>,
}

// Manual impl: `W` need not be `Default` for an empty shard to exist
// (`std::mem::take` uses this as the hole left while a shard visits a
// worker thread).
impl<W> Default for Shard<W> {
    fn default() -> Self {
        Shard {
            states: Vec::new(),
            queue: Vec::new(),
        }
    }
}

/// A shard travelling between the caller and a worker thread, tagged
/// with its index.
type ShardSlot<W> = (usize, Shard<W>);

/// The graph-partitioned parallel simulator.
///
/// Same state encoding as [`TurboSimulator`](crate::TurboSimulator) —
/// counter-based randomness, packed `u32` protocol words in [`TurboWord`]
/// storage — but scheduling is decomposed per shard by an exact
/// multinomial count-split and shard blocks run in parallel, with
/// cross-shard reads resolved per [`ReadMode`] (see the module docs for
/// the exact contract). Statistical-tier engine: verified against the
/// bit-exact engines by the `pp-stats` equivalence harness
/// (`tests/sharded_equivalence.rs`).
///
/// # Examples
///
/// ```
/// use pp_engine::{Engine, PackedProtocol, ShardedSimulator};
/// use pp_graph::Cycle;
/// use rand::Rng;
///
/// #[derive(Debug)]
/// struct PackedVoter;
///
/// impl PackedProtocol for PackedVoter {
///     type State = u8;
///     fn pack(&self, s: &u8) -> u32 {
///         *s as u32
///     }
///     fn unpack(&self, p: u32) -> u8 {
///         p as u8
///     }
///     fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
///         observed[0]
///     }
///     fn name(&self) -> String {
///         "packed-voter".into()
///     }
/// }
///
/// let states: Vec<u8> = (0..64).collect();
/// let mut sim = ShardedSimulator::<_, _, u8>::new(PackedVoter, Cycle::new(64), &states, 7)
///     .with_layout(4, 32);
/// sim.run(10_000);
/// assert_eq!(sim.step_count(), 10_000);
/// ```
#[derive(Debug)]
pub struct ShardedSimulator<P: PackedProtocol, T: Topology, W: TurboWord = u32> {
    // Shared with the block tasks a call sends to pool workers; every task
    // drops its clones before it reports done, so the simulator holds the
    // only references between calls (a resize's `Arc::get_mut` relies on
    // that).
    protocol: Arc<P>,
    topology: Arc<T>,
    partition: Arc<Partition>,
    shards: Vec<Shard<W>>,
    step: u64,
    seed: u64,
    block: u64,
    read_mode: ReadMode,
    /// Block-start snapshot of the packed global state (`Snapshot` mode,
    /// multi-shard blocks only). Lives from the block's first segment to
    /// its boundary so mid-block pauses resume against the same copy.
    block_snap: Option<Arc<Vec<u32>>>,
    last_threads: usize,
    double_count_boundary: bool,
    split_off_by_one: bool,
}

/// Shard count `run` plans for by default: one per available core, but at
/// least `MIN_NODES_PER_SHARD` nodes per shard — below that the per-block
/// split and boundary overheads outweigh any parallel win.
fn auto_shards(n: usize) -> usize {
    const MIN_NODES_PER_SHARD: usize = 4096;
    pool::parallelism().min(n / MIN_NODES_PER_SHARD).max(1)
}

/// Default block length: short enough that the boundary-reordering (or
/// snapshot-staleness) window stays well under a parallel round, long
/// enough to amortise the per-block hand-off (one task and one reply per
/// worker) and boundary work.
fn auto_block(n: usize) -> u64 {
    (n as u64 / 16).clamp(256, 16384)
}

impl<P: PackedProtocol, T: Topology, W: TurboWord> ShardedSimulator<P, T, W> {
    /// Creates a simulator at time-step 0 with the topology's preferred
    /// partition layout, one shard per available core (capped so shards
    /// stay large enough to be worth a thread), the default block
    /// length, and the layout's default [`ReadMode`]. Override with
    /// [`with_layout`](Self::with_layout) /
    /// [`with_read_mode`](Self::with_read_mode).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`from_packed`](Self::from_packed).
    pub fn new(protocol: P, topology: T, initial_states: &[P::State], seed: u64) -> Self {
        let mut sim = Self::unfilled(protocol, topology, initial_states.len(), seed);
        let ShardedSimulator {
            protocol,
            partition,
            shards,
            ..
        } = &mut sim;
        scatter(partition, shards, initial_states, |s| {
            W::narrow(protocol.pack(s))
        });
        sim
    }

    /// Creates a simulator from already-packed (`u32`) states, narrowing
    /// them into `W` storage.
    ///
    /// # Panics
    ///
    /// Panics if the number of states does not match the topology size,
    /// the population is smaller than 2, `P::OBSERVATIONS` is 0 or above
    /// [`MAX_PACKED_OBSERVATIONS`], the topology exceeds `u32::MAX` nodes,
    /// or any packed state overflows the storage word `W`.
    pub fn from_packed(protocol: P, topology: T, states: Vec<u32>, seed: u64) -> Self {
        let mut sim = Self::unfilled(protocol, topology, states.len(), seed);
        sim.scatter_packed(&states);
        sim
    }

    /// The default-layout simulator for `n` agents with no shard arrays
    /// yet; both constructors fill them with [`scatter`].
    fn unfilled(protocol: P, topology: T, n: usize, seed: u64) -> Self {
        check_population::<P>(n, topology.len());
        let kind = topology.preferred_partition();
        ShardedSimulator {
            protocol: Arc::new(protocol),
            topology: Arc::new(topology),
            partition: Arc::new(Partition::new(n, auto_shards(n), kind)),
            shards: Vec::new(),
            step: 0,
            seed,
            block: auto_block(n),
            read_mode: ReadMode::default_for(kind),
            block_snap: None,
            last_threads: 1,
            double_count_boundary: false,
            split_off_by_one: false,
        }
    }

    /// Overrides the shard count and block length (in time-steps). The
    /// partition layout stays the topology's preferred kind; the
    /// trajectory is a function of both parameters (and the seed and
    /// read mode), so comparisons must fix them.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds the population, or if `block`
    /// is 0 or above `u32::MAX` (merge keys pack the granted index into
    /// 32 bits).
    pub fn with_layout(mut self, shards: usize, block: u64) -> Self {
        assert!(block > 0, "block length must be positive");
        assert!(
            block <= u32::MAX as u64,
            "block length {block} overflows merge keys"
        );
        assert_eq!(self.step, 0, "layout must be chosen before stepping");
        let states = self.states_packed();
        self.partition = Arc::new(Partition::new(
            self.partition.len(),
            shards,
            self.topology.preferred_partition(),
        ));
        self.block = block;
        self.scatter_packed(&states);
        self
    }

    /// Overrides the cross-shard [`ReadMode`] (the constructor picks the
    /// partition layout's default). Trajectory-relevant.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already stepped.
    pub fn with_read_mode(mut self, mode: ReadMode) -> Self {
        assert_eq!(self.step, 0, "read mode must be chosen before stepping");
        self.read_mode = mode;
        self
    }

    /// [`scatter`] of packed global states.
    fn scatter_packed(&mut self, states: &[u32]) {
        scatter(&self.partition, &mut self.shards, states, |&p| W::narrow(p));
    }

    /// Test-and-verification hook: when enabled, every boundary
    /// interaction is applied **twice** in the reconciliation merge — the
    /// canonical double-count bug of parallel simulators. Only observable
    /// in [`Defer`](ReadMode::Defer) mode (the merge is the code it
    /// corrupts). The statistical equivalence harness must reject a
    /// simulator with this flag set (`tests/sharded_equivalence.rs`
    /// demonstrates rejection at `p < 10⁻⁶`), which is the evidence that
    /// the harness would catch a real reconciliation bug.
    #[doc(hidden)]
    pub fn inject_boundary_double_count(&mut self, enabled: bool) {
        self.double_count_boundary = enabled;
    }

    /// Test-and-verification hook: when enabled, every block's count
    /// split moves one granted step from the highest-indexed non-empty
    /// shard to shard 0 — the canonical off-by-one of a work-splitting
    /// scheduler (totals still sum to the block, so step accounting
    /// cannot catch it). The statistical equivalence harness must reject
    /// a simulator with this flag set at `p < 10⁻⁶`
    /// (`tests/sharded_equivalence.rs`).
    #[doc(hidden)]
    pub fn inject_split_off_by_one(&mut self, enabled: bool) {
        self.split_off_by_one = enabled;
    }

    /// The node partition driving shard decomposition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Block length in time-steps (the count-split and boundary
    /// resolution both work in blocks).
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The cross-shard read mode in force (trajectory-relevant).
    pub fn read_mode(&self) -> ReadMode {
        self.read_mode
    }

    /// Threads used by the most recent `run` call (1 until the first run,
    /// or whenever the shared pool had no free workers).
    pub fn last_threads(&self) -> usize {
        self.last_threads
    }

    /// The population widened to packed `u32` form, in global agent
    /// order.
    pub fn states_packed(&self) -> Vec<u32> {
        gather(&self.partition, &self.shards)
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The interaction topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Applies the deferred cross-shard interactions queued so far in the
    /// current block (`Defer` mode), ahead of the boundary. A resize
    /// renumbers agents, so the queues, which hold global ids, must be
    /// merged before it; the merge order is the boundary merge's, so every
    /// granted step still executes exactly once.
    fn merge_pending(&mut self) {
        if self.shards.iter().any(|sh| !sh.queue.is_empty()) {
            reconcile(
                &*self.protocol,
                &self.partition,
                &mut self.shards,
                self.double_count_boundary,
            );
        }
    }

    /// Replaces the whole packed population (global order).
    ///
    /// At the same length this is [`Engine::set_state`] for every agent:
    /// the shards are rewritten in place, pending deferred interactions
    /// stay queued, and a live block snapshot (`Snapshot` mode, mid-block)
    /// is replaced by the new states. A new length first merges the
    /// pending queues, resizes the topology, and re-partitions with the
    /// same shard count (capped at the new size) and block length — the
    /// layout is part of the trajectory, so it never re-derives from the
    /// machine. The rest of that block runs on the new population's
    /// count-split, so the block grants within `shards − 1` steps of `B`.
    fn replace_packed(&mut self, states: Vec<u32>) {
        let n = states.len();
        if n != self.partition.len() {
            self.merge_pending();
            let topology = Arc::get_mut(&mut self.topology)
                .expect("block tasks release the topology before a call returns");
            fit_population::<P, T>(topology, n);
            self.partition = Arc::new(Partition::new(
                n,
                self.partition.shards().min(n),
                self.topology.preferred_partition(),
            ));
        }
        if let Some(snap) = self.block_snap.as_mut() {
            *snap = Arc::new(states.clone());
        }
        self.scatter_packed(&states);
    }

    /// A length-changing edit of the packed population: merges pending
    /// interactions before reading the states the edit starts from.
    fn resize_with(&mut self, edit: impl FnOnce(&mut Vec<u32>)) {
        self.merge_pending();
        let mut packed = self.states_packed();
        edit(&mut packed);
        self.replace_packed(packed);
    }
}

impl<P: PackedProtocol + 'static, T: Topology + 'static, W: TurboWord> ShardedSimulator<P, T, W> {
    /// [`Engine::run`] with an explicit thread count, bypassing the
    /// shared pool budget — for benchmarks and for tests of the
    /// thread-count-independence contract. Capped at the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_with_threads(&mut self, steps: u64, threads: usize) {
        assert!(threads >= 1, "need at least the calling thread");
        let threads = threads.min(self.partition.shards());
        self.last_threads = threads;
        let deadline = self.step + steps;
        let nshards = self.partition.shards();
        let (seed, block, read_mode) = (self.seed, self.block, self.read_mode);
        // Thread 0 is the caller; with one thread the crew is empty.
        let mut crew = pool::Crew::<Vec<ShardSlot<W>>>::check_out(threads - 1);
        while self.step < deadline {
            let index = self.step / block;
            let start = index * block;
            if self.step == start {
                pp_obs::obs_count!("sharded.split_blocks", 1);
                if read_mode == ReadMode::Snapshot && nshards > 1 {
                    // Remote reads of this block serve from its start.
                    pp_obs::obs_count!("sharded.snapshot_blocks", 1);
                    self.block_snap = Some(Arc::new(gather(&self.partition, &self.shards)));
                }
            }
            let seg = Arc::new(Segment {
                protocol: Arc::clone(&self.protocol),
                topology: Arc::clone(&self.topology),
                partition: Arc::clone(&self.partition),
                read_mode,
                seed,
                index,
                start,
                block,
                from: self.step,
                to: deadline.min(start + block),
                counts: split_counts(seed, index, &self.partition, block, self.split_off_by_one),
                snap: self.block_snap.clone(),
            });
            // Shards are dealt round-robin over threads. Hand remote
            // batches out first so workers start while the caller does
            // its own share.
            for k in 0..crew.workers() {
                let mut batch: Vec<ShardSlot<W>> = ((k + 1)..nshards)
                    .step_by(threads)
                    .map(|s| (s, std::mem::take(&mut self.shards[s])))
                    .collect();
                let seg = Arc::clone(&seg);
                crew.send(k, move || {
                    for (s, shard) in &mut batch {
                        process_segment(*s, shard, &seg);
                    }
                    batch
                });
            }
            for s in (0..nshards).step_by(threads) {
                process_segment(s, &mut self.shards[s], &seg);
            }
            for _ in 0..crew.workers() {
                for (s, shard) in crew.recv() {
                    self.shards[s] = shard;
                }
            }
            self.step = seg.to;
            if self.step == start + block {
                match read_mode {
                    ReadMode::Defer => reconcile(
                        &*self.protocol,
                        &self.partition,
                        &mut self.shards,
                        self.double_count_boundary,
                    ),
                    ReadMode::Snapshot => self.block_snap = None,
                }
            }
        }
    }
}

impl<P, T, W> Engine for ShardedSimulator<P, T, W>
where
    P: PackedProtocol + 'static,
    P::State: Send + Sync,
    T: Topology + 'static,
    W: TurboWord,
{
    type State = P::State;

    fn len(&self) -> usize {
        self.partition.len()
    }

    fn step_count(&self) -> u64 {
        self.step
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `steps` time-steps, taking worker threads from the shared
    /// [`pool`] budget (single-threaded inline when none are free — same
    /// trajectory either way).
    fn run(&mut self, steps: u64) {
        let want = self.partition.shards().min(pool::parallelism()) - 1;
        let lease = pool::lease(want);
        self.run_with_threads(steps, lease.workers() + 1);
    }

    fn class_counts(&self) -> Vec<u64> {
        tally_packed(self.shards.iter().map(|sh| sh.states.as_slice()))
    }

    fn visit_states(&self, f: &mut dyn FnMut(usize, &Self::State)) {
        for (u, p) in self.states_packed().into_iter().enumerate() {
            f(u, &self.protocol.unpack(p));
        }
    }

    fn state(&self, u: usize) -> Self::State {
        let w = self.shards[self.partition.shard_of(u)].states[self.partition.local_index(u)];
        self.protocol.unpack(w.widen())
    }

    /// Overwrites the state of agent `u`. Mid-block in `Snapshot` mode the
    /// live block snapshot is patched too, so remote readers of the rest
    /// of the block see the write.
    fn set_state(&mut self, u: usize, state: &Self::State) {
        let w = W::narrow(self.protocol.pack(state));
        self.shards[self.partition.shard_of(u)].states[self.partition.local_index(u)] = w;
        if let Some(snap) = self.block_snap.as_mut() {
            Arc::make_mut(snap)[u] = w.widen();
        }
    }

    fn set_states(&mut self, states: &[Self::State]) {
        let packed = states.iter().map(|s| self.protocol.pack(s)).collect();
        self.replace_packed(packed);
    }

    fn push_agent(&mut self, state: &Self::State) {
        let p = self.protocol.pack(state);
        self.resize_with(|packed| packed.push(p));
    }

    fn swap_remove_agent(&mut self, u: usize) {
        self.resize_with(|packed| {
            assert!(packed.len() > 2, "removal would leave fewer than 2 agents");
            packed.swap_remove(u);
        });
    }

    fn topology_name(&self) -> String {
        self.topology.name()
    }

    fn supports_resize(&self) -> bool {
        self.topology.resized(self.len()).is_some()
    }

    fn save_snapshot(&mut self) -> EngineSnapshot {
        // Drain to the next block boundary first. It is the tier's
        // quiescent point: the deferred queues are empty, no block
        // snapshot is live, and the next block's split counts and streams
        // derive from `(seed, block index)` alone, so `(states, clock,
        // seed, layout, read mode)` is the complete state there — and
        // only there.
        let into_block = self.step % self.block;
        if into_block != 0 {
            self.run(self.block - into_block);
        }
        EngineSnapshot {
            engine: "sharded".into(),
            protocol: self.protocol.name(),
            topology: self.topology.name(),
            n: self.len() as u64,
            clock: self.step,
            seed: self.seed,
            states: self.states_packed(),
            // The layout and read mode are part of the trajectory: a
            // restore on a machine with a different core count must not
            // re-derive them.
            aux: vec![
                self.partition.shards() as u64,
                self.block,
                self.read_mode.aux_word(),
            ],
        }
    }

    fn restore_snapshot(&mut self, snapshot: &EngineSnapshot) -> Result<(), SnapshotError> {
        snapshot.check_identity(
            "sharded",
            &self.protocol.name(),
            &self.topology.name(),
            self.len() as u64,
        )?;
        let [shards, block, mode_word]: [u64; 3] =
            snapshot.aux.as_slice().try_into().map_err(|_| {
                SnapshotError::BadPayload(format!(
                    "sharded tier aux must be [shards, block, read_mode], got {} words",
                    snapshot.aux.len()
                ))
            })?;
        if shards == 0 || shards > snapshot.n {
            return Err(SnapshotError::BadPayload(format!(
                "shard count {shards} out of range for {} agents",
                snapshot.n
            )));
        }
        if block == 0 || block > u32::MAX as u64 {
            return Err(SnapshotError::BadPayload(format!(
                "block length {block} out of range"
            )));
        }
        let read_mode = ReadMode::from_aux_word(mode_word).ok_or_else(|| {
            SnapshotError::BadPayload(format!(
                "unknown sharded read-mode code {mode_word} (expected 0 = defer, 1 = snapshot)"
            ))
        })?;
        if !snapshot.clock.is_multiple_of(block) {
            return Err(SnapshotError::BadPayload(format!(
                "clock {} is not on the {block}-step block grid; sharded \
                 snapshots are only taken at block boundaries",
                snapshot.clock
            )));
        }
        check_states_arity(snapshot, snapshot.n)?;
        check_states_width::<W>(snapshot)?;
        // A boundary snapshot: whatever this engine had pending mid-block
        // is discarded with the rest of its state. Nothing of the
        // count-split needs restoring; the next block's counts derive from
        // `(seed, block index)` alone.
        self.partition = Arc::new(Partition::new(
            snapshot.states.len(),
            shards as usize,
            self.topology.preferred_partition(),
        ));
        self.block = block;
        self.read_mode = read_mode;
        self.shards.clear();
        self.block_snap = None;
        self.scatter_packed(&snapshot.states);
        self.step = snapshot.clock;
        self.seed = snapshot.seed;
        Ok(())
    }
}

/// Draws the per-shard granted counts for one block: a conditional-
/// binomial chain over the shard sizes whose joint law is exactly the
/// multinomial `Multinomial(block; size_0/n, …)`. Consumes only the
/// dedicated [`SPLIT_STREAM`] — a single-shard partition consumes no
/// randomness at all (its count is the whole block with certainty).
fn split_counts(
    seed: u64,
    block_index: u64,
    partition: &Partition,
    block: u64,
    inject_off_by_one: bool,
) -> Vec<u64> {
    let nshards = partition.shards();
    let mut counts = vec![0u64; nshards];
    let mut rem_steps = block;
    let mut rem_nodes = partition.len() as u64;
    if nshards > 1 {
        let mut rng = CounterRng::for_shard(seed, SPLIT_STREAM, block_index);
        for (s, slot) in counts.iter_mut().enumerate().take(nshards - 1) {
            let size = partition.size(s) as u64;
            let c = rand::distr::binomial(&mut rng, rem_steps, size as f64 / rem_nodes as f64);
            *slot = c;
            rem_steps -= c;
            rem_nodes -= size;
        }
    }
    counts[nshards - 1] = rem_steps;
    if inject_off_by_one && nshards > 1 {
        // Injected bug (see `inject_split_off_by_one`): one step migrates
        // to shard 0; the sum — and therefore all step accounting — is
        // unchanged.
        if let Some(donor) = (1..nshards).rev().find(|&s| counts[s] > 0) {
            counts[donor] -= 1;
            counts[0] += 1;
        } else {
            // All mass already sits in shard 0 (so `counts[0] == block`).
            counts[0] -= 1;
            counts[1] += 1;
        }
    }
    counts
}

/// Narrows global-order states into the per-shard local arrays: the
/// inverse of [`gather`], one range (contiguous) or stride (strided) copy
/// per shard. The shards' pending queues stay: callers that change the
/// shard count merge them first.
fn scatter<S, W: TurboWord>(
    partition: &Partition,
    shards: &mut Vec<Shard<W>>,
    states: &[S],
    narrow: impl Fn(&S) -> W,
) {
    assert_eq!(states.len(), partition.len(), "one state per node");
    shards.resize_with(partition.shards(), Shard::default);
    for (s, shard) in shards.iter_mut().enumerate() {
        shard.states.clear();
        match partition.kind() {
            PartitionKind::Contiguous => {
                shard
                    .states
                    .extend(states[partition.range(s)].iter().map(&narrow));
            }
            PartitionKind::Strided => {
                let members = states[s..].iter().step_by(partition.shards());
                shard.states.extend(members.map(&narrow));
            }
        }
    }
}

/// Widens every shard's states back into one global packed array.
fn gather<W: TurboWord>(partition: &Partition, shards: &[Shard<W>]) -> Vec<u32> {
    let mut out = vec![0u32; partition.len()];
    // Place each shard once rather than mapping every element through
    // `Partition::global_index`: wherever this loop gets inlined, it must
    // not make a cross-crate call per agent.
    for (s, shard) in shards.iter().enumerate() {
        match partition.kind() {
            PartitionKind::Contiguous => {
                let start = partition.range(s).start;
                for (slot, w) in out[start..].iter_mut().zip(&shard.states) {
                    *slot = w.widen();
                }
            }
            PartitionKind::Strided => {
                let slots = out[s..].iter_mut().step_by(partition.shards());
                for (slot, w) in slots.zip(&shard.states) {
                    *slot = w.widen();
                }
            }
        }
    }
    out
}

/// One block segment — the sub-range `[from, to)` of block `index` — with
/// the model and constants shared by every shard that runs it.
struct Segment<P, T> {
    protocol: Arc<P>,
    topology: Arc<T>,
    partition: Arc<Partition>,
    read_mode: ReadMode,
    seed: u64,
    index: u64,
    /// The block's first time-step.
    start: u64,
    /// Full block length `B` (the segment may cover only part of it).
    block: u64,
    from: u64,
    to: u64,
    /// The block's granted counts, one per shard.
    counts: Vec<u64>,
    /// Block-start global state (`Snapshot` mode, multi-shard only).
    snap: Option<Arc<Vec<u32>>>,
}

/// Advances shard `s` over its granted share of the block sub-range
/// `[from, to)`: works out the granted window, positions the shard's
/// stream, runs the step kernel, and tallies the recorder counters.
fn process_segment<P: PackedProtocol, T: Topology, W: TurboWord>(
    s: usize,
    shard: &mut Shard<W>,
    seg: &Segment<P, T>,
) {
    let partition = &*seg.partition;
    let shards = partition.shards();
    // The granted sub-range: granted steps are spread evenly across the
    // block, so the sub-range [q0, q1) of block positions maps to the
    // closed-form index window below (u128: c·q can overflow u64). A
    // mid-block resume realigns the stream in O(1) — each granted step
    // consumes exactly 1 agent draw + m partner draws.
    let c = seg.counts[s];
    let q0 = seg.from - seg.start;
    let q1 = seg.to - seg.start;
    let j0 = ((c as u128 * q0 as u128) / seg.block as u128) as u64;
    let j1 = ((c as u128 * q1 as u128) / seg.block as u128) as u64;
    let mut stream = CounterRng::for_shard(seg.seed, s as u64, seg.index);
    stream.advance_by(j0 * (P::OBSERVATIONS as u64 + 1));

    // Monomorphize the kernel over the partition layout and read mode so
    // the per-partner ownership test and local-index map compile to two
    // compares (contiguous), one remainder (strided), or nothing at all
    // (single shard — the one-core fallback, which must stay within a
    // few percent of the turbo engine).
    type Kernel<P, T, W> = fn(
        &P,
        &T,
        Owner<'_>,
        &mut [W],
        &mut Vec<Deferred>,
        CounterRng,
        std::ops::Range<u64>,
    ) -> u64;
    let snapshot = shards > 1 && seg.read_mode == ReadMode::Snapshot;
    let kernel: Kernel<P, T, W> = match (shards == 1, partition.kind(), snapshot) {
        (true, _, _) => run_steps::<P, T, W, false, true, false>,
        (false, PartitionKind::Contiguous, false) => run_steps::<P, T, W, false, false, false>,
        (false, PartitionKind::Contiguous, true) => run_steps::<P, T, W, false, false, true>,
        (false, PartitionKind::Strided, false) => run_steps::<P, T, W, true, false, false>,
        (false, PartitionKind::Strided, true) => run_steps::<P, T, W, true, false, true>,
    };
    let (lo, hi) = match partition.kind() {
        PartitionKind::Contiguous => {
            let r = partition.range(s);
            (r.start, r.end)
        }
        PartitionKind::Strided => (0, 0),
    };
    let snap: &[u32] = match &seg.snap {
        Some(snap) => snap,
        None => {
            assert!(
                !snapshot,
                "snapshot read mode requires a block-start snapshot"
            );
            &[]
        }
    };
    let owner = Owner {
        shard: s,
        shards,
        lo,
        hi,
        snap,
    };
    // Recorder tallies without a branch on the recorder: deferred steps
    // are the queue's growth, and remote reads a plain add.
    let queued = shard.queue.len();
    let snap_reads = kernel(
        &*seg.protocol,
        &*seg.topology,
        owner,
        &mut shard.states,
        &mut shard.queue,
        stream,
        j0..j1,
    );
    if pp_obs::enabled() {
        let deferred = (shard.queue.len() - queued) as u64;
        pp_obs::counter_add("sharded.granted", j1 - j0);
        pp_obs::counter_add("sharded.local_applied", j1 - j0 - deferred);
        if snapshot {
            pp_obs::counter_add("sharded.snapshot_reads", snap_reads);
        }
        if shards > 1 && !snapshot {
            pp_obs::counter_add("sharded.deferred", deferred);
        }
        // Per-shard load: the granted-step distribution across segments
        // is the imbalance a bad split would show up in.
        pp_obs::record_value("sharded.segment_granted_steps", j1 - j0);
    }
}

/// Applies every queued boundary interaction of the just-finished block
/// (`Defer` mode) in merge-key order — the round-robin interleave of the
/// shard sub-sequences. Keys are unique across shards (one interaction
/// per shard per granted index), so the merged order — and therefore the
/// trajectory — is deterministic regardless of which thread ran which
/// shard.
fn reconcile<P: PackedProtocol, W: TurboWord>(
    protocol: &P,
    partition: &Partition,
    shards: &mut [Shard<W>],
    double_count: bool,
) {
    let m = P::OBSERVATIONS;
    let total: usize = shards.iter().map(|sh| sh.queue.len()).sum();
    pp_obs::obs_count!("sharded.reconcile_blocks", 1);
    pp_obs::obs_value!("sharded.merge_batch", total);
    if total == 0 {
        return;
    }
    pp_obs::obs_count!("sharded.merged", total);
    let mut merged: Vec<Deferred> = Vec::with_capacity(total);
    for sh in shards.iter_mut() {
        merged.append(&mut sh.queue);
    }
    merged.sort_unstable_by_key(|d| d.key);
    let read = |shards: &[Shard<W>], u: usize| -> u32 {
        shards[partition.shard_of(u)].states[partition.local_index(u)].widen()
    };
    for d in &merged {
        let mut observed = [0u32; MAX_PACKED_OBSERVATIONS];
        for (slot, &v) in observed.iter_mut().zip(&d.partners).take(m) {
            *slot = read(shards, v as usize);
        }
        let me = read(shards, d.agent as usize);
        let mut rng = CounterRng::from_state(d.entropy ^ GOLDEN);
        let mut next = protocol.transition_turbo(me, &observed[..m], d.entropy, &mut rng);
        if double_count {
            // Injected bug (see `inject_boundary_double_count`): the
            // interaction fires a second time.
            next = protocol.transition_turbo(next, &observed[..m], d.entropy, &mut rng);
        }
        let u = d.agent as usize;
        shards[partition.shard_of(u)].states[partition.local_index(u)] = W::narrow(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use pp_graph::{Complete, Cycle, Torus2d};
    use rand::Rng;

    /// Voter dynamics over raw u32 labels.
    #[derive(Debug, Clone)]
    struct Copy1;

    impl PackedProtocol for Copy1 {
        type State = u32;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            observed[0]
        }

        fn name(&self) -> String {
            "copy".into()
        }
    }

    /// Two-sample protocol exercising the m = 2 arm.
    #[derive(Debug, Clone)]
    struct MaxOfTwo;

    impl PackedProtocol for MaxOfTwo {
        type State = u32;

        const OBSERVATIONS: usize = 2;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            me.max(observed[0]).max(observed[1])
        }

        fn name(&self) -> String {
            "max2".into()
        }
    }

    fn sim(seed: u64, shards: usize, block: u64) -> ShardedSimulator<Copy1, Cycle, u32> {
        let init: Vec<u32> = (0..96).collect();
        ShardedSimulator::new(Copy1, Cycle::new(96), &init, seed).with_layout(shards, block)
    }

    fn strided_sim(seed: u64, shards: usize, block: u64) -> ShardedSimulator<Copy1, Complete, u32> {
        let init: Vec<u32> = (0..96).collect();
        ShardedSimulator::new(Copy1, Complete::new(96), &init, seed).with_layout(shards, block)
    }

    /// The class counts of a plain per-word loop.
    fn reference_tally(words: &[u32]) -> Vec<u64> {
        let mut counts = Vec::new();
        for &w in words {
            let i = w as usize;
            if i >= counts.len() {
                counts.resize(i + 1, 0);
            }
            counts[i] += 1;
        }
        counts
    }

    /// Scattering states into the shards and gathering them back returns
    /// the input, and the in-place shard tally equals the tally of the
    /// gathered states: for both layouts, uneven shard sizes (103 agents),
    /// every re-layout, mid-block (pending queues), and after a snapshot
    /// restore into an engine of another layout.
    #[test]
    fn shards_round_trip_and_tally_in_place() {
        fn check<T: Topology + Clone + 'static>(topology: T, kind: PartitionKind) {
            let n = topology.len() as u32;
            let init: Vec<u32> = (0..n).map(|u| (u * 37 + u / 5) % 251).collect();
            let built = ShardedSimulator::<_, _, u8>::new(Copy1, topology.clone(), &init, 5);
            assert_eq!(built.states_packed(), init);
            let mut s =
                ShardedSimulator::<_, _, u8>::from_packed(Copy1, topology.clone(), init.clone(), 5);
            assert_eq!(s.partition().kind(), kind);
            assert_eq!(s.states_packed(), init);
            assert_eq!(s.class_counts(), reference_tally(&init));
            for shards in [1, 3, 4, 7] {
                s = s.with_layout(shards, 64);
                assert_eq!(s.states_packed(), init, "{kind:?}, {shards} shards");
                assert_eq!(s.class_counts(), reference_tally(&init));
            }
            assert_ne!(s.partition().size(0), s.partition().size(6));
            s.run(50);
            let mid = s.states_packed();
            assert_eq!(
                s.class_counts(),
                reference_tally(&mid),
                "{kind:?} mid-block"
            );
            let snap = s.save_snapshot();
            let moved = s.states_packed();
            assert_eq!(s.class_counts(), reference_tally(&moved));
            let mut r = ShardedSimulator::<_, _, u8>::from_packed(Copy1, topology, init, 5)
                .with_layout(2, 32);
            r.restore_snapshot(&snap).expect("own snapshot restores");
            assert_eq!(r.partition().shards(), 7);
            assert_eq!(r.states_packed(), moved, "{kind:?} restored");
            assert_eq!(r.class_counts(), reference_tally(&moved));
        }
        check(Cycle::new(103), PartitionKind::Contiguous);
        check(Complete::new(103), PartitionKind::Strided);
    }

    #[test]
    fn split_counts_sum_to_block_and_cover_every_shard() {
        let s = sim(17, 4, 64);
        for block_index in 0..200 {
            let counts = split_counts(17, block_index, s.partition(), 64, false);
            assert_eq!(counts.len(), 4);
            assert_eq!(counts.iter().sum::<u64>(), 64, "block {block_index}");
        }
    }

    #[test]
    fn split_counts_marginal_matches_the_binomial_mean() {
        // Shard 0 of a 4-way split of 96 nodes holds 24, so its count is
        // Binomial(B, 1/4): check the empirical mean over many blocks
        // against a 6-sigma band (deterministic seeds — never flaky).
        let s = sim(23, 4, 256);
        let blocks = 4_000u64;
        let total: u64 = (0..blocks)
            .map(|b| split_counts(23, b, s.partition(), 256, false)[0])
            .sum();
        let mean = total as f64 / blocks as f64;
        let expect = 256.0 * 0.25;
        let sigma = (256.0 * 0.25 * 0.75 / blocks as f64).sqrt();
        assert!(
            (mean - expect).abs() < 6.0 * sigma,
            "shard-0 marginal mean {mean} vs binomial mean {expect}"
        );
    }

    #[test]
    fn split_off_by_one_injection_preserves_sums_but_moves_mass() {
        let s = sim(3, 4, 64);
        let mut moved = 0u64;
        for b in 0..100 {
            let clean = split_counts(3, b, s.partition(), 64, false);
            let bugged = split_counts(3, b, s.partition(), 64, true);
            assert_eq!(bugged.iter().sum::<u64>(), 64);
            assert_eq!(bugged[0], clean[0] + 1);
            moved += 1;
        }
        assert_eq!(moved, 100);
    }

    #[test]
    fn read_mode_defaults_follow_the_partition_layout() {
        assert_eq!(sim(0, 4, 32).read_mode(), ReadMode::Defer);
        assert_eq!(strided_sim(0, 4, 32).read_mode(), ReadMode::Snapshot);
        assert_eq!(
            strided_sim(0, 4, 32)
                .with_read_mode(ReadMode::Defer)
                .read_mode(),
            ReadMode::Defer
        );
    }

    #[test]
    fn deterministic_given_seed_and_split_runs_agree() {
        let mut a = sim(9, 4, 32);
        let mut b = sim(9, 4, 32);
        a.run(10_000);
        // Different burst splits, including mid-block pauses: identical
        // trajectory (pending queues and stream realignment carry over).
        b.run(37);
        b.run(63);
        b.run(4_900);
        b.run(5_000);
        assert_eq!(a.states_packed(), b.states_packed());
        assert_eq!(b.step_count(), 10_000);
        let mut c = sim(10, 4, 32);
        c.run(10_000);
        assert_ne!(a.states_packed(), c.states_packed());
    }

    #[test]
    fn snapshot_mode_split_runs_agree_mid_block() {
        // The same burst-split invariance on the snapshot-read path: the
        // block-start snapshot must survive mid-block pauses.
        let mut a = strided_sim(9, 4, 32);
        let mut b = strided_sim(9, 4, 32);
        assert_eq!(a.read_mode(), ReadMode::Snapshot);
        a.run(10_000);
        b.run(37);
        b.run(63);
        b.run(4_900);
        b.run(5_000);
        assert_eq!(a.states_packed(), b.states_packed());
    }

    #[test]
    fn trajectory_is_thread_count_independent() {
        let mut reference = sim(3, 8, 32);
        reference.run_with_threads(8_000, 1);
        for threads in [2usize, 3, 4, 8] {
            let mut parallel = sim(3, 8, 32);
            parallel.run_with_threads(8_000, threads);
            assert_eq!(
                parallel.states_packed(),
                reference.states_packed(),
                "{threads} threads diverged from sequential"
            );
            assert_eq!(parallel.last_threads(), threads.min(8));
        }
    }

    #[test]
    fn trajectory_is_thread_count_independent_in_snapshot_mode() {
        let mut reference = strided_sim(3, 8, 32);
        reference.run_with_threads(8_000, 1);
        for threads in [2usize, 4, 8] {
            let mut parallel = strided_sim(3, 8, 32);
            parallel.run_with_threads(8_000, threads);
            assert_eq!(
                parallel.states_packed(),
                reference.states_packed(),
                "{threads} threads diverged from sequential (snapshot mode)"
            );
        }
    }

    #[test]
    fn read_mode_is_trajectory_relevant() {
        let mut defer = strided_sim(7, 4, 32).with_read_mode(ReadMode::Defer);
        let mut snap = strided_sim(7, 4, 32).with_read_mode(ReadMode::Snapshot);
        defer.run(5_000);
        snap.run(5_000);
        // Equally valid trajectories of the same process, but different
        // resolutions of cross-shard reads.
        assert_ne!(defer.states_packed(), snap.states_packed());
    }

    #[test]
    fn layout_is_trajectory_relevant_but_both_converge() {
        // Different shard counts give different (equally valid)
        // trajectories of the same process.
        let mut a = sim(5, 2, 32);
        let mut b = sim(5, 4, 32);
        a.run(5_000);
        b.run(5_000);
        assert_eq!(a.step_count(), b.step_count());
    }

    #[test]
    fn u8_storage_matches_u32_storage_exactly() {
        let init: Vec<u32> = (0..64).map(|u| u % 200).collect();
        let mut wide = ShardedSimulator::<_, _, u32>::new(Copy1, Torus2d::new(8, 8), &init, 4)
            .with_layout(4, 16);
        let mut narrow = ShardedSimulator::<_, _, u8>::new(Copy1, Torus2d::new(8, 8), &init, 4)
            .with_layout(4, 16);
        for _ in 0..5 {
            wide.run(3_000);
            narrow.run(3_000);
            assert_eq!(wide.states_packed(), narrow.states_packed());
        }
    }

    #[test]
    fn voter_reaches_consensus_on_strided_complete() {
        // The complete graph partitions strided and defaults to snapshot
        // reads; consensus must still arrive through block-stale reads.
        let init: Vec<u32> = (0..32).collect();
        let mut sim = ShardedSimulator::<_, _, u32>::new(Copy1, Complete::new(32), &init, 5)
            .with_layout(4, 16);
        assert_eq!(
            sim.partition().kind(),
            pp_graph::PartitionKind::Strided,
            "complete graph should prefer striding"
        );
        assert_eq!(sim.read_mode(), ReadMode::Snapshot);
        let hit = sim.run_until(2_000_000, 64, &mut |counts, _| counts.contains(&32));
        assert!(hit.is_some(), "voter consensus not reached");
    }

    #[test]
    fn voter_reaches_consensus_on_strided_complete_with_deferred_reads() {
        // The merge path must stay correct when forced onto a high-cut
        // family.
        let init: Vec<u32> = (0..32).collect();
        let mut sim = ShardedSimulator::<_, _, u32>::new(Copy1, Complete::new(32), &init, 5)
            .with_layout(4, 16)
            .with_read_mode(ReadMode::Defer);
        let hit = sim.run_until(2_000_000, 64, &mut |counts, _| counts.contains(&32));
        assert!(hit.is_some(), "voter consensus not reached via the merge");
    }

    #[test]
    fn max_of_two_floods_the_torus() {
        let init: Vec<u32> = (0..48).collect();
        let mut sim = ShardedSimulator::<_, _, u32>::new(MaxOfTwo, Torus2d::new(6, 8), &init, 2)
            .with_layout(3, 16);
        let hit = sim.run_until(1_000_000, 48, &mut |counts, _| counts.get(47) == Some(&48));
        assert!(hit.is_some(), "maximum did not flood the torus");
    }

    #[test]
    fn exhausted_pool_never_oversubscribes() {
        // With the worker budget leased away, `run` must not push the
        // combined thread usage past the machine budget — the nested-use
        // guarantee (e.g. a sharded run inside `replicate`). Tokens are
        // conserved, so the bound holds no matter how sibling tests
        // interleave on the shared global pool; on a quiet pool the hog
        // takes everything and the run degrades to 1 thread.
        let hog = crate::pool::lease(usize::MAX);
        let mut s = sim(1, 4, 32);
        s.run(2_000);
        assert!(
            hog.workers() + s.last_threads() <= crate::pool::parallelism(),
            "hog {} + run {} threads exceed budget {}",
            hog.workers(),
            s.last_threads(),
            crate::pool::parallelism()
        );
        drop(hog);
        // Identical trajectory regardless of the degraded threading.
        let mut reference = sim(1, 4, 32);
        reference.run_with_threads(2_000, 1);
        assert_eq!(s.states_packed(), reference.states_packed());
    }

    /// Voter that panics when a marked agent is scheduled — drives the
    /// worker-panic path.
    #[derive(Debug, Clone)]
    struct PanicOn(u32);

    impl PackedProtocol for PanicOn {
        type State = u32;

        fn pack(&self, s: &u32) -> u32 {
            *s
        }

        fn unpack(&self, p: u32) -> u32 {
            p
        }

        fn transition<R: Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
            assert!(me != self.0, "marked agent scheduled");
            observed[0]
        }

        fn name(&self) -> String {
            "panic-on".into()
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // Agent 30 lives in shard 1 (96 nodes / 4 contiguous shards),
        // which two-thread dealing assigns to the pool worker; its panic
        // must surface to the caller rather than hanging the run.
        let init: Vec<u32> = (0..96).collect();
        let mut sim = ShardedSimulator::<_, _, u32>::new(PanicOn(30), Cycle::new(96), &init, 3)
            .with_layout(4, 32);
        sim.run_with_threads(100_000, 2);
    }

    #[test]
    fn sharded_inside_replicate_is_deterministic() {
        let runs = crate::replicate(0..4, |seed| {
            let mut s = sim(seed, 4, 32);
            s.run(3_000);
            (s.last_threads(), s.states_packed())
        });
        for (seed, (threads, states)) in runs.into_iter().enumerate() {
            assert!(threads <= crate::pool::parallelism());
            let mut reference = sim(seed as u64, 4, 32);
            reference.run_with_threads(3_000, 1);
            assert_eq!(states, reference.states_packed(), "seed {seed}");
        }
    }

    #[test]
    fn observer_and_accessors() {
        let init: Vec<u32> = vec![5, 6, 7, 8];
        let mut sim =
            ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(4), &init, 1).with_layout(2, 8);
        assert_eq!(sim.len(), 4);
        assert!(!sim.is_empty());
        assert_eq!(sim.seed(), 1);
        assert_eq!(sim.block(), 8);
        assert_eq!(sim.read_mode(), ReadMode::Defer);
        assert_eq!(sim.partition().shards(), 2);
        assert_eq!(sim.state(2), 7);
        sim.set_state(2, &9);
        assert_eq!(sim.states_packed(), vec![5, 6, 9, 8]);
        assert_eq!(sim.snapshot(), vec![5, 6, 9, 8]);
        assert_eq!(PackedProtocol::name(sim.protocol()), "copy");
        assert_eq!(sim.topology().len(), 4);
        let mut seen = Vec::new();
        sim.run_observed(10, 4, &mut |t, _| seen.push(t));
        assert_eq!(seen, vec![0, 4, 8, 10]);
        assert_eq!(sim.step_count(), 10);
    }

    #[test]
    fn set_state_mid_block_is_visible_to_snapshot_reads() {
        // Pause a snapshot-mode run mid-block, overwrite an agent, and
        // finish: the trajectory must equal a run whose live snapshot
        // carried the patch — exercised indirectly by checking the split
        // runs still agree when both apply the same mid-block write.
        let mut a = strided_sim(13, 4, 32);
        let mut b = strided_sim(13, 4, 32);
        a.run(16);
        b.run(7);
        b.run(9);
        a.set_state(5, &1000);
        b.set_state(5, &1000);
        a.run(16 + 3_200);
        b.run(16 + 3_200);
        assert_eq!(a.states_packed(), b.states_packed());
    }

    #[test]
    fn default_layout_scales_with_machine() {
        let init: Vec<u32> = (0..8192).collect();
        let sim = ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(8192), &init, 0);
        assert!(sim.partition().shards() >= 1);
        assert!(sim.partition().shards() <= crate::pool::parallelism().max(1));
        assert!(sim.block() >= 256);
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn rejects_size_mismatch() {
        ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(4), &[1u32, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "block length must be positive")]
    fn rejects_zero_block() {
        let init: Vec<u32> = (0..8).collect();
        let _ =
            ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(8), &init, 0).with_layout(2, 0);
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn rejects_more_shards_than_agents() {
        let init: Vec<u32> = (0..4).collect();
        let _ =
            ShardedSimulator::<_, _, u32>::new(Copy1, Cycle::new(4), &init, 0).with_layout(5, 8);
    }

    #[test]
    #[should_panic(expected = "overflows u8")]
    fn u8_storage_rejects_wide_states() {
        ShardedSimulator::<_, _, u8>::new(Copy1, Cycle::new(3), &[1u32, 300, 2], 0);
    }

    #[test]
    fn same_length_rewrite_keeps_the_deferred_queues() {
        // A no-op rewrite partway through a block must not drop the
        // block's deferred cross-shard interactions.
        let defer = || strided_sim(5, 4, 32).with_read_mode(ReadMode::Defer);
        let mut a = defer();
        a.run(32);
        let mut b = defer();
        b.run(16);
        let snapshot = b.snapshot();
        b.set_states(&snapshot);
        b.run(16);
        assert_eq!(a.states_packed(), b.states_packed());
    }

    #[test]
    fn set_states_equals_the_set_state_loop() {
        let rewrite: Vec<u32> = (0..96).map(|u| (u * 7) % 96).collect();
        for mode in [ReadMode::Defer, ReadMode::Snapshot] {
            let mut a = strided_sim(6, 4, 32).with_read_mode(mode);
            let mut b = strided_sim(6, 4, 32).with_read_mode(mode);
            a.run(16);
            b.run(16);
            a.set_states(&rewrite);
            for (u, s) in rewrite.iter().enumerate() {
                b.set_state(u, s);
            }
            a.run(16 + 640);
            b.run(16 + 640);
            assert_eq!(a.states_packed(), b.states_packed(), "{mode:?}");
        }
    }

    #[test]
    fn resize_keeps_the_layout() {
        let mut s = sim(1, 4, 32);
        s.push_agent(&7);
        assert_eq!((s.partition().shards(), s.block()), (4, 32));
        s.swap_remove_agent(0);
        assert_eq!((s.partition().shards(), s.block()), (4, 32));
        // Shrinking below the shard count caps it at the population.
        let init: Vec<u32> = (0..4).collect();
        let mut tiny = ShardedSimulator::<_, _, u32>::new(Copy1, Complete::new(4), &init, 1)
            .with_layout(4, 32);
        tiny.swap_remove_agent(0);
        assert_eq!((tiny.partition().shards(), tiny.block()), (3, 32));
        tiny.run(100);
    }

    #[test]
    fn resize_mid_block_in_snapshot_mode_refreshes_the_block_snapshot() {
        let mut s = strided_sim(8, 4, 32);
        s.run(16);
        s.push_agent(&1);
        s.run(1_000);
        assert_eq!(s.step_count(), 1_016);
        assert_eq!(s.partition().shards(), 4);
    }

    #[test]
    fn resize_across_the_default_shard_threshold_mid_block() {
        // 8191 agents sit below two default shards' worth of nodes and
        // 8192 do not: a resize must not re-derive the layout (a switch
        // from one shard to two mid-block found no block snapshot).
        let init: Vec<u32> = (0..8191).map(|u| u % 7).collect();
        let mut s = ShardedSimulator::<_, _, u32>::new(Copy1, Complete::new(8191), &init, 3);
        assert_eq!(s.read_mode(), ReadMode::Snapshot);
        let layout = (s.partition().shards(), s.block());
        s.run(100);
        s.push_agent(&1);
        s.run(1_000);
        assert_eq!((s.partition().shards(), s.block()), layout);
        assert_eq!(s.step_count(), 1_100);
    }
}
