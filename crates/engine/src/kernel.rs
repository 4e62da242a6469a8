//! The counter-RNG step kernel shared by the turbo and sharded tiers.
//!
//! In the paper's model each time-step is one interaction: a uniformly
//! scheduled agent reads uniformly random partner(s), and only that agent
//! changes state. Both counter-based tiers execute it over the same
//! randomness layout, a SplitMix64 Weyl walk ([`CounterRng`]) consumed in
//! a fixed order per step: one schedule word, then one word per partner,
//! with the transition's `aux` entropy taken from the last partner word.
//! [`run_steps`] is that loop, written once:
//!
//! - [`TurboSimulator`](crate::TurboSimulator) calls it over the whole
//!   population, with one stream positioned at `walk_base(seed) +
//!   step·(1 + m)·GOLDEN`;
//! - [`ShardedSimulator`](crate::ShardedSimulator) calls it over one
//!   shard's members per block segment, with the shard's own stream and
//!   compile-time flags selecting the ownership arithmetic and the
//!   cross-shard read policy.
//!
//! The ensemble tier's lane loop ([`VecSimulator`](crate::VecSimulator))
//! stays separate: it is lane-major and split into phases for the
//! autovectorizer, so folding it in would make this kernel branch on
//! which caller it serves.

use crate::packed::MAX_PACKED_OBSERVATIONS;
use crate::PackedProtocol;
use pp_graph::Topology;
use rand::rngs::{splitmix64, CounterRng, GOLDEN};
use std::ops::Range;

/// A state word the counter-based tiers can store their SoA arrays in.
///
/// [`PackedProtocol`] speaks `u32`; a `TurboWord` is the narrower storage
/// type the engine converts through on load/store. `u8` quarters the
/// state-array footprint when every reachable packed word fits a byte —
/// for Diversification's `colour << 1 | shade` encoding that is `k ≤ 127`
/// colours (see [`fits_in`](TurboWord::fits_in)).
///
/// The bitwise supertraits and mask helpers exist for
/// [`PackedProtocol::transition_vec`]
/// overrides, which run their mask arithmetic directly in the storage
/// width: at `W = u8` that packs 32 replica lanes into one 32-byte
/// vector register instead of four, and the engine's load/store loops
/// move rows verbatim with no widen/narrow pass.
pub trait TurboWord:
    Copy
    + Send
    + Sync
    + std::fmt::Debug
    + PartialEq
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
    + 'static
{
    /// Largest packed value this word can hold.
    const CAPACITY: u32;

    /// The all-zeros word.
    const ZERO: Self;

    /// The word holding packed value 1 (the shade/parity bit).
    const ONE: Self;

    /// Narrows a packed word for storage.
    ///
    /// # Panics
    ///
    /// Panics if `p` exceeds [`CAPACITY`](TurboWord::CAPACITY) — a protocol
    /// whose transition emits states outside the declared alphabet must not
    /// silently truncate them.
    fn narrow(p: u32) -> Self;

    /// Widens a stored word back to the packed form.
    fn widen(self) -> u32;

    /// Two's-complement negation: turns a 0/1 word into an all-zeros /
    /// all-ones select mask for branch-free transition arithmetic.
    fn wrapping_neg(self) -> Self;

    /// `1` if `b` else `0`, as a storage word.
    fn from_bool(b: bool) -> Self;

    /// Whether every packed word in `0..=max_packed` is storable.
    fn fits_in(max_packed: u32) -> bool {
        max_packed <= Self::CAPACITY
    }
}

impl TurboWord for u32 {
    const CAPACITY: u32 = u32::MAX;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn narrow(p: u32) -> Self {
        p
    }

    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }

    #[inline(always)]
    fn wrapping_neg(self) -> Self {
        u32::wrapping_neg(self)
    }

    #[inline(always)]
    fn from_bool(b: bool) -> Self {
        u32::from(b)
    }
}

impl TurboWord for u8 {
    const CAPACITY: u32 = u8::MAX as u32;
    const ZERO: Self = 0;
    const ONE: Self = 1;

    #[inline(always)]
    fn narrow(p: u32) -> Self {
        // Release builds must not silently truncate either: the check is
        // one perfectly-predicted compare against an immediate.
        assert!(p <= Self::CAPACITY, "packed word {p} overflows u8 storage");
        p as u8
    }

    #[inline(always)]
    fn widen(self) -> u32 {
        self as u32
    }

    #[inline(always)]
    fn wrapping_neg(self) -> Self {
        u8::wrapping_neg(self)
    }

    #[inline(always)]
    fn from_bool(b: bool) -> Self {
        u8::from(b)
    }
}

/// The start of a seed's Weyl walk. Hashed, so related seeds start
/// unrelated walks. Turbo and the ensemble tier must derive it the same
/// way: that is what keeps a one-lane vec run bit-exact against turbo.
pub(crate) fn walk_base(seed: u64) -> u64 {
    splitmix64(seed ^ 0xA076_1D64_78BD_642F)
}

/// A cross-shard interaction awaiting the block-boundary merge (the
/// sharded tier's `Defer` mode).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deferred {
    /// Merge order: `(granted index << 32) | shard` — the round-robin
    /// interleave of the shard sub-sequences. Unique: each shard has one
    /// interaction per granted index.
    pub key: u64,
    /// Scheduled agent (global id).
    pub agent: u32,
    /// Observed partners (global ids); first `OBSERVATIONS` entries used.
    pub partners: [u32; MAX_PACKED_OBSERVATIONS],
    /// The step's last partner word: transition `aux` entropy, and the
    /// parking spot of the step's fallback RNG stream.
    pub entropy: u64,
}

/// Which members one kernel call steps, and where it reads the rest.
/// The default owns everything (the `SINGLE` instance).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Owner<'a> {
    /// This shard's index.
    pub shard: usize,
    /// The shard count (strided ownership: `u % shards == shard`).
    pub shards: usize,
    /// Contiguous ownership: this shard's global id range `[lo, hi)`.
    pub lo: usize,
    /// End of the contiguous range.
    pub hi: usize,
    /// Block-start global state for remote reads (`SNAPSHOT` only).
    pub snap: &'a [u32],
}

/// Runs the granted steps `granted` over `states`, drawing every step's
/// words from `stream`, and returns the number of remote snapshot reads.
///
/// Per step: a multiply-shift schedule draw (bias `len/2⁶⁴`) picks the
/// acting member, one word per observation picks each partner
/// ([`Topology::sample_partner_turbo`]), and the transition's `aux`
/// entropy is the unconsumed low half of the last partner word, with the
/// fallback stream for protocols drawing beyond it parked one hash away.
/// No step's randomness depends on an earlier step's, so the CPU
/// pipelines future steps' index arithmetic while earlier state loads are
/// still in flight.
///
/// The const flags pick the ownership arithmetic and read policy at
/// compile time:
/// - `SINGLE`: `states` is the whole population and every check vanishes;
/// - `STRIDED`: member `j` is global `j·shards + shard`, else `lo + j`;
/// - `SNAPSHOT`: a remote partner is read from `owner.snap` and the step
///   applies at once; otherwise a step with a remote partner is pushed to
///   `queue` for the block-boundary merge, keyed by its granted index.
///
/// Taking the state slice, topology and protocol as disjoint arguments
/// lets the compiler keep the slice bounds and topology constants in
/// registers across the per-step stores (reloading them after every store
/// measured ~3× slower on the ring). An earlier turbo variant buffered
/// 1024 steps of resolved indices between an index pass and an apply
/// pass; the buffer traffic made it ~2× slower than this fused loop.
///
/// `inline(never)`: every caller passes a whole batch or block segment,
/// so the call costs nothing, and a standalone, entry-aligned symbol keeps
/// the loop's code layout independent of its caller — inlined into large
/// callers it was observed to land on slow-decode alignments (2–3×
/// step-rate swings between otherwise identical builds).
#[inline(never)]
pub(crate) fn run_steps<
    P: PackedProtocol,
    T: Topology,
    W: TurboWord,
    const STRIDED: bool,
    const SINGLE: bool,
    const SNAPSHOT: bool,
>(
    protocol: &P,
    topology: &T,
    owner: Owner<'_>,
    states: &mut [W],
    queue: &mut Vec<Deferred>,
    mut stream: CounterRng,
    granted: Range<u64>,
) -> u64 {
    let m = P::OBSERVATIONS;
    let Owner {
        shard,
        shards,
        lo,
        hi,
        snap,
    } = owner;
    let owns = |u: usize| {
        if SINGLE {
            true
        } else if STRIDED {
            u % shards == shard
        } else {
            u >= lo && u < hi
        }
    };
    let local_of = |u: usize| {
        if SINGLE {
            u
        } else if STRIDED {
            u / shards
        } else {
            u - lo
        }
    };
    let global_of = |j: usize| {
        if SINGLE {
            j
        } else if STRIDED {
            j * shards + shard
        } else {
            lo + j
        }
    };
    let size = states.len();
    let mut snap_reads = 0u64;
    for j in granted {
        let w = rand::Rng::next_u64(&mut stream);
        let lu = ((w as u128 * size as u128) >> 64) as usize;
        let u = global_of(lu);
        let mut partners = [0u32; MAX_PACKED_OBSERVATIONS];
        let mut observed = [0u32; MAX_PACKED_OBSERVATIONS];
        let mut last = 0u64;
        let mut local = true;
        for slot in 0..m {
            last = rand::Rng::next_u64(&mut stream);
            let v = topology.sample_partner_turbo(u, last);
            if SINGLE {
                observed[slot] = states[v].widen();
            } else if SNAPSHOT {
                let remote = !owns(v);
                snap_reads += remote as u64;
                observed[slot] = if remote {
                    snap[v]
                } else {
                    states[local_of(v)].widen()
                };
            } else {
                partners[slot] = v as u32;
                if owns(v) {
                    observed[slot] = states[local_of(v)].widen();
                } else {
                    local = false;
                }
            }
        }
        if SINGLE || SNAPSHOT || local {
            let me = states[lu].widen();
            let mut rng = CounterRng::from_state(last ^ GOLDEN);
            let next = protocol.transition_turbo(me, &observed[..m], last, &mut rng);
            states[lu] = W::narrow(next);
        } else {
            queue.push(Deferred {
                key: (j << 32) | shard as u64,
                agent: u as u32,
                partners,
                entropy: last,
            });
        }
    }
    snap_reads
}
