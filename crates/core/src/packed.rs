//! Packed `u32` encoding of the Diversification state, for the
//! monomorphized fast path of `pp_engine`.
//!
//! The agent state `(colour, shade)` packs into a single `u32` as
//! `colour << 1 | shade_bit` (dark = 1, matching
//! [`Shade::bit`](crate::Shade::bit)). Rule 1 of the protocol — light adopts an observed dark
//! state wholesale — then becomes a plain copy of the observed word, and
//! rule 2's colour comparison a single integer equality.
//!
//! [`PackedProtocol`] is implemented directly on [`Diversification`], so
//! the packed engine runs the *same protocol value* as the generic engine;
//! randomness is consumed identically (one `random_bool(1/w_i)` draw,
//! exactly when two dark agents of the same colour meet), which makes
//! shared-seed trajectories of the two engines equal bit for bit — see the
//! equivalence tests at the bottom of this module.

use crate::{AgentState, ConfigStats, Diversification};
use pp_engine::{PackedProtocol, TurboWord};
use rand::{Rng, RngExt};

/// Packs an agent state as `colour << 1 | shade_bit`.
///
/// # Examples
///
/// ```
/// use pp_core::{packed, AgentState, Colour};
///
/// let s = AgentState::dark(Colour::new(3));
/// assert_eq!(packed::pack_state(&s), 0b111);
/// assert_eq!(packed::unpack_state(0b111), s);
/// ```
///
/// # Panics
///
/// Panics if the colour index does not fit in 31 bits.
pub fn pack_state(state: &AgentState) -> u32 {
    let c = u32::try_from(state.colour.index()).expect("colour index fits in u32");
    assert!(c < (1 << 31), "colour index {c} too large to pack");
    (c << 1) | u32::from(state.shade.bit())
}

/// Inverse of [`pack_state`].
pub fn unpack_state(packed: u32) -> AgentState {
    let colour = crate::Colour::new((packed >> 1) as usize);
    if packed & 1 == 1 {
        AgentState::dark(colour)
    } else {
        AgentState::light(colour)
    }
}

/// Whether every Diversification state with `k` colours packs into a byte.
///
/// The largest packed word is `((k − 1) << 1) | 1`, which fits `u8` exactly
/// when `k ≤ 128`; the workspace advertises the round bound `k ≤ 127`,
/// comfortably inside it.
pub fn fits_u8(k: usize) -> bool {
    k >= 1 && ((k - 1) << 1 | 1) <= u8::MAX as usize
}

/// Packs an agent state into a byte, for the turbo engine's `u8` state
/// storage (quarter the footprint of the `u32` array; an `n = 10⁶`
/// population fits in under 1 MB).
///
/// Same encoding as [`pack_state`], narrowed: `colour << 1 | shade_bit`.
///
/// # Examples
///
/// ```
/// use pp_core::{packed, AgentState, Colour};
///
/// let s = AgentState::dark(Colour::new(3));
/// assert_eq!(packed::pack_state_u8(&s), 0b111);
/// assert_eq!(packed::unpack_state_u8(0b111), s);
/// ```
///
/// # Panics
///
/// Panics if the colour index is 128 or above (see [`fits_u8`]).
pub fn pack_state_u8(state: &AgentState) -> u8 {
    let wide = pack_state(state);
    u8::try_from(wide).unwrap_or_else(|_| {
        panic!(
            "colour {} does not fit u8 packing (k must be <= 127)",
            state.colour.index()
        )
    })
}

/// Inverse of [`pack_state_u8`].
pub fn unpack_state_u8(packed: u8) -> AgentState {
    unpack_state(packed as u32)
}

/// Tallies a turbo-engine state array (either word width) into
/// [`ConfigStats`], without unpacking.
///
/// # Panics
///
/// Panics if any packed colour index is `>= k`.
pub fn config_stats_from_words<W: pp_engine::TurboWord>(states: &[W], k: usize) -> ConfigStats {
    let mut dark = vec![0usize; k];
    let mut light = vec![0usize; k];
    for w in states {
        let p = w.widen();
        let i = (p >> 1) as usize;
        assert!(i < k, "packed colour {i} out of range for k = {k}");
        if p & 1 == 1 {
            dark[i] += 1;
        } else {
            light[i] += 1;
        }
    }
    ConfigStats::from_counts(dark, light)
}

/// Tallies a packed population into [`ConfigStats`], without unpacking.
///
/// # Panics
///
/// Panics if any packed colour index is `>= k`.
pub fn config_stats_from_packed(states: &[u32], k: usize) -> ConfigStats {
    config_stats_from_words(states, k)
}

/// Converts an [`Engine::class_counts`](pp_engine::Engine::class_counts)
/// tally — agents counted per packed word — into [`ConfigStats`].
///
/// The counts vector may be shorter than `2k` (trailing unoccupied words
/// are trimmed by the engines); missing classes count zero. This is the
/// observable every engine-generic experiment predicate goes through, so
/// it must stay `O(k)`.
///
/// # Panics
///
/// Panics if any occupied packed word encodes a colour `>= k`.
pub fn config_stats_from_class_counts(counts: &[u64], k: usize) -> ConfigStats {
    let mut dark = vec![0usize; k];
    let mut light = vec![0usize; k];
    for (w, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let i = w >> 1;
        assert!(i < k, "packed colour {i} out of range for k = {k}");
        if w & 1 == 1 {
            dark[i] += count as usize;
        } else {
            light[i] += count as usize;
        }
    }
    ConfigStats::from_counts(dark, light)
}

impl PackedProtocol for Diversification {
    type State = AgentState;

    fn pack(&self, state: &AgentState) -> u32 {
        pack_state(state)
    }

    fn unpack(&self, packed: u32) -> AgentState {
        unpack_state(packed)
    }

    #[inline]
    fn transition<R: Rng>(&self, me: u32, observed: &[u32], rng: &mut R) -> u32 {
        let v = observed[0];
        if me & 1 == 0 {
            // Rule 1: light adopts an observed dark state wholesale (a dark
            // packed word *is* `dark(colour)`); light–light is a no-op.
            if v & 1 == 1 {
                v
            } else {
                me
            }
        } else if v == me {
            // Rule 2: two dark agents of the same colour ⇒ soften w.p.
            // 1/w_i. Same single draw as the generic transition.
            if rng.random_bool(self.weights().inverse((me >> 1) as usize)) {
                me & !1
            } else {
                me
            }
        } else {
            // Rule 3: every other interaction is a no-op.
            me
        }
    }

    /// The turbo-path transition: same distribution as
    /// [`transition`](PackedProtocol::transition), compiled branch-free.
    ///
    /// The exact rule draws randomness only when two dark agents of the
    /// same colour meet, which makes the rule-2 branch data-dependent and
    /// unpredictable — and on the turbo batch path there is no serial RNG
    /// latency to hide the mispredict flush behind. Here all three rules
    /// collapse into mask arithmetic over the engine-supplied entropy
    /// word:
    ///
    /// * rules 1 and 3 reduce to an arithmetic select on
    ///   `(me light) & (v dark)`;
    /// * rule 2's soften becomes an integer compare of `aux`'s low 32
    ///   bits against the per-colour threshold `⌊2³²/w_i⌋` — a
    ///   `Bernoulli(1/w_i)` draw with bias below `2⁻³²`, far outside
    ///   what the statistical harness (or any feasible ensemble) can
    ///   resolve.
    #[inline]
    fn transition_turbo<R: Rng>(&self, me: u32, observed: &[u32], aux: u64, _rng: &mut R) -> u32 {
        let v = observed[0];
        let soften = (aux & 0xFFFF_FFFF) < self.weights().inverse_bits((me >> 1) as usize);
        // Rules 1/3: light adopts an observed dark word, else keeps.
        let adopt = ((me & 1) ^ 1) & (v & 1);
        let mask = adopt.wrapping_neg();
        let r1 = (v & mask) | (me & !mask);
        // Rule 2: a dark pair of one colour clears the shade bit w.p. 1/w_i.
        let s2 = (me & 1) & u32::from(v == me) & u32::from(soften);
        r1 & !s2
    }

    /// The ensemble-path transition: [`transition_turbo`]'s mask
    /// arithmetic applied to all `L` lanes at once, in the engine's
    /// storage width.
    ///
    /// Per lane this is *identical arithmetic* to `transition_turbo` —
    /// same threshold compare, same masks, every operation bitwise or an
    /// equality, so running it at `W = u8` instead of `u32` changes no
    /// result bit — and `L = 1` therefore stays bit-exact with the turbo
    /// engine. The per-colour threshold lookup (the one memory access,
    /// with its bounds-check panic path) runs in its own lane loop, so
    /// the mask arithmetic below it is a pure branch-free loop the
    /// compiler vectorizes — at `u8`, a register holds 32 replicas per
    /// instruction.
    ///
    /// [`transition_turbo`]: PackedProtocol::transition_turbo
    #[inline]
    fn transition_vec<W: TurboWord, const L: usize>(
        &self,
        me: &mut [W; L],
        observed: &[[W; L]],
        aux: &[u64; L],
    ) {
        let v = &observed[0];
        let mut soften = [W::ZERO; L];
        let tbl = self.weights().inverse_bits_table();
        assert!(!tbl.is_empty(), "weight tables are never empty");
        let last = tbl.len() - 1;
        for l in 0..L {
            let i = (me[l].widen() >> 1) as usize;
            debug_assert!(i <= last, "packed state {i} out of range");
            soften[l] = W::from_bool((aux[l] & 0xFFFF_FFFF) < tbl[i.min(last)]);
        }
        for l in 0..L {
            let m0 = me[l];
            let adopt = ((m0 & W::ONE) ^ W::ONE) & (v[l] & W::ONE);
            let mask = adopt.wrapping_neg();
            let r1 = (v[l] & mask) | (m0 & !mask);
            let s2 = (m0 & W::ONE) & W::from_bool(v[l] == m0) & soften[l];
            me[l] = r1 & !s2;
        }
    }

    /// The exact rule as data, rule by rule: rule 1 is a deterministic
    /// adopt, rule 2 a `{soften 1/wᵢ, keep 1 − 1/wᵢ}` split (collapsed to
    /// one entry at weight 1), rule 3 a deterministic no-op. This is what
    /// the `pp-check` explorer walks; the engines' `transition` variants
    /// are cross-checked against its support.
    fn outcomes(&self, me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        let v = observed[0];
        Some(if me & 1 == 0 {
            // Rule 1: light adopts an observed dark word; light–light no-op.
            vec![(if v & 1 == 1 { v } else { me }, 1.0)]
        } else if v == me {
            // Rule 2: a dark pair of one colour softens w.p. 1/wᵢ.
            let p = self.weights().inverse((me >> 1) as usize);
            if p >= 1.0 {
                vec![(me & !1, 1.0)]
            } else {
                vec![(me & !1, p), (me, 1.0 - p)]
            }
        } else {
            // Rule 3: everything else is a no-op.
            vec![(me, 1.0)]
        })
    }

    fn name(&self) -> String {
        "diversification".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Colour, Shade, Weights};
    use pp_engine::{Engine, PackedSimulator, Protocol, Simulator};
    use pp_graph::{Complete, Csr, Cycle, Hypercube, Star, Topology, Torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weights() -> Weights {
        Weights::new(vec![1.0, 1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn pack_roundtrip() {
        for i in 0..6 {
            for s in [Shade::Dark, Shade::Light] {
                let state = AgentState {
                    colour: Colour::new(i),
                    shade: s,
                };
                assert_eq!(unpack_state(pack_state(&state)), state);
            }
        }
    }

    #[test]
    fn packed_transition_matches_generic_case_by_case() {
        let p = Diversification::new(weights());
        let cases = [
            (
                AgentState::light(Colour::new(0)),
                AgentState::dark(Colour::new(2)),
            ),
            (
                AgentState::light(Colour::new(1)),
                AgentState::light(Colour::new(2)),
            ),
            (
                AgentState::dark(Colour::new(3)),
                AgentState::dark(Colour::new(3)),
            ),
            (
                AgentState::dark(Colour::new(3)),
                AgentState::dark(Colour::new(1)),
            ),
            (
                AgentState::dark(Colour::new(2)),
                AgentState::light(Colour::new(2)),
            ),
        ];
        for (me, v) in cases {
            // Identical RNG states ⇒ identical outcomes, including the
            // probabilistic rule-2 draw.
            let mut ra = StdRng::seed_from_u64(99);
            let mut rb = StdRng::seed_from_u64(99);
            for _ in 0..200 {
                let generic = Protocol::transition(&p, &me, &[&v], &mut ra);
                let packed =
                    PackedProtocol::transition(&p, pack_state(&me), &[pack_state(&v)], &mut rb);
                assert_eq!(pack_state(&generic), packed, "me={me}, v={v}");
            }
        }
    }

    #[test]
    fn u8_codec_roundtrips_through_k_127() {
        for i in 0..128 {
            for s in [Shade::Dark, Shade::Light] {
                let state = AgentState {
                    colour: Colour::new(i),
                    shade: s,
                };
                let byte = pack_state_u8(&state);
                assert_eq!(unpack_state_u8(byte), state);
                // The byte is the narrowed u32 word, bit for bit.
                assert_eq!(byte as u32, pack_state(&state));
            }
        }
        assert!(fits_u8(1));
        assert!(fits_u8(127));
        assert!(fits_u8(128));
        assert!(!fits_u8(129));
    }

    #[test]
    #[should_panic(expected = "does not fit u8")]
    fn u8_codec_rejects_colour_128() {
        pack_state_u8(&AgentState::dark(Colour::new(128)));
    }

    #[test]
    fn config_stats_from_words_matches_both_widths() {
        let w = weights();
        let states = init::all_dark_single_minority(100, &w);
        let wide: Vec<u32> = states.iter().map(pack_state).collect();
        let narrow: Vec<u8> = states.iter().map(pack_state_u8).collect();
        let expect = ConfigStats::from_states(&states, 4);
        assert_eq!(config_stats_from_words(&wide, 4), expect);
        assert_eq!(config_stats_from_words(&narrow, 4), expect);
    }

    /// The branchless turbo transition is deterministic-case identical to
    /// the exact rule and matches rule 2's soften probability empirically.
    #[test]
    fn turbo_transition_matches_exact_distribution() {
        let p = Diversification::new(weights());
        let mut rng = StdRng::seed_from_u64(17);
        // Deterministic cases: light/dark combinations where no randomness
        // may influence the outcome.
        let light0 = pack_state(&AgentState::light(Colour::new(0)));
        let dark2 = pack_state(&AgentState::dark(Colour::new(2)));
        let dark3 = pack_state(&AgentState::dark(Colour::new(3)));
        for _ in 0..100 {
            let aux = rng.next_u64();
            assert_eq!(
                PackedProtocol::transition_turbo(&p, light0, &[dark2], aux, &mut rng),
                dark2,
                "light must adopt observed dark"
            );
            assert_eq!(
                PackedProtocol::transition_turbo(&p, dark3, &[dark2], aux, &mut rng),
                dark3,
                "dark pair of different colours is a no-op"
            );
            assert_eq!(
                PackedProtocol::transition_turbo(&p, light0, &[light0], aux, &mut rng),
                light0,
                "light-light is a no-op"
            );
        }
        // Probabilistic case: dark pair of colour 3 (weight 4) softens
        // w.p. 1/4.
        let trials = 200_000;
        let softened = (0..trials)
            .filter(|_| {
                let aux = rng.next_u64();
                PackedProtocol::transition_turbo(&p, dark3, &[dark3], aux, &mut rng) == dark3 & !1
            })
            .count();
        let frac = softened as f64 / trials as f64;
        assert!(
            (frac - 0.25).abs() < 0.005,
            "soften frequency {frac} (expected 1/4)"
        );
    }

    /// The lane-parallel transition is, per lane, the same function as the
    /// turbo transition — checked exhaustively against `transition_turbo`
    /// on random lane mixes, plus the rule-2 soften frequency directly.
    #[test]
    fn vec_transition_matches_turbo_per_lane() {
        const L: usize = 8;
        let p = Diversification::new(weights());
        let mut rng = StdRng::seed_from_u64(23);
        let word = |r: &mut StdRng| {
            let colour = r.next_u64() as u32 % 4;
            let shade = r.next_u64() as u32 & 1;
            (colour << 1) | shade
        };
        for _ in 0..2_000 {
            let mut me = [0u32; L];
            let mut v = [0u32; L];
            let mut aux = [0u64; L];
            for l in 0..L {
                me[l] = word(&mut rng);
                v[l] = word(&mut rng);
                aux[l] = rng.next_u64();
            }
            let expected: Vec<u32> = (0..L)
                .map(|l| PackedProtocol::transition_turbo(&p, me[l], &[v[l]], aux[l], &mut rng))
                .collect();
            PackedProtocol::transition_vec(&p, &mut me, &[v], &aux);
            assert_eq!(me.to_vec(), expected);
        }
        // Probabilistic rule: a dark colour-3 pair (weight 4) softens in
        // each lane independently w.p. 1/4.
        let dark3 = pack_state(&AgentState::dark(Colour::new(3)));
        let trials = 25_000;
        let mut softened = [0u32; L];
        for _ in 0..trials {
            let mut me = [dark3; L];
            let v = [dark3; L];
            let mut aux = [0u64; L];
            for a in aux.iter_mut() {
                *a = rng.next_u64();
            }
            PackedProtocol::transition_vec(&p, &mut me, &[v], &aux);
            for l in 0..L {
                softened[l] += u32::from(me[l] == dark3 & !1);
            }
        }
        for (l, &s) in softened.iter().enumerate() {
            let frac = s as f64 / trials as f64;
            assert!(
                (frac - 0.25).abs() < 0.02,
                "lane {l} soften frequency {frac} (expected 1/4)"
            );
        }
    }

    /// `transition_vec` equals `transition_turbo` lane by lane at the
    /// soften threshold's edges: every packed `(me, v)` pair, aux low bits
    /// at `0`, `t − 1`, `t` and `2³² − 1` (with random high bits) for the
    /// threshold `t = ⌊2³²/wᵢ⌋` of `me`'s colour, including `t = 2³²`
    /// (`w = 1`, always softens) and `t = 0` (`w = 10¹²`, never softens),
    /// at both storage widths and `L = 1, 8, 32`.
    #[test]
    fn vec_transition_matches_turbo_at_threshold_boundaries() {
        fn check<W: TurboWord, const L: usize>(p: &Diversification, cases: &[(u32, u32, u64)]) {
            let mut rng = StdRng::seed_from_u64(L as u64);
            for chunk in cases.chunks(L) {
                let case = |l: usize| chunk[l % chunk.len()];
                let mut me: [W; L] = std::array::from_fn(|l| W::narrow(case(l).0));
                let v: [W; L] = std::array::from_fn(|l| W::narrow(case(l).1));
                let aux: [u64; L] = std::array::from_fn(|l| case(l).2);
                PackedProtocol::transition_vec(p, &mut me, &[v], &aux);
                for (l, got) in me.iter().enumerate() {
                    let (m, o, a) = case(l);
                    let want = PackedProtocol::transition_turbo(p, m, &[o], a, &mut rng);
                    assert_eq!(got.widen(), want, "me {m} v {o} aux {a:#x}, L = {L}");
                }
            }
        }
        let w = Weights::new(vec![1.0, 2.0, 4.0, 1e12]).unwrap();
        assert_eq!(w.inverse_bits(0), 1 << 32);
        assert_eq!(w.inverse_bits(3), 0);
        let p = Diversification::new(w.clone());
        let mut rng = StdRng::seed_from_u64(31);
        let mut cases = Vec::new();
        for me in 0..8u32 {
            let t = w.inverse_bits((me >> 1) as usize);
            let lows = [0, t.saturating_sub(1), t, u32::MAX as u64];
            for v in 0..8u32 {
                for &low in lows.iter().filter(|&&low| low <= u32::MAX as u64) {
                    cases.push((me, v, (rng.next_u64() << 32) | low));
                }
            }
        }
        // Dark pairs of one colour at `t − 1` soften and at `t` keep.
        let dark = |c: u32| (c << 1) | 1;
        let turbo = |me: u32, aux: u64| {
            PackedProtocol::transition_turbo(&p, me, &[me], aux, &mut StdRng::seed_from_u64(0))
        };
        assert_eq!(turbo(dark(0), u32::MAX as u64), dark(0) & !1);
        assert_eq!(turbo(dark(2), (1 << 30) - 1), dark(2) & !1);
        assert_eq!(turbo(dark(2), 1 << 30), dark(2));
        assert_eq!(turbo(dark(3), 0), dark(3));
        check::<u8, 1>(&p, &cases);
        check::<u8, 8>(&p, &cases);
        check::<u8, 32>(&p, &cases);
        check::<u32, 1>(&p, &cases);
        check::<u32, 8>(&p, &cases);
        check::<u32, 32>(&p, &cases);
    }

    #[test]
    fn config_stats_from_packed_matches_unpacked() {
        let w = weights();
        let states = init::all_dark_single_minority(100, &w);
        let packed: Vec<u32> = states.iter().map(pack_state).collect();
        assert_eq!(
            config_stats_from_packed(&packed, 4),
            ConfigStats::from_states(&states, 4)
        );
    }

    /// The tentpole guarantee: on every topology family, the packed fast
    /// path reproduces the generic engine's trajectory exactly under a
    /// shared seed.
    #[test]
    fn shared_seed_trajectories_match_generic_engine() {
        fn check<T: Topology + Clone>(topology: T, n: usize, seed: u64) {
            let w = weights();
            let states = init::all_dark_balanced(n, &w);
            let mut fast = PackedSimulator::new(
                Diversification::new(w.clone()),
                topology.clone(),
                &states,
                seed,
            );
            let mut reference = Simulator::new(Diversification::new(w), topology, states, seed);
            for _ in 0..10 {
                fast.run(2_000);
                reference.run(2_000);
                assert_eq!(
                    fast.snapshot(),
                    reference.population().states(),
                    "diverged on {} by step {}",
                    fast.topology().name(),
                    fast.step_count()
                );
            }
        }
        check(Complete::new(64), 64, 11);
        check(Cycle::new(64), 64, 12);
        check(Torus2d::new(8, 8), 64, 13);
        check(Hypercube::new(6), 64, 14);
        check(Star::new(64), 64, 15);
        check(
            Csr::from_topology(&Torus2d::new(8, 8)).with_name("torus-csr"),
            64,
            16,
        );
    }

    /// A `Box<dyn Topology>` reference simulator (the way `t10` used to
    /// run) over the *same* CSR also matches — the fast path removes the
    /// dispatch, not the dynamics. (Exact equality needs the same
    /// representation on both sides: an arithmetic `Cycle` and its CSR
    /// lowering agree in distribution but consume the RNG differently.)
    #[test]
    fn matches_boxed_dyn_reference() {
        let w = weights();
        let n = 100;
        let states = init::all_dark_balanced(n, &w);
        let csr = Csr::from_topology(&Cycle::new(n));
        let boxed: Box<dyn Topology> = Box::new(csr.clone());
        let mut fast = PackedSimulator::new(Diversification::new(w.clone()), csr, &states, 5);
        let mut reference = Simulator::new(Diversification::new(w), boxed, states, 5);
        fast.run(50_000);
        reference.run(50_000);
        assert_eq!(fast.snapshot(), reference.population().states());
    }
}
