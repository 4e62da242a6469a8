//! Consensus dynamics: Voter, 2-Choices, 3-Majority, Anti-Voter.
//!
//! Each protocol also implements [`PackedProtocol`] (packing a [`Colour`]
//! as its raw index), so the baselines run on `pp_engine`'s monomorphized
//! fast path with trajectories identical to the generic engine under a
//! shared seed.

use pp_core::Colour;
use pp_engine::{PackedProtocol, Protocol};
use rand::{Rng, RngExt};

/// The Voter model: the scheduled agent adopts the observed colour.
///
/// The simplest consensus protocol; every colour but one eventually vanishes
/// (in `Θ(n²)` expected steps on the complete graph for constant k), which
/// is exactly the failure mode Diversification is designed to avoid.
///
/// # Examples
///
/// ```
/// use pp_baselines::Voter;
/// use pp_core::Colour;
/// use pp_engine::Protocol;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let me = Colour::new(0);
/// let seen = Colour::new(3);
/// assert_eq!(Protocol::transition(&Voter, &me, &[&seen], &mut rng), seen);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Voter;

impl Protocol for Voter {
    type State = Colour;

    fn transition(&self, _me: &Colour, observed: &[&Colour], _rng: &mut dyn Rng) -> Colour {
        *observed[0]
    }

    fn name(&self) -> String {
        "voter".to_string()
    }
}

impl PackedProtocol for Voter {
    type State = Colour;

    fn pack(&self, s: &Colour) -> u32 {
        s.index() as u32
    }

    fn unpack(&self, p: u32) -> Colour {
        Colour::new(p as usize)
    }

    #[inline]
    fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
        observed[0]
    }

    fn outcomes(&self, _me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        Some(vec![(observed[0], 1.0)])
    }

    fn name(&self) -> String {
        Protocol::name(self)
    }
}

/// The 2-Choices dynamics: sample two agents; adopt their colour only if
/// they agree.
///
/// A drift-amplifying consensus protocol: majorities grow quadratically
/// faster than under Voter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoChoices;

impl Protocol for TwoChoices {
    type State = Colour;

    fn observations(&self) -> usize {
        2
    }

    fn transition(&self, me: &Colour, observed: &[&Colour], _rng: &mut dyn Rng) -> Colour {
        if observed[0] == observed[1] {
            *observed[0]
        } else {
            *me
        }
    }

    fn name(&self) -> String {
        "2-choices".to_string()
    }
}

impl PackedProtocol for TwoChoices {
    type State = Colour;

    const OBSERVATIONS: usize = 2;

    fn pack(&self, s: &Colour) -> u32 {
        s.index() as u32
    }

    fn unpack(&self, p: u32) -> Colour {
        Colour::new(p as usize)
    }

    #[inline]
    fn transition<R: Rng>(&self, me: u32, observed: &[u32], _rng: &mut R) -> u32 {
        if observed[0] == observed[1] {
            observed[0]
        } else {
            me
        }
    }

    fn outcomes(&self, me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        let next = if observed[0] == observed[1] {
            observed[0]
        } else {
            me
        };
        Some(vec![(next, 1.0)])
    }

    fn name(&self) -> String {
        Protocol::name(self)
    }
}

/// The 3-Majority dynamics: among `{self, sample₁, sample₂}`, adopt the
/// majority colour; if all three differ, adopt one of them uniformly at
/// random.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreeMajority;

impl Protocol for ThreeMajority {
    type State = Colour;

    fn observations(&self) -> usize {
        2
    }

    fn transition(&self, me: &Colour, observed: &[&Colour], rng: &mut dyn Rng) -> Colour {
        let (a, b) = (*observed[0], *observed[1]);
        if a == b {
            return a;
        }
        if a == *me || b == *me {
            return *me;
        }
        // All three distinct: uniform choice among them.
        match rng.random_range(0..3) {
            0 => *me,
            1 => a,
            _ => b,
        }
    }

    fn name(&self) -> String {
        "3-majority".to_string()
    }
}

impl PackedProtocol for ThreeMajority {
    type State = Colour;

    const OBSERVATIONS: usize = 2;

    fn pack(&self, s: &Colour) -> u32 {
        s.index() as u32
    }

    fn unpack(&self, p: u32) -> Colour {
        Colour::new(p as usize)
    }

    #[inline]
    fn transition<R: Rng>(&self, me: u32, observed: &[u32], rng: &mut R) -> u32 {
        let (a, b) = (observed[0], observed[1]);
        if a == b {
            return a;
        }
        if a == me || b == me {
            return me;
        }
        // Same tiebreak draw as the generic rule.
        match rng.random_range(0..3) {
            0 => me,
            1 => a,
            _ => b,
        }
    }

    /// Turbo tiebreak from the engine-supplied entropy word: a
    /// multiply-shift three-way draw (bias `3/2³²`) instead of a Lemire
    /// `random_range(0..3)`, so the batch pass never hits a rejection
    /// loop. Distributionally identical to within the stated bias.
    #[inline]
    fn transition_turbo<R: Rng>(&self, me: u32, observed: &[u32], aux: u64, _rng: &mut R) -> u32 {
        let (a, b) = (observed[0], observed[1]);
        if a == b {
            return a;
        }
        if a == me || b == me {
            return me;
        }
        match ((aux & 0xFFFF_FFFF) * 3) >> 32 {
            0 => me,
            1 => a,
            _ => b,
        }
    }

    fn outcomes(&self, me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        let (a, b) = (observed[0], observed[1]);
        Some(if a == b {
            vec![(a, 1.0)]
        } else if a == me || b == me {
            vec![(me, 1.0)]
        } else {
            // All three distinct: the uniform tiebreak.
            let third = 1.0 / 3.0;
            vec![(me, third), (a, third), (b, third)]
        })
    }

    fn name(&self) -> String {
        Protocol::name(self)
    }
}

/// The Anti-Voter model on two colours: adopt the **opposite** of the
/// observed colour.
///
/// The classical protocol closest in spirit to Diversification: it keeps
/// both colours alive forever and converges to a half/half equilibrium, but
/// only works for `k = 2` and cannot encode weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AntiVoter;

impl AntiVoter {
    /// The opposite of a binary colour.
    ///
    /// # Panics
    ///
    /// Panics if the colour index is not 0 or 1.
    pub fn opposite(colour: Colour) -> Colour {
        match colour.index() {
            0 => Colour::new(1),
            1 => Colour::new(0),
            i => panic!("anti-voter is a two-colour protocol, got colour {i}"),
        }
    }
}

impl Protocol for AntiVoter {
    type State = Colour;

    fn transition(&self, _me: &Colour, observed: &[&Colour], _rng: &mut dyn Rng) -> Colour {
        Self::opposite(*observed[0])
    }

    fn name(&self) -> String {
        "anti-voter".to_string()
    }
}

impl PackedProtocol for AntiVoter {
    type State = Colour;

    fn pack(&self, s: &Colour) -> u32 {
        s.index() as u32
    }

    fn unpack(&self, p: u32) -> Colour {
        Colour::new(p as usize)
    }

    #[inline]
    fn transition<R: Rng>(&self, _me: u32, observed: &[u32], _rng: &mut R) -> u32 {
        match observed[0] {
            0 => 1,
            1 => 0,
            i => panic!("anti-voter is a two-colour protocol, got colour {i}"),
        }
    }

    fn outcomes(&self, _me: u32, observed: &[u32]) -> Option<Vec<(u32, f64)>> {
        match observed[0] {
            0 => Some(vec![(1, 1.0)]),
            1 => Some(vec![(0, 1.0)]),
            i => panic!("anti-voter is a two-colour protocol, got colour {i}"),
        }
    }

    fn name(&self) -> String {
        Protocol::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{Engine, PackedSimulator, Simulator};
    use pp_graph::{Complete, Torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn colours(n: usize, k: usize) -> Vec<Colour> {
        (0..n).map(|u| Colour::new(u % k)).collect()
    }

    #[test]
    fn voter_reaches_consensus() {
        let n = 64;
        let mut sim = Simulator::new(Voter, Complete::new(n), colours(n, 4), 3);
        let hit = sim.run_until(2_000_000, 64, |pop, _| {
            let first = pop[0];
            pop.count_matching(|&c| c == first) == pop.len()
        });
        assert!(hit.is_some(), "voter failed to reach consensus");
    }

    #[test]
    fn two_choices_needs_agreement() {
        let me = Colour::new(0);
        let (a, b) = (Colour::new(1), Colour::new(2));
        assert_eq!(
            Protocol::transition(&TwoChoices, &me, &[&a, &b], &mut rng()),
            me
        );
        assert_eq!(
            Protocol::transition(&TwoChoices, &me, &[&a, &a], &mut rng()),
            a
        );
        assert_eq!(TwoChoices.observations(), 2);
    }

    #[test]
    fn three_majority_rules() {
        let me = Colour::new(0);
        let (a, b) = (Colour::new(1), Colour::new(1));
        // Pair majority among samples.
        assert_eq!(
            Protocol::transition(&ThreeMajority, &me, &[&a, &b], &mut rng()),
            a
        );
        // Self + one sample majority.
        let same = Colour::new(0);
        assert_eq!(
            Protocol::transition(&ThreeMajority, &me, &[&same, &Colour::new(2)], &mut rng()),
            me
        );
        // All distinct: result is one of the three.
        let mut r = rng();
        for _ in 0..50 {
            let out = Protocol::transition(
                &ThreeMajority,
                &me,
                &[&Colour::new(1), &Colour::new(2)],
                &mut r,
            );
            assert!(out.index() <= 2);
        }
    }

    #[test]
    fn three_majority_uniform_tiebreak() {
        let me = Colour::new(0);
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let out = Protocol::transition(
                &ThreeMajority,
                &me,
                &[&Colour::new(1), &Colour::new(2)],
                &mut r,
            );
            counts[out.index()] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "{frac}");
        }
    }

    #[test]
    fn two_choices_reaches_consensus_fast() {
        let n = 128;
        let mut sim = Simulator::new(TwoChoices, Complete::new(n), colours(n, 2), 11);
        let hit = sim.run_until(500_000, 128, |pop, _| {
            let first = pop[0];
            pop.count_matching(|&c| c == first) == pop.len()
        });
        assert!(hit.is_some());
    }

    #[test]
    fn anti_voter_flips() {
        assert_eq!(AntiVoter::opposite(Colour::new(0)), Colour::new(1));
        assert_eq!(AntiVoter::opposite(Colour::new(1)), Colour::new(0));
        let mut r = rng();
        assert_eq!(
            Protocol::transition(&AntiVoter, &Colour::new(0), &[&Colour::new(0)], &mut r),
            Colour::new(1)
        );
    }

    #[test]
    fn anti_voter_keeps_both_colours() {
        let n = 50;
        let mut sim = Simulator::new(AntiVoter, Complete::new(n), colours(n, 2), 5);
        for _ in 0..40 {
            sim.run(500);
            let ones = sim.population().count_matching(|&c| c == Colour::new(1));
            assert!(ones > 0 && ones < n, "anti-voter hit consensus: {ones}");
        }
    }

    #[test]
    #[should_panic(expected = "two-colour")]
    fn anti_voter_rejects_third_colour() {
        AntiVoter::opposite(Colour::new(2));
    }

    /// Every packed baseline reproduces its generic trajectory exactly
    /// under a shared seed — including 3-Majority's probabilistic tiebreak
    /// (m = 2 with a conditional third draw).
    #[test]
    fn packed_baselines_match_generic_trajectories() {
        fn check<P>(protocol: P, k: usize, seed: u64)
        where
            P: Protocol<State = Colour> + PackedProtocol<State = Colour> + Clone,
        {
            let n = 64;
            let init = colours(n, k);
            let topology = Torus2d::new(8, 8);
            let mut fast = PackedSimulator::new(protocol.clone(), topology, &init, seed);
            let mut reference = Simulator::new(protocol, topology, init, seed);
            fast.run(20_000);
            reference.run(20_000);
            assert_eq!(fast.snapshot(), reference.population().states());
        }
        check(Voter, 4, 21);
        check(TwoChoices, 4, 22);
        check(ThreeMajority, 4, 23);
        check(AntiVoter, 2, 24);
    }
}
