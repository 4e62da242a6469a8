//! The `pp-snapshot-v1` file format: a self-contained, self-validating
//! serialization of one job's complete simulation state.
//!
//! A snapshot file carries everything a **fresh server process** needs to
//! continue the job: the original [`JobSpec`] (to rebuild the engine), the
//! tenant/job identity, whether the job's scheduled shock has already
//! fired, and the tier's [`EngineSnapshot`] (packed population, clock,
//! seed, and the tier-private resume words). Restoring it replays the
//! trajectory bit-exactly from `(seed, clock)` — the engine-level contract
//! gated by `tests/engine_snapshot.rs`.
//!
//! ## Precision: why `u64` fields are hex strings
//!
//! The result-JSON toolchain parses every number as `f64`, which is exact
//! only up to `2^53`. Seeds, clocks, and the aux words are full-range
//! `u64` (xoshiro state words in particular are uniform over `u64`), so
//! they are serialized as `"0x%016x"` strings and parsed back without a
//! float round-trip. Packed states are `u32` and ride as plain numbers.
//!
//! ## Fail-closed validation
//!
//! [`SnapshotFile::parse`] reads every field through the shared
//! [`Fields`] reader and rejects, in order: malformed JSON, **unknown
//! fields at any level** (same rule as result-JSON v1), a wrong
//! `schema_version`/`format`, field-level type/range violations, a spec
//! that fails [`JobSpec::from_doc`], an engine population other than the
//! one the spec implies (`spec.n`, or the size a fired resizing shock
//! leaves), and finally a [`checksum`] mismatch over the whole payload.
//! A truncated, bit-flipped, hand-edited or hand-crafted file is
//! therefore an error *before* any engine is built — the server's exit-2
//! path — never a panic or a silently diverging resume. What the checksum
//! cannot see (a stale-but-internally-consistent file) the engine's own
//! `restore_snapshot` identity checks still reject.

use crate::wire::{ident, JobSpec};
use pp_adversary::Shock;
use pp_bench::schema::{hex_word, parse, whole, Fields};
use pp_engine::EngineSnapshot;
use pp_obs::json::quote;
use rand::rngs::{splitmix64, GOLDEN};

/// The format tag every snapshot file carries.
pub const FORMAT: &str = "pp-snapshot-v1";

/// One job's complete serialized state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Owning tenant.
    pub tenant: String,
    /// Job name within the tenant.
    pub job: String,
    /// The job's original spec — the engine is rebuilt from this.
    pub spec: JobSpec,
    /// Whether the spec's scheduled shock already fired before the
    /// capture (a resumed job must not re-arm a fired shock).
    pub shock_applied: bool,
    /// The engine tier's versioned state capture.
    pub engine: EngineSnapshot,
}

fn mix(h: u64, word: u64) -> u64 {
    splitmix64((h ^ word).wrapping_add(GOLDEN))
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    h = mix(h, s.len() as u64);
    for b in s.as_bytes() {
        h = mix(h, *b as u64);
    }
    h
}

/// The integrity checksum over a snapshot's full payload: a SplitMix64
/// chain absorbing the identity strings, the shock flag, and every header
/// and payload word. Not cryptographic — it catches truncation, bit
/// flips, and hand edits, which is the corruption class the exit-2 gate
/// is for.
pub fn checksum(tenant: &str, job: &str, shock_applied: bool, snap: &EngineSnapshot) -> u64 {
    let mut h = 0x5EED_0F00D;
    h = mix_str(h, tenant);
    h = mix_str(h, job);
    h = mix(h, shock_applied as u64);
    h = mix_str(h, &snap.engine);
    h = mix_str(h, &snap.protocol);
    h = mix_str(h, &snap.topology);
    h = mix(h, snap.n);
    h = mix(h, snap.clock);
    h = mix(h, snap.seed);
    h = mix(h, snap.states.len() as u64);
    for &s in &snap.states {
        h = mix(h, s as u64);
    }
    h = mix(h, snap.aux.len() as u64);
    for &a in &snap.aux {
        h = mix(h, a);
    }
    h
}

fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

/// The population a capture of `spec` holds: `spec.n`, or the size its
/// resizing shock leaves once that shock has fired.
fn population(spec: &JobSpec, shock_applied: bool) -> u64 {
    let n = spec.n as u64;
    let fired = spec.shock.as_ref().filter(|_| shock_applied);
    let inst = fired.and_then(|sh| {
        Shock::enumerate(spec.n, spec.weights.len())
            .into_iter()
            .find(|s| s.label() == sh.kind)
    });
    match inst {
        Some(Shock::AddAgents { count, .. }) => n + count as u64,
        Some(Shock::RemoveAgents { count }) => n - count as u64,
        _ => n,
    }
}

impl SnapshotFile {
    /// Renders the snapshot as its `pp-snapshot-v1` JSON document
    /// (newline-terminated; parse/render round-trips bit-exactly).
    pub fn render(&self) -> String {
        let states: Vec<String> = self.engine.states.iter().map(|s| s.to_string()).collect();
        let aux: Vec<String> = self.engine.aux.iter().map(|a| quote(&hex(*a))).collect();
        format!(
            "{{\n  \"schema_version\": 1,\n  \"format\": {format},\n  \"tenant\": {tenant},\n  \
             \"job\": {job},\n  \"shock_applied\": {shock},\n  \"spec\": {spec},\n  \
             \"engine\": {{\"tier\": {tier}, \"protocol\": {protocol}, \"topology\": {topology}, \
             \"n\": {n}, \"clock\": {clock}, \"seed\": {seed},\n    \"states\": [{states}],\n    \
             \"aux\": [{aux}]}},\n  \"checksum\": {checksum}\n}}\n",
            format = quote(FORMAT),
            tenant = quote(&self.tenant),
            job = quote(&self.job),
            shock = self.shock_applied,
            spec = self.spec.to_json(),
            tier = quote(&self.engine.engine),
            protocol = quote(&self.engine.protocol),
            topology = quote(&self.engine.topology),
            n = self.engine.n,
            clock = quote(&hex(self.engine.clock)),
            seed = quote(&hex(self.engine.seed)),
            states = states.join(","),
            aux = aux.join(","),
            checksum = quote(&hex(checksum(
                &self.tenant,
                &self.job,
                self.shock_applied,
                &self.engine
            ))),
        )
    }

    /// Parses and fully validates a `pp-snapshot-v1` document (see the
    /// module docs for the rejection order). On success the returned
    /// snapshot is exactly what [`SnapshotFile::render`] wrote.
    pub fn parse(text: &str) -> Result<SnapshotFile, String> {
        let doc = parse(text).map_err(|e| format!("snapshot file: {e}"))?;
        let f = Fields::new(
            &doc,
            "snapshot file",
            &[
                "schema_version",
                "format",
                "tenant",
                "job",
                "shock_applied",
                "spec",
                "engine",
                "checksum",
            ],
        )?;
        f.read("format", FORMAT, |v| {
            (v.as_str() == Some(FORMAT)).then_some(())
        })?;
        let tenant = ident(&f, "tenant")?;
        let job = ident(&f, "job")?;
        let shock_applied = f.bool_or("shock_applied", None)?;
        let spec =
            JobSpec::from_doc(f.field("spec")?).map_err(|e| format!("snapshot spec: {e}"))?;

        let e = Fields::new(
            f.field("engine")?,
            "snapshot engine object",
            &[
                "tier", "protocol", "topology", "n", "clock", "seed", "states", "aux",
            ],
        )?;
        let n = population(&spec, shock_applied);
        let engine = EngineSnapshot {
            engine: e.str("tier")?.to_string(),
            protocol: e.str("protocol")?.to_string(),
            topology: e.str("topology")?.to_string(),
            n: e.uint_in("n", n, n)?,
            clock: e.hex("clock")?,
            seed: e.hex("seed")?,
            states: e.array("states", "a u32 number", |v| {
                whole(v).and_then(|x| u32::try_from(x).ok())
            })?,
            aux: e.array("aux", "a 0x-prefixed 16-digit hex string", hex_word)?,
        };

        let declared = f.hex("checksum")?;
        let actual = checksum(&tenant, &job, shock_applied, &engine);
        if declared != actual {
            return Err(format!(
                "snapshot checksum mismatch: file declares {}, payload hashes to {} \
                 (the file is corrupt or was edited)",
                hex(declared),
                hex(actual)
            ));
        }
        Ok(SnapshotFile {
            tenant,
            job,
            spec,
            shock_applied,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{InitKind, TopologySpec};
    use pp_bench::EngineKind;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            tenant: "alice".into(),
            job: "j1".into(),
            spec: JobSpec {
                weights: vec![1.0, 2.0],
                topology: TopologySpec::Cycle,
                n: 8,
                engine: EngineKind::Packed,
                seed: 42,
                steps: 1000,
                observe_every: 100,
                init: InitKind::Balanced,
                shock: None,
            },
            shock_applied: false,
            engine: EngineSnapshot {
                engine: "packed".into(),
                protocol: "diversification".into(),
                topology: "cycle".into(),
                n: 8,
                clock: 512,
                seed: 42,
                states: vec![0, 1, 2, 3, 0, 1, 2, 3],
                // Full-range u64s: the hex-string path must not lose bits.
                aux: vec![u64::MAX, 1, 0x8000_0000_0000_0001, 42],
            },
        }
    }

    #[test]
    fn render_parse_round_trips_bit_exactly() {
        let s = sample();
        let text = s.render();
        let back = SnapshotFile::parse(&text).unwrap();
        assert_eq!(s, back);
        assert!(text.contains("0xffffffffffffffff"), "aux rides as hex");
    }

    #[test]
    fn tampering_is_always_detected() {
        let text = sample().render();
        // Payload bit flip (a state value).
        let bad = text.replace("\"states\": [0,1,2", "\"states\": [0,1,3");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Identity edit.
        let bad = text.replace("\"tenant\": \"alice\"", "\"tenant\": \"mallory\"");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Shock-flag edit (would re-arm or skip a shock on resume).
        let bad = text.replace("\"shock_applied\": false", "\"shock_applied\": true");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Truncation at every suffix length must never parse successfully.
        // (Losing only the trailing newline leaves the document complete,
        // so truncate from the trimmed body.)
        let body = text.trim_end();
        for cut in 1..body.len().min(200) {
            let truncated = &body[..body.len() - cut];
            assert!(
                SnapshotFile::parse(truncated).is_err(),
                "accepted a file truncated by {cut} bytes"
            );
        }
        // Unknown fields are schema drift even with a plausible checksum.
        let bad = text.replace("\"schema_version\": 1,", "\"schema_version\": 1, \"v\": 2,");
        assert!(SnapshotFile::parse(&bad)
            .unwrap_err()
            .contains("unknown field"));
    }

    #[test]
    fn seed_above_2_53_survives_the_hex_path() {
        let mut s = sample();
        s.engine.seed = (1 << 53) + 1; // would round to 2^53 as an f64
        s.spec.seed = 7;
        let back = SnapshotFile::parse(&s.render()).unwrap();
        assert_eq!(back.engine.seed, (1 << 53) + 1);
        assert_eq!(back.engine.aux, s.engine.aux);
    }
}
