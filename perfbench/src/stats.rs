//! Order statistics, process memory, and the metric record every workload
//! fills in.

use rand::rngs::{splitmix64, GOLDEN};

/// A timed phase runs until its time is up *and* this many jobs are done,
/// so the p90 job latency has at least ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// Consecutive blocks a serial timed phase is split into (see [`Blocks`]).
pub const BLOCKS: usize = 15;

/// Blocks pooled for the figures: a third of them (see [`Pool`]).
pub const POOLED: usize = BLOCKS / 3;

/// A serial timed phase runs until its time is up *and* this many jobs are
/// done: at least 20 per block, so the [`POOLED`] blocks hold at least 100
/// jobs and their p90 has ten samples beyond it.
pub const MIN_BLOCK_JOBS: usize = BLOCKS * 20;

/// One finished job of a serial timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Seconds from the job's first call to its last.
    pub latency: f64,
    /// Steps the job simulated.
    pub steps: u64,
    /// Seconds from the phase's start to the job's end.
    pub end: f64,
}

/// Which third of a phase's blocks, ranked by wall clock, the figures are
/// taken from.
#[derive(Debug, Clone, Copy)]
pub enum Pool {
    /// The fastest third. For jobs that synchronise threads many times
    /// each: a burst of outside load lengthens the tail of every block it
    /// touches, and a slower program still slows the fastest blocks.
    Fastest,
    /// The middle third. For a rate that moves between levels for minutes
    /// at a time: the fastest third would read whichever level shows up in
    /// a third of the run, the middle third reads the prevailing one.
    Middle,
}

/// A serial timed phase's end-to-end figures. Its jobs are split in order
/// into [`BLOCKS`] blocks of (nearly) equal count, the blocks are ranked by
/// wall clock, a third of them is pooled (see [`Pool`]), and every figure
/// is taken over that pool. Outside load that comes in bursts of seconds
/// then moves a figure only if it slows more than a third (middle) or two
/// thirds (fastest) of the blocks. A whole-phase tail quantile picks it up
/// as soon as it covers a tenth of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Blocks {
    pub steps_per_s: f64,
    pub job_p50_s: f64,
    pub job_p90_s: f64,
    pub jobs_per_s: f64,
}

impl Blocks {
    pub fn of(jobs: &[Job], pool: Pool) -> Self {
        assert!(jobs.len() >= BLOCKS, "fewer jobs than blocks");
        let mut blocks: Vec<(f64, &[Job])> = Vec::with_capacity(BLOCKS);
        let mut since = 0.0;
        for b in 0..BLOCKS {
            let block = &jobs[b * jobs.len() / BLOCKS..(b + 1) * jobs.len() / BLOCKS];
            let until = block.last().expect("every block holds a job").end;
            blocks.push((until - since, block));
            since = until;
        }
        blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
        let pooled = match pool {
            Pool::Fastest => &blocks[..POOLED],
            Pool::Middle => &blocks[POOLED..2 * POOLED],
        };
        let wall: f64 = pooled.iter().map(|(wall, _)| wall).sum();
        let jobs: Vec<&Job> = pooled.iter().flat_map(|(_, block)| block.iter()).collect();
        let latencies: Vec<f64> = jobs.iter().map(|j| j.latency).collect();
        Blocks {
            steps_per_s: jobs.iter().map(|j| j.steps).sum::<u64>() as f64 / wall,
            job_p50_s: median(&latencies),
            job_p90_s: quantile(&latencies, 0.9),
            jobs_per_s: jobs.len() as f64 / wall,
        }
    }

    /// Reports the four figures as end-to-end metrics.
    pub fn report(&self, report: &mut Report) {
        report.e2e("steps_per_s", self.steps_per_s, "1/s");
        report.e2e("job_p50_s", self.job_p50_s, "s");
        report.e2e("job_p90_s", self.job_p90_s, "s");
        report.e2e("jobs_per_s", self.jobs_per_s, "1/s");
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: end-to-end metrics (always), per-layer
/// metrics (traced runs only), and the output-check tally.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub checks: crate::checks::Checks,
    /// Where the traced run wrote its span file.
    pub trace_file: Option<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `q·N` samples at or below it. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (nearest-rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: derives independent sub-seeds (job seeds, replica seeds)
/// from the run's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64((seed ^ salt.wrapping_mul(GOLDEN)).wrapping_add(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    /// A phase of 150 jobs of 1000 steps whose 15 blocks of ten take
    /// `latency(block)` seconds per job.
    fn phase(latency: impl Fn(usize) -> f64) -> Vec<Job> {
        let mut end = 0.0;
        (0..150)
            .map(|i| {
                let latency = latency(i / 10);
                end += latency;
                Job {
                    latency,
                    steps: 1000,
                    end,
                }
            })
            .collect()
    }

    #[test]
    fn fastest_pool_ignores_a_slow_majority() {
        // Ten of the fifteen blocks slowed from 10 to 50 ms: every figure
        // reads the fast level.
        let b = Blocks::of(&phase(|b| if b >= 5 { 0.05 } else { 0.01 }), Pool::Fastest);
        assert_eq!(b.job_p90_s, 0.01);
        assert_eq!(b.job_p50_s, 0.01);
        assert!((b.steps_per_s - 1e5).abs() < 1e-6);
        assert!((b.jobs_per_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn middle_pool_reads_the_prevailing_level() {
        // Blocks at 5, 10 and 50 ms per job, five of each, interleaved: the
        // middle third reads 10 ms.
        let levels = [0.005, 0.01, 0.05];
        let b = Blocks::of(&phase(|b| levels[b % 3]), Pool::Middle);
        assert_eq!(b.job_p90_s, 0.01);
        assert_eq!(b.job_p50_s, 0.01);
        assert!((b.steps_per_s - 1e5).abs() < 1e-6);
    }
}
