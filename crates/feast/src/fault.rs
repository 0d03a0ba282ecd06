//! Deterministic fault injection for the experiment engine.
//!
//! A [`FaultPlan`] decides — purely from a seed and a fault's coordinates
//! `(site, system size, replication, attempt)` — whether a named fault
//! site fires. Decisions are derived through the same SplitMix64 seed
//! streams as the workload generator ([`stream_seed`] / [`sub_stream`]),
//! so a plan is addressable exactly like the replications it perturbs:
//! any shard, resume or thread interleaving sees the same faults at the
//! same cells, which is what makes fault runs diffable against fault-free
//! runs.
//!
//! The plan type is always compiled (it is plain data and costs nothing
//! unless consulted), but the engine only consults it when the
//! `fault-inject` cargo feature is enabled: release builds compile the
//! hooks down to constant `false` and pay zero cost.
//!
//! # Sites
//!
//! | site | where it fires | recovery path |
//! |------|----------------|---------------|
//! | `checkpoint-io` | every checkpoint append attempt | bounded retry with exponential backoff |
//! | `checkpoint-corrupt` | a checkpoint line is written corrupted | per-record CRC32 detects it on resume |
//! | `worker-panic` | a replication panics mid-pipeline | caught and degraded to a typed failed outcome |
//! | `generate-reject` | a workload draw is (virtually) rejected | bounded retry; then a typed failed outcome |
//! | `cancel-race` | cancellation races a completed replication | checkpoint survives; resume completes the sweep |
//! | `admit-log-io` | an admission WAL append attempt fails | bounded retry with exponential backoff |
//! | `admit-log-corrupt` | an admission WAL line is written corrupted | per-record CRC32 detects it on recovery |
//! | `admit-worker-panic` | a slicer worker panics mid-request | caught; a typed `WorkerFailed` verdict, worker respawns |
//! | `admit-queue-race` | a worker delivers its product twice | the coordinator drops the duplicate by sequence |
//!
//! The `attempts` knob of a [`FaultSpec`] bounds how many *consecutive
//! attempts* at a faulted cell fail, which distinguishes transient faults
//! (the retry policy recovers, results are bit-identical to a fault-free
//! run) from permanent ones (the cell degrades or the run aborts with a
//! typed error).
//!
//! [`stream_seed`]: taskgraph::gen::stream_seed
//! [`sub_stream`]: taskgraph::gen::sub_stream

use std::fmt;
use std::str::FromStr;

use taskgraph::gen::{stream_label, stream_seed, sub_stream};

/// A named fault-injection site in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A checkpoint append fails with a synthetic I/O error.
    CheckpointIo,
    /// A checkpoint line is written silently corrupted (one digit of the
    /// sealed record is altered), simulating at-rest disk corruption.
    CheckpointCorrupt,
    /// A worker panics in the middle of a replication's pipeline.
    WorkerPanic,
    /// A workload draw is reported rejected without consuming the
    /// replication's seed stream, exercising the bounded generation
    /// retry; recovery reproduces the fault-free graph bit-identically.
    GenerateReject,
    /// Cancellation is requested immediately after a replication
    /// completes, racing the run shutdown against the checkpoint append.
    CancelRace,
    /// An admission write-ahead-log append fails with a synthetic I/O
    /// error. Coordinates are `(system size, sequence, attempt)`.
    AdmitLogIo,
    /// An admission write-ahead-log line is written silently corrupted
    /// (one digit of the sealed record is altered); recovery's per-record
    /// CRC32 detects it as a typed error.
    AdmitLogCorrupt,
    /// A slicer worker panics while distributing deadlines for a request;
    /// the request degrades to a typed `WorkerFailed` verdict and the
    /// worker's pipeline is rebuilt in place.
    AdmitWorkerPanic,
    /// A slicer worker delivers its product to the coordinator twice
    /// (at-least-once delivery); the coordinator must deduplicate by
    /// submission sequence, bit-identically to the fault-free run.
    AdmitQueueRace,
}

impl FaultSite {
    /// Every site, in a stable order (the CLI fault-matrix order).
    pub const ALL: [FaultSite; 9] = [
        FaultSite::CheckpointIo,
        FaultSite::CheckpointCorrupt,
        FaultSite::WorkerPanic,
        FaultSite::GenerateReject,
        FaultSite::CancelRace,
        FaultSite::AdmitLogIo,
        FaultSite::AdmitLogCorrupt,
        FaultSite::AdmitWorkerPanic,
        FaultSite::AdmitQueueRace,
    ];

    /// The site's stable kebab-case name (CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CheckpointIo => "checkpoint-io",
            FaultSite::CheckpointCorrupt => "checkpoint-corrupt",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::GenerateReject => "generate-reject",
            FaultSite::CancelRace => "cancel-race",
            FaultSite::AdmitLogIo => "admit-log-io",
            FaultSite::AdmitLogCorrupt => "admit-log-corrupt",
            FaultSite::AdmitWorkerPanic => "admit-worker-panic",
            FaultSite::AdmitQueueRace => "admit-queue-race",
        }
    }

    /// The site's seed-stream coordinate: a stable hash of its name, so
    /// adding sites never perturbs existing ones.
    fn stream(self) -> u64 {
        stream_label(self.name().as_bytes())
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSite, String> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One injected fault class: a site, a per-cell firing probability, and a
/// bound on how many consecutive attempts at a faulted cell fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub site: FaultSite,
    /// Probability (in `[0, 1]`) that a given `(system size, replication)`
    /// cell is faulted. The draw is deterministic per cell.
    pub rate: f64,
    /// How many consecutive attempts at a faulted cell fail before the
    /// fault clears. `u64::MAX` (the CLI default) means the fault is
    /// permanent at that cell; a small value models a transient fault the
    /// retry policy recovers from.
    pub attempts: u64,
}

impl FaultSpec {
    /// A permanent fault at `site` firing with probability `rate` per
    /// cell.
    pub fn new(site: FaultSite, rate: f64) -> FaultSpec {
        FaultSpec {
            site,
            rate,
            attempts: u64::MAX,
        }
    }

    /// Bounds the fault to the first `attempts` consecutive attempts at a
    /// faulted cell (a transient fault).
    #[must_use]
    pub fn transient(mut self, attempts: u64) -> FaultSpec {
        self.attempts = attempts;
        self
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parses the CLI spelling `site:rate[:attempts]`, e.g.
    /// `checkpoint-io:1.0:2` or `worker-panic:0.25`.
    fn from_str(s: &str) -> Result<FaultSpec, String> {
        let mut parts = s.split(':');
        let site: FaultSite = parts
            .next()
            .ok_or_else(|| "empty fault spec".to_owned())?
            .parse()?;
        let rate_text = parts
            .next()
            .ok_or_else(|| format!("fault spec {s:?} is missing a rate (site:rate[:attempts])"))?;
        let rate: f64 = rate_text
            .parse()
            .map_err(|_| format!("fault rate {rate_text:?} is not a number"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault rate {rate} is outside [0, 1]"));
        }
        let attempts = match parts.next() {
            None => u64::MAX,
            Some(text) => text
                .parse()
                .map_err(|_| format!("fault attempts {text:?} is not an integer"))?,
        };
        if parts.next().is_some() {
            return Err(format!(
                "fault spec {s:?} has too many fields (site:rate[:attempts])"
            ));
        }
        Ok(FaultSpec {
            site,
            rate,
            attempts,
        })
    }
}

/// A seedable, deterministic fault plan: the full description of which
/// faults fire where during a run.
///
/// The plan seed is independent of the scenario's base seed, so the same
/// fault pattern can be replayed against different workloads (or vice
/// versa).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) drawing its per-cell decisions from
    /// `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds one fault class to the plan. The first spec for a site wins.
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Does the plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.specs.iter().all(|s| s.rate <= 0.0)
    }

    /// The plan's fault classes, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Does `site` fire at cell `(system_size, replication)` on its
    /// `attempt`-th consecutive try?
    ///
    /// The per-cell decision is drawn once from the plan seed and the
    /// coordinates (never from `attempt`), so retries at a faulted cell
    /// keep hitting the fault until `attempt` reaches the spec's
    /// `attempts` bound — at which point the fault clears and the retry
    /// succeeds.
    pub fn should_fire(
        &self,
        site: FaultSite,
        system_size: usize,
        replication: usize,
        attempt: u64,
    ) -> bool {
        let Some(spec) = self.specs.iter().find(|s| s.site == site) else {
            return false;
        };
        if attempt >= spec.attempts {
            return false;
        }
        let cell = stream_seed(
            self.seed,
            site.stream(),
            system_size as u64,
            replication as u64,
        );
        unit(sub_stream(cell, 0)) < spec.rate
    }
}

/// The engine's one fault hook: does `site` fire at
/// `(system_size, cell, attempt)` under `plan`? A firing is logged as a
/// WARN. Only `fault-inject` builds consult the plan; otherwise this is
/// constant `false` and the hook compiles away.
#[inline]
pub(crate) fn fires(
    plan: Option<&FaultPlan>,
    site: FaultSite,
    system_size: usize,
    cell: usize,
    attempt: u64,
) -> bool {
    let fired = cfg!(feature = "fault-inject")
        && plan.is_some_and(|plan| plan.should_fire(site, system_size, cell, attempt));
    if fired {
        tracing::warn!(
            site = %site,
            system_size = system_size,
            cell = cell,
            attempt = attempt,
            "injecting fault"
        );
    }
    fired
}

/// Maps a well-mixed `u64` to a uniform draw in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::new(7).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.5));
        let fires: Vec<bool> = (0..1000)
            .map(|rep| plan.should_fire(FaultSite::WorkerPanic, 8, rep, 0))
            .collect();
        let again: Vec<bool> = (0..1000)
            .map(|rep| plan.should_fire(FaultSite::WorkerPanic, 8, rep, 0))
            .collect();
        assert_eq!(
            fires, again,
            "decisions must be a pure function of coordinates"
        );
        let hits = fires.iter().filter(|&&f| f).count();
        assert!(
            (350..=650).contains(&hits),
            "rate 0.5 over 1000 cells should hit roughly half, got {hits}"
        );
    }

    #[test]
    fn rate_extremes_and_unknown_sites() {
        let plan = FaultPlan::new(1)
            .with_fault(FaultSpec::new(FaultSite::CheckpointIo, 1.0))
            .with_fault(FaultSpec::new(FaultSite::CancelRace, 0.0));
        for rep in 0..64 {
            assert!(plan.should_fire(FaultSite::CheckpointIo, 2, rep, 0));
            assert!(!plan.should_fire(FaultSite::CancelRace, 2, rep, 0));
            // No spec for this site: never fires.
            assert!(!plan.should_fire(FaultSite::WorkerPanic, 2, rep, 0));
        }
        assert!(FaultPlan::new(3).is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn transient_faults_clear_after_their_attempt_bound() {
        let plan =
            FaultPlan::new(9).with_fault(FaultSpec::new(FaultSite::CheckpointIo, 1.0).transient(2));
        assert!(plan.should_fire(FaultSite::CheckpointIo, 4, 0, 0));
        assert!(plan.should_fire(FaultSite::CheckpointIo, 4, 0, 1));
        assert!(!plan.should_fire(FaultSite::CheckpointIo, 4, 0, 2));
        assert!(!plan.should_fire(FaultSite::CheckpointIo, 4, 0, 99));
    }

    #[test]
    fn seeds_and_sites_address_independent_streams() {
        let a = FaultPlan::new(1).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.5));
        let b = FaultPlan::new(2).with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.5));
        let fires = |p: &FaultPlan, site| -> Vec<bool> {
            (0..256).map(|rep| p.should_fire(site, 8, rep, 0)).collect()
        };
        assert_ne!(
            fires(&a, FaultSite::WorkerPanic),
            fires(&b, FaultSite::WorkerPanic),
            "different plan seeds must draw different fault patterns"
        );
        let two = FaultPlan::new(1)
            .with_fault(FaultSpec::new(FaultSite::WorkerPanic, 0.5))
            .with_fault(FaultSpec::new(FaultSite::CancelRace, 0.5));
        assert_ne!(
            fires(&two, FaultSite::WorkerPanic),
            fires(&two, FaultSite::CancelRace),
            "sites must draw from independent streams"
        );
    }

    #[test]
    fn specs_parse_from_cli_spellings() {
        let spec: FaultSpec = "checkpoint-io:1.0:2".parse().unwrap();
        assert_eq!(spec.site, FaultSite::CheckpointIo);
        assert_eq!(spec.rate, 1.0);
        assert_eq!(spec.attempts, 2);
        let spec: FaultSpec = "worker-panic:0.25".parse().unwrap();
        assert_eq!(spec.site, FaultSite::WorkerPanic);
        assert_eq!(spec.attempts, u64::MAX);
        assert!("bogus-site:0.5".parse::<FaultSpec>().is_err());
        assert!("worker-panic".parse::<FaultSpec>().is_err());
        assert!("worker-panic:nan?".parse::<FaultSpec>().is_err());
        assert!("worker-panic:2.0".parse::<FaultSpec>().is_err());
        assert!("worker-panic:0.5:1:9".parse::<FaultSpec>().is_err());
        for site in FaultSite::ALL {
            assert_eq!(site.name().parse::<FaultSite>().unwrap(), site);
        }
        let spec: FaultSpec = "admit-worker-panic:0.125".parse().unwrap();
        assert_eq!(spec.site, FaultSite::AdmitWorkerPanic);
    }

    #[test]
    fn admission_sites_draw_from_streams_independent_of_the_engine_sites() {
        // Site streams hash the site *name*, so extending `ALL` must never
        // perturb the patterns existing sites draw.
        let plan = FaultPlan::new(11)
            .with_fault(FaultSpec::new(FaultSite::AdmitLogIo, 0.5))
            .with_fault(FaultSpec::new(FaultSite::CheckpointIo, 0.5));
        let fires = |site| -> Vec<bool> {
            (0..256)
                .map(|seq| plan.should_fire(site, 8, seq, 0))
                .collect()
        };
        assert_ne!(
            fires(FaultSite::AdmitLogIo),
            fires(FaultSite::CheckpointIo),
            "admission sites must not alias the checkpoint streams"
        );
    }
}
