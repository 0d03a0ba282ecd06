//! The repository's benchmark: the online admission service and the
//! Figure 5 sweep, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload admit-fresh|admit-churn|sweep-paper --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes the traced run that yields the per-layer metrics. Either way the
//! run passes its correctness gate first: on a failed check it prints the
//! reason to stderr and exits 1 without a result. The last stdout line is
//! the result object; the line before it stamps the run (commit, rustc,
//! CPU, core count, date, seed). Scratch files go to `.perfbench/` in the
//! working directory; the traced run leaves its spans there.
//! See `perfbench/README.md` for the workloads and the metrics.

mod admit;
mod mirror;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The end-to-end metrics and their units, as `BENCHMARK.json` names them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("answered_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and their units. A layer a workload does not run
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("admission.self_us_mean", "us"),
    ("admission.wait_us_p50", "us"),
    ("admission.wait_us_p99", "us"),
    ("admission.gen_lag_us_p99", "us"),
    ("admission.admitted_frac", "fraction"),
    ("admission.refused_frac", "fraction"),
    ("service.speedup", "ratio"),
    ("service.queue_full", "count"),
    ("prefilter.us_mean", "us"),
    ("prefilter.refused_frac", "fraction"),
    ("cache.hit_frac", "fraction"),
    ("cache.hit_us_mean", "us"),
    ("cache.miss_us_mean", "us"),
    ("cache.evictions", "count"),
    ("slicing.distribute_us_mean", "us"),
    ("slicing.distribute_us_p99", "us"),
    ("slicing.traced_us_mean", "us"),
    ("slicing.window_audit_us_mean", "us"),
    ("incremental.redistribute_us_mean", "us"),
    ("incremental.reuse_frac", "fraction"),
    ("sched.trial_us_mean", "us"),
    ("sched.trial_us_p99", "us"),
    ("sched.residents_mean", "count"),
    ("sched.commit_us_mean", "us"),
    ("sched.repair_us_mean", "us"),
    ("sched.repair_fastpath_frac", "fraction"),
    ("sched.schedule_us_mean", "us"),
    ("wal.seal_us_mean", "us"),
    ("wal.bytes_per_record", "bytes"),
    ("gen.generate_us_mean", "us"),
    ("audit.us_mean", "us"),
    ("audit.violations", "count"),
    ("runner.self_frac", "fraction"),
    ("runner.checkpoint_us_per_rep", "us"),
    ("runner.parallel_eff", "fraction"),
    ("share.slicing_frac", "fraction"),
    ("share.sched_frac", "fraction"),
    ("share.wal_frac", "fraction"),
    ("tracing.overhead_frac", "fraction"),
];

/// The quantile of the per-round rates reported as `throughput_rps`: the
/// upper quartile. The throughput rounds keep both cores busy, and on a
/// shared machine other tenants slow some rounds by a third; those fall
/// below the upper quartile, which tracks the program rather than them.
pub const THROUGHPUT_QUANTILE: f64 = 0.75;

/// Set-ups per run: at least `SETUP_MIN`, then more until `SETUP_BUDGET`
/// is spent or `SETUP_MAX` ran. `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Runs `set_up` repeatedly. It returns what it built and the seconds the
/// set-up itself took; this returns the last build and the median time.
pub fn repeat_setup<T>(
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let (built, secs) = set_up()?;
        times.push(secs);
        if times.len() >= SETUP_MAX
            || (times.len() >= SETUP_MIN && started.elapsed() >= SETUP_BUDGET)
        {
            return Ok((built, stats::median(&times)));
        }
    }
}

/// What a run measured.
pub struct Report {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn push_peak_rss(&mut self) -> Result<(), String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading the process status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("the process status has no VmHWM line")?;
        self.push("peak_rss_mb", kib / 1024.0);
        Ok(())
    }

    /// The result line: every metric of `table` in order, each once.
    fn render(&self, table: &[(&str, &str)], fill_missing: bool) -> Result<String, String> {
        for (name, _) in &self.values {
            if !table.iter().any(|(known, _)| known == name) {
                return Err(format!("metric {name} is not in the metric table"));
            }
        }
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let mut found = self.values.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some(&(_, value)), None) => value,
                (None, None) if fill_missing => 0.0,
                (None, None) => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was reported twice")),
            };
            // Adding 0.0 turns an empty float sum's -0.0 into 0.0.
            let value = value + 0.0;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AdmitFresh,
    AdmitChurn,
    SweepPaper,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "admit-fresh" => Ok(Workload::AdmitFresh),
            "admit-churn" => Ok(Workload::AdmitChurn),
            "sweep-paper" => Ok(Workload::SweepPaper),
            other => Err(format!(
                "unknown workload `{other}` (admit-fresh, admit-churn, sweep-paper)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AdmitFresh => "admit-fresh",
            Workload::AdmitChurn => "admit-churn",
            Workload::SweepPaper => "sweep-paper",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| "--seed takes an unsigned integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds takes a number in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The first line of `program args`' stdout, if it runs.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

/// FNV-1a over the workspace manifest, lock file and every file under
/// `crates/`: identifies the measured source where no git commit exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (civil-from-days).
fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The stamp line: which code on which machine made this result.
fn stamp(args: &Args) -> String {
    let commit = first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_owned());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"date\": {}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&commit),
        json_string(&source_digest()),
        json_string(&rustc),
        json_string(&cpu),
        json_string(&utc(now)),
    )
}

fn run(args: &Args) -> Result<String, String> {
    let out = PathBuf::from(".perfbench");
    let scratch = out.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let spans = out.join(format!("spans-{}.jsonl", args.workload.name()));
    let result = match (args.workload, args.trace) {
        (Workload::AdmitFresh, false) => {
            admit::run(admit::Kind::Fresh, args.seed, args.seconds, &scratch)
        }
        (Workload::AdmitChurn, false) => {
            admit::run(admit::Kind::Churn, args.seed, args.seconds, &scratch)
        }
        (Workload::SweepPaper, false) => sweep::run(args.seed, args.seconds, &scratch),
        (Workload::AdmitFresh, true) => admit::run_traced(
            admit::Kind::Fresh,
            args.seed,
            args.seconds,
            &scratch,
            &spans,
        ),
        (Workload::AdmitChurn, true) => admit::run_traced(
            admit::Kind::Churn,
            args.seed,
            args.seconds,
            &scratch,
            &spans,
        ),
        (Workload::SweepPaper, true) => sweep::run_traced(args.seed, &scratch, &spans),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let report = result?;
    if args.trace {
        report.render(PER_LAYER, true)
    } else {
        report.render(END_TO_END, false)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{}", stamp(&args));
            println!("{line}");
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {} FAILED: {e}",
                args.workload.name(),
                args.seed
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_700_000_000), "2023-11-14T22:13:20Z");
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut report = Report::new(10, 0);
        report.push("setup_s", 0.5);
        assert!(report.render(END_TO_END, false).is_err());
        for (name, _) in &END_TO_END[1..] {
            report.push(name, 1.25);
        }
        let line = report.render(END_TO_END, false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
