//! The repository benchmark. Runs one workload for a fixed time and prints
//! one JSON object as its last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with the
//! end-to-end metrics when untraced and the per-layer metrics when traced.
//!
//! ```text
//! grimp-perfbench --workload fit_paper|fit_sampled|serve_mixed --seed N
//!     --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Every input is generated from `--seed`. `--out` receives the run's
//! scratch files, its detailed record (`record.json`) and, when traced,
//! its spans (`spans.jsonl`). `perfbench/run.py` builds and drives it.

mod fit;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a workload hands back: the verdict, the operation counts, and the
/// metrics of the kind the run was asked for.
pub struct Outcome {
    /// Every output checked was right.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Operations that were refused, timed out or errored.
    pub failed: usize,
    /// Name → (value, unit), in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra JSON fields for the detailed record (name → raw JSON).
    pub details: BTreeMap<String, String>,
}

/// Run-wide settings of one invocation.
pub struct Run {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Scratch and output directory.
    pub out: PathBuf,
}

impl Run {
    /// A generator for one purpose (`tag`) of this run's inputs.
    pub fn rng(&self, tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A scratch path inside the output directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out.join(format!("{}-{name}", std::process::id()))
    }
}

/// Peak resident memory of this process so far (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A number as JSON (`null` when not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Samples as a JSON summary: count, quartiles and median.
pub fn json_summary(xs: &[f64]) -> String {
    format!(
        "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
        xs.len(),
        json_num(stats::quantile(xs, 0.25)),
        json_num(stats::median(xs)),
        json_num(stats::quantile(xs, 0.75))
    )
}

/// A tail percentile as JSON, with its sample count and samples beyond.
pub fn json_tail(t: Option<stats::Tail>) -> String {
    match t {
        Some(t) => format!(
            "{{\"percentile\":{},\"value\":{},\"n\":{},\"beyond\":{}}}",
            t.percentile,
            json_num(t.value),
            t.n,
            t.beyond
        ),
        None => "null".to_string(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: grimp-perfbench --workload fit_paper|fit_sampled|serve_mixed \
         --seed N --seconds S --trace 0|1 [--out DIR]"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    std::fs::create_dir_all(&out).expect("create the output directory");
    let run = Run {
        seed,
        seconds,
        traced,
        out,
    };
    trace::set_enabled(traced);
    let outcome = match workload.as_str() {
        "fit_paper" => fit::run(&run, fit::Kind::Paper),
        "fit_sampled" => fit::run(&run, fit::Kind::Sampled),
        "serve_mixed" => serve::run(&run),
        _ => usage(),
    };
    trace::set_enabled(false);
    write_record(&run, &workload, &outcome, &run.out.join("record.json"));

    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

fn write_record(run: &Run, workload: &str, outcome: &Outcome, path: &Path) {
    let mut json = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        run.seed,
        run.seconds,
        u8::from(run.traced),
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*value)
        );
    }
    json.push_str("},\"details\":{");
    for (i, (k, v)) in outcome.details.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\"{k}\":{v}");
    }
    json.push_str("}}\n");
    std::fs::write(path, json).expect("write the run record");
}
