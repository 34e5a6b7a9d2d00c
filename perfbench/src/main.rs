//! The repository benchmark: four seeded closed-loop workloads, each run
//! in its own process, timed from outside through the public API of the
//! layer it drives, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analysis_serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the three
//! end-to-end metrics every workload reports (`ops_per_s` of its primary
//! operation, `setup_s`, `peak_rss_mib`); with `--trace 1` they are the
//! per-layer metrics of a traced pass that follows an untraced one. Both
//! lists follow `BENCHMARK.json`. The line before it records the seed,
//! every workload parameter, the error rate and the workload's own named
//! metrics: its latency medians and tails. `interaction_map.json` says
//! which end-to-end metric each per-layer metric should move, on which
//! workload. Traced runs write their spans to `out/trace-<workload>.tsv`.

mod explore;
mod ingest;
mod join;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the generated circuits every workload runs on. The dataset is
/// fixed so that runs compare like with like; `--seed` drives the
/// traffic over it (requests, regions, writes, path order, join split).
pub const DATASET_SEED: u64 = 42;

/// Set-ups per run, at least, and at least this many seconds of them.
/// `setup_s` is the median of the faster half, which leaves out the
/// first, cold set-ups.
pub const SETUP_REPEATS: usize = 9;
pub const SETUP_MIN_S: f64 = 3.0;

/// Seconds of untimed load before the measured passes: caches fill and
/// lazy set-up finishes first.
pub const WARMUP_S: f64 = 1.0;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["analysis_serve", "explore_ooc", "ingest_live", "synapse_join"];

/// The benchmark's declaration: its `end_to_end` and `per_layer` lists
/// name, in order, the metrics a run reports.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// (name, unit) of each metric in the `list` array of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(&'static str, &'static str)> {
    let key = format!("\"{list}\"");
    let body = BENCHMARK_JSON.split(key.as_str()).nth(1).unwrap_or("");
    let body = &body[..body.find(']').unwrap_or(0)];
    let field = |obj: &'static str, key: &str| -> &'static str {
        let rest = obj.split(format!("\"{key}\"").as_str()).nth(1).unwrap_or("");
        let rest = rest.trim_start().trim_start_matches(':').trim_start();
        let rest = rest.strip_prefix('"').unwrap_or("");
        &rest[..rest.find('"').unwrap_or(0)]
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

/// A named measurement with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One run's settings, shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The run's own temp dir for page files and WALs.
    pub dir: PathBuf,
}

/// A stretch of closed-loop load. Every operation in every phase is
/// checked and counted in `attempted` / `failed`; warm-up phases feed no
/// other metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub secs: f64,
    pub traced: bool,
    pub warmup: bool,
}

impl Run {
    /// A warm-up, then one untraced pass, and in a traced run a second,
    /// traced pass of the same length — the pair `trace_overhead_pct`
    /// compares.
    pub fn phases(&self) -> Vec<Phase> {
        let phase = |secs, traced, warmup| Phase { secs, traced, warmup };
        let mut v = vec![phase(WARMUP_S, false, true)];
        if self.trace {
            v.push(phase(self.seconds / 2.0, false, false));
            v.push(phase(self.seconds / 2.0, true, false));
        } else {
            v.push(phase(self.seconds, false, false));
        }
        v
    }
}

/// What a workload measured. End-to-end figures come from the untraced
/// pass; `layers` from the traced one.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whether the end-of-run checks held.
    pub final_ok: bool,
    pub setup_s: Vec<f64>,
    /// Operations completed per second of the untraced pass, think time
    /// left out.
    pub ops_per_s: f64,
    /// Primary-operation latencies of the untraced and traced passes.
    pub op_us: Vec<f64>,
    pub traced_op_us: Vec<f64>,
    /// Workload parameters as (name, JSON value).
    pub params: Vec<(&'static str, String)>,
    /// The workload's own named end-to-end metrics.
    pub detail: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Spans of the traced pass, written out when the run ends.
    pub spans: Vec<trace::Span>,
}

/// A latency percentile, or an error naming the metric whose sample is
/// too small to carry it.
pub fn pct(name: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    stats::percentile(samples, p).ok_or_else(|| {
        format!("{name}: {} samples cannot support a p{} percentile", samples.len(), p * 100.0)
    })
}

/// Run `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`], timing each into `setup_s`, and keep the last result.
/// Each earlier result is dropped before the next set-up starts, so peak
/// memory holds one set-up.
pub fn set_up<T>(
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut last = None;
    for i in 0.. {
        if i >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break;
        }
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("SETUP_REPEATS is not zero"))
}

/// Removes the run's temp dir however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; known: {}", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok((workload, seed, seconds, trace))
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String");
    }
    out.push('}');
    Ok(out)
}

/// The metrics `BENCHMARK.json` declares in `list`, in its order, taken
/// from `measured`. A declared metric a workload does not measure reads 0
/// where `absent_is_zero` (a layer it bypasses) and is an error otherwise;
/// a measured metric that is not declared, or whose unit differs, is an
/// error.
fn order_as_declared(
    measured: &[Metric],
    list: &str,
    absent_is_zero: bool,
) -> Result<Vec<Metric>, String> {
    let decl = declared(list);
    if let Some(m) = measured.iter().find(|m| !decl.iter().any(|&(n, _)| n == m.name)) {
        return Err(format!("{} is not declared in the {list} list of BENCHMARK.json", m.name));
    }
    decl.iter()
        .map(|&(name, unit)| match measured.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                Err(format!("{name} measured in {}, declared in {unit}", m.unit))
            }
            Some(m) => Ok(*m),
            None if absent_is_zero => Ok(metric(name, 0.0, unit)),
            None => Err(format!("{name} was not measured")),
        })
        .collect()
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = run(&workload, seed, seconds, trace, &out_dir) {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Result<(), String> {
    let dir = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let _cleanup = TempDir(dir.clone());
    let cfg = Run { seed, seconds, trace, dir };
    let report = match workload {
        "analysis_serve" => serve::run(&cfg)?,
        "explore_ooc" => explore::run(&cfg)?,
        "ingest_live" => ingest::run(&cfg)?,
        "synapse_join" => join::run(&cfg)?,
        other => unreachable!("workload {other} passed argument checks"),
    };
    let rss = peak_rss_mib()?;

    let metrics = if trace {
        let overhead =
            100.0 * (stats::median(&report.traced_op_us) / stats::median(&report.op_us) - 1.0);
        let mut layers = report.layers.clone();
        layers.push(metric("trace_overhead_pct", overhead, "%"));
        order_as_declared(&layers, "per_layer", true)?
    } else {
        let e2e = [
            metric("ops_per_s", report.ops_per_s, "1/s"),
            metric("setup_s", stats::faster_half_median(&report.setup_s), "s"),
            metric("peak_rss_mib", rss, "MiB"),
        ];
        order_as_declared(&e2e, "end_to_end", false)?
    };
    if trace {
        std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("trace-{workload}.tsv"));
        trace::write_tsv(&report.spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut params = format!(
        "\"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"dataset_seed\": {DATASET_SEED}, \"warmup_s\": {WARMUP_S}, \
         \"setups\": {}, \"available_parallelism\": {threads}",
        report.setup_s.len()
    );
    for (k, v) in &report.params {
        write!(params, ", \"{k}\": {v}").expect("writing to a String");
    }
    let error_rate = stats::ratio(report.failed as f64, report.attempted as f64);
    println!(
        "{{\"workload\": \"{workload}\", \"params\": {{{params}}}, \"error_rate\": {error_rate}, \
         \"op_samples\": {}, \"detail\": {}}}",
        report.op_us.len(),
        json_metrics(&report.detail)?
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.final_ok && report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&metrics)?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names the workloads this binary runs, and the
    /// interaction map covers exactly its per-layer metrics.
    #[test]
    fn declaration_matches_the_binary_and_the_map() {
        let workloads: Vec<&str> = WORKLOADS.to_vec();
        let declared_workloads: Vec<&str> = declared("workloads").iter().map(|&(n, _)| n).collect();
        assert_eq!(declared_workloads, workloads);
        for list in ["end_to_end", "per_layer"] {
            let n = BENCHMARK_JSON.split(&format!("\"{list}\"")).nth(1).unwrap();
            let n = n[..n.find(']').unwrap()].matches("\"better\"").count();
            assert_eq!(declared(list).len(), n, "every {list} entry parses");
            assert!(declared(list)
                .iter()
                .all(|&(name, unit)| !name.is_empty() && !unit.is_empty()));
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("interaction_map.json");
        let map = std::fs::read_to_string(&path).unwrap();
        let mapped: Vec<&str> =
            map.split("\"metric\": \"").skip(1).map(|m| &m[..m.find('"').unwrap()]).collect();
        let per_layer: Vec<&str> = declared("per_layer").iter().map(|&(n, _)| n).collect();
        assert_eq!(mapped, per_layer);
    }

    #[test]
    fn metrics_follow_the_declared_order() {
        let m = [metric("core.knn_us", 2.0, "us"), metric("server.self_us", 1.0, "us")];
        let out = order_as_declared(&m, "per_layer", true).unwrap();
        assert_eq!(out.len(), declared("per_layer").len());
        assert_eq!((out[0].name, out[0].value), ("server.self_us", 1.0));
        assert_eq!((out[2].name, out[2].value), ("core.knn_us", 2.0));
        assert_eq!(out[1].value, 0.0);
        assert!(order_as_declared(&[metric("nope", 1.0, "us")], "per_layer", true).is_err());
        assert!(order_as_declared(&[metric("core.knn_us", 1.0, "ms")], "per_layer", true).is_err());
        assert!(order_as_declared(&m, "end_to_end", false).is_err());
    }

    #[test]
    fn metrics_render_with_all_digits() {
        let m = [metric("a", 0.1 + 0.2, "s"), metric("b", 3.0, "count")];
        assert_eq!(
            json_metrics(&m).unwrap(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}"
        );
        assert!(json_metrics(&[metric("c", f64::NAN, "s")]).is_err());
    }
}
