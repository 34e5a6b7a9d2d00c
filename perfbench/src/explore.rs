//! `explore_ooc`: SCOUT walkthroughs over a FLAT page file read through a
//! latency-only fault file, with a frame budget a tenth of the file and
//! a fixed think time between steps. Page reads go through the
//! benchmark's own `PageIo` wrapper, which times each read and splits
//! them by calling thread: reads on a thread inside a step are demand
//! reads, the rest are prefetches.

use crate::stats::{median_or_zero, ratio, Fingerprint, Rng};
use crate::trace::{self_times, Tracer};
use crate::{metric, pct, set_up, Report, Run, DATASET_SEED};
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial::scout::ooc::{frame_budget_for, write_flat_index};
use neurospatial::storage::{FaultFile, PageFile, PageIo};
use neurospatial_bench::{jagged_circuit, walkthrough_paths};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEGMENTS: usize = 50_000;
const PAGE_CAPACITY: usize = 64;
const FRAME_BUDGET_PCT: u32 = 10;
/// Modelled device latency per page read: what SCOUT exists to hide.
const DEVICE_LATENCY_US: u64 = 100;
/// Long enough that most of a step's predicted pages land before the next
/// step; at 0.5 ms prefetches and steps race and the run-to-run spread
/// of step latency was three times wider.
const THINK_MS: f64 = 2.0;
/// Every run walks all of them; the seed sets their order.
const PATHS: u64 = 128;
const PREFETCH_WORKERS: usize = 2;

/// Times every page read as a `storage` span.
struct TimedIo {
    inner: FaultFile<PageFile>,
    tracer: Arc<Tracer>,
}

impl PageIo for TimedIo {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let layer = if Tracer::in_span() { "storage.demand_read" } else { "storage.prefetch_read" };
        self.tracer.span(layer, 0, || self.inner.read_page_into(page, buf))
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn meta(&self) -> &[u8] {
        self.inner.meta()
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = Arc::new(Tracer::new());
    let file = run.dir.join("explore.flatpages");
    let (ooc, mem, circuit, frames) = set_up(&mut report.setup_s, || {
        let mut neurons = 4u32;
        let circuit = loop {
            let c = jagged_circuit(neurons, DATASET_SEED);
            if c.segments().len() >= SEGMENTS || neurons >= 4096 {
                break c;
            }
            neurons *= 2;
        };
        let mut segments = circuit.segments().to_vec();
        segments.truncate(SEGMENTS);
        let mem = FlatIndex::build(
            segments,
            FlatBuildParams::default().with_page_capacity(PAGE_CAPACITY),
        );
        write_flat_index(&mem, &file).map_err(|e| e.to_string())?;
        let frames = frame_budget_for(mem.page_count(), FRAME_BUDGET_PCT);
        let cfg =
            OocConfig::default().with_frame_budget(frames).with_prefetch_workers(PREFETCH_WORKERS);
        let plan = FaultPlan::new(run.seed).with_latency_us(DEVICE_LATENCY_US);
        let io_tracer = Arc::clone(&tracer);
        let ooc = OocFlatIndex::open_with(&file, cfg, move |f| {
            Arc::new(TimedIo { inner: FaultFile::new(f, plan), tracer: io_tracer })
        })
        .map_err(|e| e.to_string())?;
        Ok((ooc, mem, circuit, frames))
    })?;

    let paths = walkthrough_paths(&circuit, PATHS);
    if paths.is_empty() {
        return Err("no walkthrough paths".into());
    }
    let mut scratch = FlatScratch::default();
    let truth: Vec<Vec<Fingerprint>> = paths
        .iter()
        .map(|p| {
            p.queries
                .iter()
                .map(|q| {
                    let mut f = Fingerprint::default();
                    mem.range_query_scratch(q, &mut scratch, |_| {}, |s| f.add(s.id));
                    f
                })
                .collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..paths.len()).collect();
    let mut rng = Rng::new(run.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    let think = Duration::from_secs_f64(THINK_MS / 1e3);
    let mut step_us = Vec::new();
    let (mut steps_per_s, mut busy_steps_per_s) = (0.0, 0.0);
    let (mut prefetched, mut stall_us, mut traced_steps) = (0u64, 0.0, 0u64);
    let mut pool_before = FrameStats::default();
    let mut step = 0u64;
    for phase in run.phases() {
        tracer.set_enabled(phase.traced);
        if phase.traced {
            pool_before = ooc.pool().stats();
        }
        let mut lat = Vec::new();
        let mut busy = 0.0;
        let start = Instant::now();
        'pass: for &p in order.iter().cycle() {
            let mut cursor = ooc.cursor(WalkthroughMethod::Scout.prefetcher());
            for (q, want) in paths[p].queries.iter().zip(&truth[p]) {
                if start.elapsed().as_secs_f64() >= phase.secs {
                    break 'pass;
                }
                step += 1;
                let t = Instant::now();
                let r = tracer.span("scout.step", step, || cursor.step(q));
                let s = t.elapsed().as_secs_f64();
                busy += s;
                lat.push(s * 1e6);
                report.attempted += 1;
                let ok = match r {
                    Ok(trace) => {
                        if phase.traced {
                            prefetched += trace.prefetched;
                            stall_us += trace.stall_ms * 1e3;
                        }
                        Fingerprint::of(cursor.last_result().iter().map(|s| s.id)) == *want
                    }
                    Err(_) => false,
                };
                report.failed += u64::from(!ok);
                std::thread::sleep(think);
            }
        }
        if phase.warmup {
            continue;
        }
        if phase.traced {
            traced_steps = lat.len() as u64;
            report.traced_op_us = lat;
        } else {
            steps_per_s = lat.len() as f64 / start.elapsed().as_secs_f64();
            // The gated rate counts time inside steps only: the think time
            // is the viewer's, not the program's.
            busy_steps_per_s = lat.len() as f64 / busy;
            step_us = lat;
        }
    }
    tracer.set_enabled(false);
    let pool = ooc.pool().stats();

    report.final_ok = true;
    report.ops_per_s = busy_steps_per_s;
    report.detail = vec![
        metric("explore_steps_per_s", steps_per_s, "1/s"),
        metric("explore_step_p50_us", pct("explore_step_p50_us", &step_us, 0.50)?, "us"),
        metric("explore_step_p99_us", pct("explore_step_p99_us", &step_us, 0.99)?, "us"),
    ];
    report.op_us = step_us;
    report.params = vec![
        ("segments", mem.len().to_string()),
        ("pages", mem.page_count().to_string()),
        ("page_capacity", PAGE_CAPACITY.to_string()),
        ("frame_budget_pct", FRAME_BUDGET_PCT.to_string()),
        ("frames", frames.to_string()),
        ("device_latency_us", DEVICE_LATENCY_US.to_string()),
        ("think_ms", THINK_MS.to_string()),
        ("paths", paths.len().to_string()),
        ("prefetch", "\"scout\"".into()),
        ("prefetch_workers", PREFETCH_WORKERS.to_string()),
    ];

    if run.trace {
        let spans = tracer.take();
        let own = self_times(&spans);
        let us = |ns: u64| ns as f64 / 1e3;
        let of = |layer: &'static str| spans.iter().filter(move |s| s.layer == layer);
        let steps: Vec<f64> = of("scout.step").map(|s| us(s.duration_ns())).collect();
        let step_self: Vec<f64> = of("scout.step").map(|s| us(own[&s.id])).collect();
        let reads: Vec<f64> = of("storage.demand_read")
            .chain(of("storage.prefetch_read"))
            .map(|s| us(s.duration_ns()))
            .collect();
        let n = traced_steps as f64;
        let (hits, misses) = (pool.hits - pool_before.hits, pool.misses - pool_before.misses);
        report.layers = vec![
            metric("scout.step_us", median_or_zero(&steps), "us"),
            metric("scout.step_self_us", median_or_zero(&step_self), "us"),
            metric("scout.prefetch_issued_per_step", ratio(prefetched as f64, n), "count"),
            metric(
                "scout.prefetch_useful_ratio",
                ratio(
                    (pool.prefetch_hits - pool_before.prefetch_hits) as f64,
                    (pool.prefetched - pool_before.prefetched) as f64,
                ),
                "ratio",
            ),
            metric("storage.page_read_us", median_or_zero(&reads), "us"),
            metric(
                "storage.demand_reads_per_step",
                ratio(of("storage.demand_read").count() as f64, n),
                "count",
            ),
            metric(
                "storage.prefetch_reads_per_step",
                ratio(of("storage.prefetch_read").count() as f64, n),
                "count",
            ),
            metric("storage.demand_wait_us_per_step", ratio(stall_us, n), "us"),
            metric("storage.frame_hit_rate", ratio(hits as f64, (hits + misses) as f64), "ratio"),
            metric(
                "storage.evictions_per_step",
                ratio((pool.evictions - pool_before.evictions) as f64, n),
                "count",
            ),
        ];
        report.spans = spans;
    }
    Ok(report)
}
