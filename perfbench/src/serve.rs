//! `analysis_serve`: one client connection drives a seeded RANGE / KNN /
//! COUNT mix through the wire server over an in-memory FLAT database.
//! The traced pass replays each request in process — through the query
//! facade and through the bare FLAT traversal — so the server's and the
//! facade's shares of the round trip fall out as differences.

use crate::stats::{median_or_zero, ratio, Fingerprint, Rng};
use crate::trace::Tracer;
use crate::{metric, pct, set_up, Phase, Report, Run, DATASET_SEED};
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial_bench::sized_segments;
use neurospatial_server::protocol::QueryDescView;
use neurospatial_server::{serve_with, Client, FilterRegistry, ServerConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const SEGMENTS: usize = 200_000;
/// Range half-extents in µm, drawn uniformly: ~14, ~300 and ~5,000 results.
const HALF_EXTENTS: [f64; 3] = [4.0, 12.0, 30.0];
const RANGE_SHARE: f64 = 0.6;
const KNN_SHARE: f64 = 0.2;
const KNN_K: u32 = 16;
/// Distinct requests, cycled in order.
const POOL: usize = 8192;

enum Req {
    Range(Aabb),
    Knn(Vec3),
    Count(Aabb),
}

enum Expect {
    Set(Fingerprint),
    Ordered(Vec<u64>),
    Count(u64),
}

fn generate(segments: &[NeuronSegment], seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    (0..POOL)
        .map(|_| {
            let roll = rng.unit();
            let c = segments[rng.below(segments.len())].geom.center();
            let cube = |rng: &mut Rng| Aabb::cube(c, HALF_EXTENTS[rng.below(HALF_EXTENTS.len())]);
            if roll < RANGE_SHARE {
                Req::Range(cube(&mut rng))
            } else if roll < RANGE_SHARE + KNN_SHARE {
                Req::Knn(c)
            } else {
                Req::Count(cube(&mut rng))
            }
        })
        .collect()
}

fn reference(db: &NeuroDb, req: &Req) -> Result<Expect, String> {
    let e = |e: NeuroError| e.to_string();
    Ok(match req {
        Req::Range(q) => {
            let mut f = Fingerprint::default();
            db.query().range(*q).stream(|s| f.add(s.id)).map_err(e)?;
            Expect::Set(f)
        }
        Req::Knn(p) => {
            let (n, _) = db.query().knn(*p, KNN_K as usize).collect().map_err(e)?;
            Expect::Ordered(n.iter().map(|n| n.segment.id).collect())
        }
        Req::Count(q) => Expect::Count(db.query().range(*q).count().map_err(e)?),
    })
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let (db, segments) = set_up(&mut report.setup_s, || {
        let segments = sized_segments(SEGMENTS, DATASET_SEED);
        let db = NeuroDb::builder()
            .segments(segments.clone())
            .backend(IndexBackend::Flat)
            .build()
            .map_err(|e| e.to_string())?;
        Ok((db, segments))
    })?;
    let reqs = generate(&segments, run.seed);
    drop(segments);
    let expect = reqs.iter().map(|r| reference(&db, r)).collect::<Result<Vec<_>, _>>()?;

    let tracer = Tracer::new();
    let filters = FilterRegistry::new();
    let cfg = ServerConfig::default();
    let desc = QueryDescView { tenant: 1, ..Default::default() };
    let mut range_us = Vec::new();
    let mut knn_us = Vec::new();
    let mut traced_range_us = Vec::new();
    let mut requests = 0u64;
    let mut busy_s = 0.0;
    // Replay counters of the traced pass.
    let (mut objects_tested, mut results, mut nodes_read, mut reseeds, mut replays) =
        (0u64, 0u64, 0u64, 0u64, 0u64);

    serve_with(&db, &filters, &cfg, |handle| -> Result<(), String> {
        let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        client.set_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        let mut session = db.query().session();
        let flat = db.flat_index().ok_or("the FLAT backend exposes its index")?;
        let mut scratch = FlatScratch::default();
        let (mut segs, mut neighbors) = (Vec::new(), Vec::new());
        let mut next = 0usize;

        let mut one = |phase: Phase, report: &mut Report| {
            let i = next % POOL;
            next += 1;
            let request = next as u64;
            let t = Instant::now();
            let (ok, us) = match &reqs[i] {
                Req::Range(q) => {
                    let r = tracer.span("server", request, || client.range(&desc, q, &mut segs));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    let got = Fingerprint::of(segs.iter().map(|s| s.id));
                    (r.is_ok() && matches!(&expect[i], Expect::Set(f) if *f == got), us)
                }
                Req::Knn(p) => {
                    let r = tracer
                        .span("server", request, || client.knn(&desc, *p, KNN_K, &mut neighbors));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    let ok = r.is_ok()
                        && matches!(&expect[i], Expect::Ordered(ids)
                            if ids.iter().copied().eq(neighbors.iter().map(|n| n.segment.id)));
                    (ok, us)
                }
                Req::Count(q) => {
                    let r = tracer.span("server", request, || client.count(&desc, q));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    (matches!((r, &expect[i]), (Ok((n, _)), Expect::Count(m)) if n == *m), us)
                }
            };
            report.attempted += 1;
            report.failed += u64::from(!ok);
            if phase.warmup {
                return;
            }
            if !phase.traced {
                requests += 1;
                busy_s += us / 1e6;
            }
            match &reqs[i] {
                Req::Range(q) => {
                    if phase.traced {
                        traced_range_us.push(us);
                        let stats = tracer.span("core.range", request, || session.range(q).1);
                        let fs = tracer.span("flat.range", request, || {
                            flat.range_query_scratch(q, &mut scratch, |_| {}, |_| {})
                        });
                        objects_tested += stats.objects_tested;
                        results += stats.results;
                        nodes_read += stats.nodes_read;
                        reseeds += fs.reseeds;
                        replays += 1;
                    } else {
                        range_us.push(us);
                    }
                }
                Req::Knn(p) => {
                    if phase.traced {
                        tracer.span("core.knn", request, || session.knn(*p, KNN_K as usize));
                    } else {
                        knn_us.push(us);
                    }
                }
                Req::Count(_) => {}
            }
        };

        for phase in run.phases() {
            tracer.set_enabled(phase.traced);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < phase.secs {
                one(phase, &mut report);
            }
        }
        tracer.set_enabled(false);
        Ok(())
    })
    .map_err(|e| format!("server: {e}"))??;

    report.final_ok = true;
    report.ops_per_s = requests as f64 / busy_s;
    report.detail = vec![
        metric("serve_req_per_s", report.ops_per_s, "1/s"),
        metric("serve_range_p50_us", pct("serve_range_p50_us", &range_us, 0.50)?, "us"),
        metric("serve_range_p99_us", pct("serve_range_p99_us", &range_us, 0.99)?, "us"),
        metric("serve_knn_p50_us", pct("serve_knn_p50_us", &knn_us, 0.50)?, "us"),
    ];
    report.op_us = range_us;
    report.traced_op_us = traced_range_us;
    report.params = vec![
        ("segments", db.len().to_string()),
        ("backend", "\"flat\"".into()),
        ("clients", "1".into()),
        ("server_workers", cfg.workers.to_string()),
        ("range_half_extents_um", format!("{HALF_EXTENTS:?}")),
        (
            "mix_range_knn_count",
            format!("[{RANGE_SHARE}, {KNN_SHARE}, {}]", 1.0 - RANGE_SHARE - KNN_SHARE),
        ),
        ("knn_k", KNN_K.to_string()),
        ("distinct_requests", POOL.to_string()),
    ];

    if run.trace {
        report.spans = tracer.take();
        let dur: HashMap<(u64, &str), f64> = report
            .spans
            .iter()
            .map(|s| ((s.request, s.layer), s.duration_ns() as f64 / 1e3))
            .collect();
        let of = |layer: &'static str| {
            dur.iter().filter(move |((_, l), _)| *l == layer).map(|(&(r, _), &d)| (r, d))
        };
        let core: Vec<(u64, f64)> = of("core.range").collect();
        let server_self: Vec<f64> = core.iter().map(|&(r, c)| dur[&(r, "server")] - c).collect();
        let core_self: Vec<f64> = core.iter().map(|&(r, c)| c - dur[&(r, "flat.range")]).collect();
        let core_range: Vec<f64> = core.iter().map(|&(_, c)| c).collect();
        let knn: Vec<f64> = of("core.knn").map(|(_, d)| d).collect();
        let flat_range: Vec<f64> = of("flat.range").map(|(_, d)| d).collect();
        let per_replay = |n: u64| ratio(n as f64, replays as f64);
        report.layers = vec![
            metric("server.self_us", median_or_zero(&server_self), "us"),
            metric("core.range_us", median_or_zero(&core_range), "us"),
            metric("core.knn_us", median_or_zero(&knn), "us"),
            metric("core.self_us", median_or_zero(&core_self), "us"),
            metric(
                "core.objects_tested_per_result",
                ratio(objects_tested as f64, results as f64),
                "count",
            ),
            metric("core.nodes_read_per_query", per_replay(nodes_read), "count"),
            metric("flat.range_us", median_or_zero(&flat_range), "us"),
            metric("flat.reseeds_per_query", per_replay(reseeds), "count"),
        ];
    }
    Ok(report)
}
