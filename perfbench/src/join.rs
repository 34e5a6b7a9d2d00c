//! `synapse_join`: the TOUCH ε-join of axons against dendrites through
//! the query facade, repeated back to back, each pair set checked
//! against a plane-sweep join from the `touch` crate computed once.
//! The seed splits the circuit's neurons into the two populations.

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{metric, pct, set_up, Report, Run, DATASET_SEED};
use neurospatial::prelude::*;
use neurospatial_bench::dense_circuit;
use std::time::Instant;

const NEURONS: u32 = 200;
const EPSILON_UM: f64 = 1.0;

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report { final_ok: true, ..Report::default() };
    let seed = run.seed;
    let db = set_up(&mut report.setup_s, || {
        // The seed picks which neurons are presynaptic: a fresh random
        // half of the same circuit.
        NeuroDb::builder()
            .circuit(&dense_circuit(NEURONS, DATASET_SEED))
            .split_populations("axons", "dendrites", move |s| {
                Rng::new(seed ^ u64::from(s.neuron)).next_u64().is_multiple_of(2)
            })
            .build()
            .map_err(|e| e.to_string())
    })?;
    let e = |e: NeuroError| e.to_string();
    let (axons, dendrites) =
        (db.population("axons").map_err(e)?, db.population("dendrites").map_err(e)?);
    let want = PlaneSweepJoin.join(axons, dendrites, EPSILON_UM).sorted_pairs();

    let tracer = Tracer::new();
    let mut joins_per_s = 0.0;
    let mut traced: Vec<JoinStats> = Vec::new();
    for phase in run.phases() {
        tracer.set_enabled(phase.traced);
        let mut lat = Vec::new();
        let start = Instant::now();
        let mut busy = 0.0;
        while start.elapsed().as_secs_f64() < phase.secs {
            let t = Instant::now();
            let r = tracer.span("touch.join", lat.len() as u64 + 1, || {
                db.query().touching("dendrites", EPSILON_UM).in_population("axons").collect()
            });
            let s = t.elapsed().as_secs_f64();
            busy += s;
            lat.push(s * 1e6);
            report.attempted += 1;
            let ok = match r {
                Ok(r) => {
                    if phase.traced {
                        traced.push(r.stats);
                    }
                    r.sorted_pairs() == want
                }
                Err(_) => false,
            };
            report.failed += u64::from(!ok);
        }
        if phase.warmup {
            continue;
        }
        if phase.traced {
            report.traced_op_us = lat;
        } else {
            joins_per_s = lat.len() as f64 / busy;
            report.op_us = lat;
        }
    }
    tracer.set_enabled(false);

    report.ops_per_s = joins_per_s;
    report.detail = vec![
        metric("join_per_s", joins_per_s, "1/s"),
        metric("join_p50_ms", pct("join_p50_ms", &report.op_us, 0.50)? / 1e3, "ms"),
    ];
    report.params = vec![
        ("neurons", NEURONS.to_string()),
        ("segments", db.len().to_string()),
        ("axons", axons.len().to_string()),
        ("dendrites", dendrites.len().to_string()),
        ("epsilon_um", EPSILON_UM.to_string()),
        ("pairs", want.len().to_string()),
    ];

    if !traced.is_empty() {
        let med = |f: fn(&JoinStats) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        report.layers = vec![
            metric("touch.build_ms", med(|s| s.build_ms), "ms"),
            metric("touch.assign_ms", med(|s| s.assign_ms), "ms"),
            metric("touch.join_ms", med(|s| s.join_ms), "ms"),
            metric(
                "touch.filter_comparisons_per_pair",
                med(|s| s.filter_comparisons as f64 / s.results.max(1) as f64),
                "count",
            ),
            metric("touch.refine_comparisons", med(|s| s.refine_comparisons as f64), "count"),
            metric("touch.filtered_out", med(|s| s.filtered_out as f64), "count"),
        ];
        report.spans = tracer.take();
    }
    Ok(report)
}
