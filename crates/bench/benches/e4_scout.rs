//! E4 wall-clock companion (demo Figure 6): full walkthrough replay cost
//! per prefetching method, including skeleton reconstruction overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use neurospatial::prelude::*;
use neurospatial_bench::{jagged_circuit, walkthrough_config, walkthrough_paths};
use std::hint::black_box;

fn bench_walkthrough(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_walkthrough");
    group.sample_size(10);

    let circuit = jagged_circuit(12, 9);
    let session = ExplorationSession::new(circuit.segments().to_vec(), walkthrough_config());
    let paths = walkthrough_paths(&circuit, 3);
    assert!(!paths.is_empty(), "bench workload must produce paths");

    for m in WalkthroughMethod::ALL {
        group.bench_function(format!("{m:?}"), |b| {
            b.iter(|| {
                let mut stall = 0.0;
                for p in &paths {
                    let mut pf = m.prefetcher();
                    stall += session.run(black_box(p), pf.as_mut()).total_stall_ms;
                }
                stall
            })
        });
    }
    group.finish();
}

fn bench_skeleton_reconstruction(c: &mut Criterion) {
    // SCOUT's own overhead must stay far below think time; this measures
    // the skeleton + pruning step in isolation.
    use neurospatial::scout::{Skeleton, SkeletonParams};
    let circuit = jagged_circuit(12, 9);
    let db = NeuroDb::from_circuit(&circuit);
    let q = Aabb::cube(circuit.bounds().center(), 25.0);
    let out = db.query().range(q).collect().expect("range query");
    let result: Vec<&NeuronSegment> = out.segments.iter().collect();

    let mut group = c.benchmark_group("e4_skeleton");
    group.sample_size(30);
    group.bench_function(format!("reconstruct_{}_segments", result.len()), |b| {
        b.iter(|| {
            Skeleton::reconstruct(black_box(&result), &q, SkeletonParams::default())
                .structures
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_walkthrough, bench_skeleton_reconstruction);
criterion_main!(benches);
