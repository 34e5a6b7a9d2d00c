//! The sorted-cell skeleton kernel against the hash-bucket kernel it
//! replaced: both must yield byte-identical structures.
//!
//! The oracle below is the previous `Skeleton::reconstruct`, kept
//! verbatim: every endpoint registered in the 27 `HashMap` cells around
//! its quantised cell, the same `distance <= tol` test, union-find, and
//! structures ordered by their smallest member id.

use neurospatial_geom::{Aabb, Segment, Vec3};
use neurospatial_model::NeuronSegment;
use neurospatial_scout::skeleton::ExitEdge;
use neurospatial_scout::{Skeleton, SkeletonParams, SkeletonScratch, Structure};
use proptest::prelude::*;
use std::collections::HashMap;

const TOLERANCES: [f64; 3] = [0.1, 0.25, 1.0];

fn oracle_reconstruct(result: &[&NeuronSegment], query: &Aabb, params: SkeletonParams) -> Skeleton {
    let n = result.len();
    let mut uf = UnionFind::new(n);

    // Spatial hash of quantised endpoints → segment indices.
    let tol = params.connect_tolerance.max(1e-9);
    let quant = |p: Vec3| -> (i64, i64, i64) {
        ((p.x / tol).round() as i64, (p.y / tol).round() as i64, (p.z / tol).round() as i64)
    };
    let mut buckets: HashMap<(i64, i64, i64), Vec<u32>> = HashMap::new();
    for (i, s) in result.iter().enumerate() {
        for p in [s.geom.p0, s.geom.p1] {
            let c = quant(p);
            // Register in the containing cell and the 26 neighbours to
            // catch pairs straddling a cell boundary.
            for dx in -1..=1i64 {
                for dy in -1..=1i64 {
                    for dz in -1..=1i64 {
                        buckets.entry((c.0 + dx, c.1 + dy, c.2 + dz)).or_default().push(i as u32);
                    }
                }
            }
        }
    }
    for (i, s) in result.iter().enumerate() {
        for p in [s.geom.p0, s.geom.p1] {
            if let Some(cands) = buckets.get(&quant(p)) {
                for &j in cands {
                    let j = j as usize;
                    if j == i {
                        continue;
                    }
                    let o = result[j];
                    if p.distance(o.geom.p0) <= tol || p.distance(o.geom.p1) <= tol {
                        uf.union(i, j);
                    }
                }
            }
        }
    }

    // Group segments by union-find root.
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        groups.entry(uf.find(i)).or_default().push(i);
    }

    let mut structures: Vec<Structure> = groups
        .into_values()
        .map(|members| {
            let mut segment_ids: Vec<u64> = members.iter().map(|&i| result[i].id).collect();
            segment_ids.sort_unstable();
            let mut exits = Vec::new();
            for &i in &members {
                if let Some(e) = exit_edge(result[i], query) {
                    exits.push(e);
                }
            }
            Structure { segment_ids, exits }
        })
        .collect();
    // Deterministic order: by smallest member id.
    structures.sort_by_key(|s| s.segment_ids[0]);
    Skeleton { structures }
}

fn exit_edge(seg: &NeuronSegment, q: &Aabb) -> Option<ExitEdge> {
    let in0 = q.contains_point(seg.geom.p0);
    let in1 = q.contains_point(seg.geom.p1);
    let (inside, outside) = match (in0, in1) {
        (true, false) => (seg.geom.p0, seg.geom.p1),
        (false, true) => (seg.geom.p1, seg.geom.p0),
        _ => return None, // fully inside or fully outside (clipped corner)
    };
    let direction = (outside - inside).normalized()?;
    Some(ExitEdge { segment_id: seg.id, exit_point: outside, direction })
}

struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

/// Random chains of connected segments plus isolated segments (the
/// generator of `proptests.rs`).
fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    (prop::collection::vec(
        // (start, steps) per chain
        (
            (-40.0..40.0, -40.0..40.0, -40.0..40.0),
            prop::collection::vec((-4.0..4.0, -4.0..4.0, -4.0..4.0), 1..12),
        ),
        1..6,
    ),)
        .prop_map(|(chains,)| {
            let mut out = Vec::new();
            let mut id = 0u64;
            for (ci, ((x, y, z), steps)) in chains.into_iter().enumerate() {
                let mut cur = Vec3::new(x, y, z);
                for (si, (dx, dy, dz)) in steps.into_iter().enumerate() {
                    let step = Vec3::new(dx, dy, dz);
                    // Skip vanishing steps to keep segments non-degenerate.
                    let next =
                        cur + if step.norm() < 0.5 { Vec3::new(1.0, 0.0, 0.0) } else { step };
                    out.push(NeuronSegment {
                        id,
                        neuron: ci as u32,
                        section: 0,
                        index_on_section: si as u32,
                        geom: Segment::new(cur, next, 0.2),
                    });
                    id += 1;
                    cur = next;
                }
            }
            out
        })
}

type LatticePoint = (i64, i64, i64);

/// Segments with both endpoints on a small lattice, in half-cell units.
fn lattice_soup() -> impl Strategy<Value = Vec<(LatticePoint, LatticePoint)>> {
    let point = || (-4i64..5, -4i64..5, -4i64..5);
    prop::collection::vec((point(), point()), 1..64)
}

/// Place a lattice soup at k·tol/2. With tol = 0.25 or 1.0 every
/// coordinate divided by tol is exactly a multiple of 0.5, so `round()`
/// meets its ties and neighbouring endpoints sit exactly tol apart. Ids
/// are scrambled so that output order is not index order.
fn on_lattice(soup: &[(LatticePoint, LatticePoint)], tol: f64) -> Vec<NeuronSegment> {
    let at = |(x, y, z): LatticePoint| {
        Vec3::new(x as f64 * tol / 2.0, y as f64 * tol / 2.0, z as f64 * tol / 2.0)
    };
    soup.iter()
        .enumerate()
        .map(|(i, &(a, b))| NeuronSegment {
            id: (i as u64 * 2_654_435_761) % (1 << 32),
            neuron: 0,
            section: 0,
            index_on_section: i as u32,
            geom: Segment::new(at(a), at(b), 0.1),
        })
        .collect()
}

/// Both kernels on one result, compared as `Debug` text; the reused
/// kernel must match too.
fn assert_same(
    result: &[&NeuronSegment],
    q: &Aabb,
    tol: f64,
    reused: &mut (Skeleton, SkeletonScratch),
) -> Result<(), TestCaseError> {
    let params = SkeletonParams { connect_tolerance: tol };
    let want = format!("{:?}", oracle_reconstruct(result, q, params).structures);
    let got = format!("{:?}", Skeleton::reconstruct(result, q, params).structures);
    prop_assert_eq!(&got, &want, "tolerance {}", tol);
    reused.0.reconstruct_into(result, q, params, &mut reused.1);
    prop_assert_eq!(format!("{:?}", reused.0.structures), want, "reused, tolerance {}", tol);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sorted_cells_match_hash_buckets_on_soups(soup in segment_soup(), half in 2.0..60.0f64) {
        let q = Aabb::cube(Vec3::ZERO, half);
        let result: Vec<&NeuronSegment> =
            soup.iter().filter(|s| s.aabb().intersects(&q)).collect();
        let mut reused = (Skeleton::default(), SkeletonScratch::new());
        for tol in TOLERANCES {
            assert_same(&result, &q, tol, &mut reused)?;
        }
    }

    #[test]
    fn sorted_cells_match_hash_buckets_on_half_cell_ties(
        soup in lattice_soup(),
        half in 1i64..6,
    ) {
        let mut reused = (Skeleton::default(), SkeletonScratch::new());
        for tol in TOLERANCES {
            let segments = on_lattice(&soup, tol);
            // The box edges sit on the lattice too, so endpoints land
            // exactly on the boundary.
            let q = Aabb::cube(Vec3::ZERO, half as f64 * tol / 2.0);
            let result: Vec<&NeuronSegment> = segments.iter().collect();
            assert_same(&result, &q, tol, &mut reused)?;
        }
    }
}
