//! Topological skeleton reconstruction.
//!
//! "While the result of query q in the sequence is loaded, SCOUT already
//! starts to reconstruct the dominating structures/the topological
//! skeleton in q and approximates them with a graph" (§3.1).
//!
//! The reconstruction uses geometry only — segment endpoints that
//! (nearly) coincide are fused into skeleton vertices via a union-find
//! over quantised endpoint cells. The ground-truth neuron/section ids on
//! [`NeuronSegment`] are deliberately ignored; tests use them to measure
//! reconstruction quality.
//!
//! ## The sorted-cell kernel
//!
//! Each endpoint is stored once, as (cell, segment index), in one sorted
//! `Vec`; the cell is the endpoint quantised to the tolerance grid. A
//! lookup scans the 27 cells around an endpoint's cell as 9 sorted
//! (x, y) columns over z−1..=z+1, each found with one `partition_point`.
//! Every segment with an endpoint in that neighbourhood is a candidate,
//! and a candidate whose either endpoint lies within the tolerance is
//! fused. No hashing, and with a warmed [`SkeletonScratch`] no
//! allocation: [`Skeleton::reconstruct_into`] reuses the cell list, the
//! union-find, the grouping buffers and the structures' own `Vec`s.

use neurospatial_geom::{Aabb, Vec3};
use neurospatial_model::NeuronSegment;

/// Skeleton reconstruction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonParams {
    /// Endpoints closer than this are considered the same skeleton vertex.
    pub connect_tolerance: f64,
}

impl Default for SkeletonParams {
    /// 0.25 µm: far below inter-neuron spacing, above float noise.
    fn default() -> Self {
        SkeletonParams { connect_tolerance: 0.25 }
    }
}

/// One reconstructed structure: a connected set of segments.
#[derive(Debug, Clone, Default)]
pub struct Structure {
    /// Object ids of member segments, sorted.
    pub segment_ids: Vec<u64>,
    /// Exit edges: segments that cross the query boundary, with the exit
    /// point (endpoint outside or on the boundary) and outward direction.
    pub exits: Vec<ExitEdge>,
}

impl Structure {
    /// True if any member segment id also appears in `other_ids`
    /// (`other_ids` must be sorted).
    pub fn shares_segments_with(&self, other_ids: &[u64]) -> bool {
        // Both sorted: linear merge.
        let (mut i, mut j) = (0, 0);
        while i < self.segment_ids.len() && j < other_ids.len() {
            match self.segment_ids[i].cmp(&other_ids[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }
}

/// A place where a structure leaves the query box.
#[derive(Debug, Clone, Copy)]
pub struct ExitEdge {
    /// Id of the crossing segment.
    pub segment_id: u64,
    /// The endpoint lying outside the query box.
    pub exit_point: Vec3,
    /// Unit direction pointing out of the box (from the inside endpoint
    /// towards the outside endpoint).
    pub direction: Vec3,
}

/// The reconstructed skeleton of one query result.
#[derive(Debug, Clone, Default)]
pub struct Skeleton {
    pub structures: Vec<Structure>,
}

/// A quantised endpoint: `round(coordinate / tolerance)` per axis.
type Cell = (i64, i64, i64);

/// Marks a root that has no group yet.
const NO_GROUP: u32 = u32::MAX;

/// Reusable working memory of [`Skeleton::reconstruct_into`].
///
/// Pair one scratch with one [`Skeleton`]: the scratch also keeps the
/// structures a smaller result left unused, so their buffers serve the
/// next larger one. After the buffers have grown to a workload's largest
/// result, reconstruction allocates nothing.
#[derive(Debug, Default)]
pub struct SkeletonScratch {
    /// Every endpoint once, as (cell, segment index), sorted.
    cells: Vec<(Cell, u32)>,
    uf: UnionFind,
    /// Union-find root → its group: first an index into `order`, then,
    /// once `order` is sorted, the group's output position.
    root_group: Vec<u32>,
    /// Per group: (smallest member id, root); sorted, this is the output
    /// order of the structures.
    order: Vec<(u64, u32)>,
    /// Structures beyond the last skeleton's length, kept for reuse.
    spare: Vec<Structure>,
}

impl SkeletonScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Skeleton {
    /// Reconstruct from a query result.
    ///
    /// `result` are the segments returned for `query`; connectivity is
    /// inferred from endpoint proximity per `params`.
    pub fn reconstruct(result: &[&NeuronSegment], query: &Aabb, params: SkeletonParams) -> Self {
        let mut skeleton = Skeleton::default();
        skeleton.reconstruct_into(result, query, params, &mut SkeletonScratch::default());
        skeleton
    }

    /// [`reconstruct`](Self::reconstruct) into `self`, reusing the
    /// buffers of `scratch` and of `self`'s previous structures. The
    /// result is identical to a fresh [`reconstruct`](Self::reconstruct).
    pub fn reconstruct_into(
        &mut self,
        result: &[&NeuronSegment],
        query: &Aabb,
        params: SkeletonParams,
        scratch: &mut SkeletonScratch,
    ) {
        let n = result.len();
        let SkeletonScratch { cells, uf, root_group, order, spare } = scratch;
        uf.reset(n);

        let tol = params.connect_tolerance.max(1e-9);
        let quant = |p: Vec3| -> Cell {
            ((p.x / tol).round() as i64, (p.y / tol).round() as i64, (p.z / tol).round() as i64)
        };
        cells.clear();
        for (i, s) in result.iter().enumerate() {
            cells.push((quant(s.geom.p0), i as u32));
            cells.push((quant(s.geom.p1), i as u32));
        }
        cells.sort_unstable();

        // Candidates of endpoint `p` of segment `i`: every segment with an
        // endpoint in the 27 cells around `p`'s cell. Fuse a candidate if
        // either of its endpoints lies within the tolerance of `p`.
        for (i, s) in result.iter().enumerate() {
            for p in [s.geom.p0, s.geom.p1] {
                let (cx, cy, cz) = quant(p);
                let (z_lo, z_hi) = (cz.saturating_sub(1), cz.saturating_add(1));
                for dx in -1..=1i64 {
                    let Some(x) = cx.checked_add(dx) else { continue };
                    for dy in -1..=1i64 {
                        let Some(y) = cy.checked_add(dy) else { continue };
                        let start = cells.partition_point(|&(c, _)| c < (x, y, z_lo));
                        for &(c, j) in &cells[start..] {
                            if c > (x, y, z_hi) {
                                break;
                            }
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
        }

        // Number the components in index order and order them by their
        // smallest member id.
        root_group.clear();
        root_group.resize(n, NO_GROUP);
        order.clear();
        for (i, s) in result.iter().enumerate() {
            let root = uf.find(i);
            if root_group[root] == NO_GROUP {
                root_group[root] = order.len() as u32;
                order.push((s.id, root as u32));
            }
            let g = &mut order[root_group[root] as usize];
            g.0 = g.0.min(s.id);
        }
        order.sort_unstable();
        for (k, &(_, root)) in order.iter().enumerate() {
            root_group[root as usize] = k as u32;
        }

        // Size the output, moving surplus structures to (and missing ones
        // from) the spare stack, so each position keeps its buffers.
        while self.structures.len() > order.len() {
            spare.extend(self.structures.pop());
        }
        while self.structures.len() < order.len() {
            self.structures.push(spare.pop().unwrap_or_default());
        }
        for s in &mut self.structures {
            s.segment_ids.clear();
            s.exits.clear();
        }
        // Members in index order, so exits keep the result's order.
        for (i, seg) in result.iter().enumerate() {
            let s = &mut self.structures[root_group[uf.find(i)] as usize];
            s.segment_ids.push(seg.id);
            s.exits.extend(exit_edge(seg, query));
        }
        for s in &mut self.structures {
            s.segment_ids.sort_unstable();
        }
    }

    /// Structures that leave the query box.
    pub fn exiting(&self) -> impl Iterator<Item = &Structure> {
        self.structures.iter().filter(|s| !s.exits.is_empty())
    }
}

/// Detect whether `seg` crosses the boundary of `q` and build the exit
/// edge if it does.
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

/// Plain union-find with path halving + union by size.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singletons, reusing the buffers.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Segment;

    fn seg(id: u64, a: (f64, f64, f64), b: (f64, f64, f64)) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: 0,
            section: 0,
            index_on_section: 0,
            geom: Segment::new(Vec3::new(a.0, a.1, a.2), Vec3::new(b.0, b.1, b.2), 0.1),
        }
    }

    #[test]
    fn chains_fuse_into_one_structure() {
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
            seg(2, (2.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
            // Disconnected second chain.
            seg(3, (0.0, 5.0, 0.0), (1.0, 5.0, 0.0)),
            seg(4, (1.0, 5.0, 0.0), (2.0, 5.0, 0.0)),
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(10.0, 10.0, 1.0));
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 2);
        assert_eq!(sk.structures[0].segment_ids, vec![0, 1, 2]);
        assert_eq!(sk.structures[1].segment_ids, vec![3, 4]);
    }

    #[test]
    fn branching_structures_stay_connected() {
        // Y-shape: two children share the parent's tip.
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.0, 0.0, 0.0), (2.0, 1.0, 0.0)),
            seg(2, (1.0, 0.0, 0.0), (2.0, -1.0, 0.0)),
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::cube(Vec3::new(1.0, 0.0, 0.0), 5.0);
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 1);
        assert_eq!(sk.structures[0].segment_ids, vec![0, 1, 2]);
    }

    #[test]
    fn tolerance_controls_fusion() {
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.3, 0.0, 0.0), (2.0, 0.0, 0.0)), // 0.3 gap
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::cube(Vec3::new(1.0, 0.0, 0.0), 5.0);
        let tight = Skeleton::reconstruct(&refs, &q, SkeletonParams { connect_tolerance: 0.1 });
        assert_eq!(tight.structures.len(), 2);
        let loose = Skeleton::reconstruct(&refs, &q, SkeletonParams { connect_tolerance: 0.5 });
        assert_eq!(loose.structures.len(), 1);
    }

    #[test]
    fn exit_edges_detected_with_direction() {
        let q = Aabb::cube(Vec3::ZERO, 2.0);
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), // inside
            seg(1, (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)), // crosses +x
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 1);
        let s = &sk.structures[0];
        assert_eq!(s.exits.len(), 1);
        let e = &s.exits[0];
        assert_eq!(e.segment_id, 1);
        assert_eq!(e.exit_point, Vec3::new(3.0, 0.0, 0.0));
        assert!((e.direction - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-9);
        assert_eq!(sk.exiting().count(), 1);
    }

    #[test]
    fn fully_inside_structure_has_no_exits() {
        let q = Aabb::cube(Vec3::ZERO, 10.0);
        let segs = [seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.exiting().count(), 0);
    }

    #[test]
    fn reconstruct_into_reuse_matches_fresh_reconstruction() {
        // One skeleton and scratch across results that grow, shrink and
        // change shape: every pass equals a fresh reconstruction.
        use neurospatial_model::CircuitBuilder;
        let c = CircuitBuilder::new(5).neurons(3).build();
        let all: Vec<&NeuronSegment> = c.segments().iter().collect();
        let mut sk = Skeleton::default();
        let mut scratch = SkeletonScratch::new();
        for (i, len) in [all.len(), 7, 0, 40, 1, all.len() / 2, all.len()].into_iter().enumerate() {
            let result = &all[i % 3..len.max(i % 3)];
            let q = Aabb::cube(c.bounds().center(), 10.0 + 15.0 * i as f64);
            for tol in [0.1, 0.25, 1.0] {
                let params = SkeletonParams { connect_tolerance: tol };
                sk.reconstruct_into(result, &q, params, &mut scratch);
                let fresh = Skeleton::reconstruct(result, &q, params);
                assert_eq!(format!("{:?}", sk.structures), format!("{:?}", fresh.structures));
            }
        }
    }

    #[test]
    fn shares_segments_merge_check() {
        let s = Structure { segment_ids: vec![2, 5, 9], exits: vec![] };
        assert!(s.shares_segments_with(&[1, 5, 7]));
        assert!(!s.shares_segments_with(&[1, 3, 7]));
        assert!(!s.shares_segments_with(&[]));
    }

    #[test]
    fn reconstruction_matches_ground_truth_on_circuit() {
        // On a real generated circuit, segments of the same section chain
        // must reconstruct into the same structure.
        use neurospatial_model::CircuitBuilder;
        let c = CircuitBuilder::new(3).neurons(2).build();
        let q = c.bounds().inflate(1.0); // everything inside, no clipping
        let refs: Vec<&NeuronSegment> = c.segments().iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        // Structures never mix neurons (neurons are spatially separated by
        // construction only per-section; two neurons CAN touch, so check
        // the weaker direction: every section's segments are together).
        use std::collections::HashMap;
        let mut seg_to_structure: HashMap<u64, usize> = HashMap::new();
        for (si, s) in sk.structures.iter().enumerate() {
            for &id in &s.segment_ids {
                seg_to_structure.insert(id, si);
            }
        }
        for w in c.segments().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.neuron == b.neuron
                && a.section == b.section
                && a.index_on_section + 1 == b.index_on_section
            {
                assert_eq!(
                    seg_to_structure[&a.id], seg_to_structure[&b.id],
                    "consecutive segments of one section split across structures"
                );
            }
        }
    }
}
