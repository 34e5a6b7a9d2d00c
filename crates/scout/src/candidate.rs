//! Candidate-structure tracking (the paper's Figure 5).
//!
//! "To identify the structure the scientist follows, SCOUT exploits that
//! all queries in the spatial range query sequence must contain the
//! structure followed. It thus only considers the intersection between
//! the structures leaving the (n − 1)th query and the set of structures
//! entering the nth (the most recent) query." (§3.1)

use crate::skeleton::Skeleton;

/// Tracks which structures may be the one the user follows.
///
/// Structures have no global identity (each query reconstructs its own
/// skeleton), so continuity is established through shared segment ids:
/// consecutive queries overlap spatially, and the followed structure
/// contributes at least one common segment to both results.
#[derive(Debug, Default)]
pub struct CandidateTracker {
    /// Union of segment ids of the current candidate structures; empty
    /// before the first update (every structure is a candidate).
    pool: Vec<u64>,
    /// Candidate count after each update (the Figure 5 series).
    history: Vec<usize>,
}

impl CandidateTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Update with the skeleton of the latest query result. Returns the
    /// indices (into `skeleton.structures`) of the surviving candidates.
    pub fn advance(&mut self, skeleton: &Skeleton) -> Vec<usize> {
        let mut survivors = Vec::new();
        self.advance_into(skeleton, &mut survivors);
        survivors
    }

    /// [`advance`](Self::advance) writing the survivors into `survivors`
    /// (cleared first) and rebuilding the candidate pool in place.
    pub fn advance_into(&mut self, skeleton: &Skeleton, survivors: &mut Vec<usize>) {
        survivors.clear();
        survivors.extend(
            skeleton
                .structures
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.exits.is_empty())
                .map(|(i, _)| i),
        );
        // On the first query of the sequence every exiting structure is a
        // candidate. Later, keep those sharing segments with the pool.
        if !self.pool.is_empty() {
            let exiting = survivors.len();
            for k in 0..exiting {
                let i = survivors[k];
                if skeleton.structures[i].shares_segments_with(&self.pool) {
                    survivors.push(i);
                }
            }
            // No match means the track was lost (user jumped, or the
            // structure ended): keep all exiting structures rather than
            // predicting nothing.
            if survivors.len() > exiting {
                survivors.drain(..exiting);
            }
        }

        // New pool: union of survivor segment ids.
        self.pool.clear();
        for &i in survivors.iter() {
            self.pool.extend_from_slice(&skeleton.structures[i].segment_ids);
        }
        self.pool.sort_unstable();
        self.pool.dedup();
        self.history.push(survivors.len());
    }

    /// Candidate counts after each query — non-increasing while the track
    /// holds (the pruning the demo visualizes).
    pub fn history(&self) -> &[usize] {
        &self.history
    }

    /// Forget everything (start of a new walkthrough).
    pub fn reset(&mut self) {
        self.pool.clear();
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{SkeletonParams, Structure};
    use neurospatial_geom::{Aabb, Segment, Vec3};
    use neurospatial_model::NeuronSegment;

    fn seg(id: u64, a: (f64, f64, f64), b: (f64, f64, f64)) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: 0,
            section: 0,
            index_on_section: 0,
            geom: Segment::new(Vec3::new(a.0, a.1, a.2), Vec3::new(b.0, b.1, b.2), 0.1),
        }
    }

    fn skeleton_of(segs: &[NeuronSegment], q: &Aabb) -> Skeleton {
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        Skeleton::reconstruct(&refs, q, SkeletonParams::default())
    }

    #[test]
    fn pruning_converges_to_followed_structure() {
        // Two parallel chains; the walkthrough follows chain A (ids 0..10).
        // Chain B (ids 100..) leaves the moving window after a few steps.
        let chain = |base: u64, y: f64| -> Vec<NeuronSegment> {
            (0..20).map(|i| seg(base + i, (i as f64, y, 0.0), (i as f64 + 1.0, y, 0.0))).collect()
        };
        let a = chain(0, 0.0);
        let b = chain(100, 3.0);

        let mut tracker = CandidateTracker::new();

        // Query 1 around x≈2 sees both chains (box covers y 0 and 3).
        let q1 = Aabb::new(Vec3::new(0.0, -1.0, -1.0), Vec3::new(4.0, 4.0, 1.0));
        let mut both: Vec<NeuronSegment> = Vec::new();
        both.extend(a.iter().filter(|s| s.aabb().intersects(&q1)));
        both.extend(b.iter().filter(|s| s.aabb().intersects(&q1)));
        let s1 = skeleton_of(&both, &q1);
        let c1 = tracker.advance(&s1);
        assert_eq!(c1.len(), 2, "both chains exit the first box");

        // Query 2 moves along chain A and drops chain B.
        let q2 = Aabb::new(Vec3::new(3.0, -1.0, -1.0), Vec3::new(8.0, 1.0, 1.0));
        let only_a: Vec<NeuronSegment> =
            a.iter().filter(|s| s.aabb().intersects(&q2)).cloned().collect();
        let s2 = skeleton_of(&only_a, &q2);
        let c2 = tracker.advance(&s2);
        assert_eq!(c2.len(), 1, "only the followed chain survives");
        assert_eq!(tracker.history(), &[2, 1]);
    }

    #[test]
    fn lost_track_resets_to_all_exiting() {
        let mut tracker = CandidateTracker::new();
        let a: Vec<NeuronSegment> =
            (0..5).map(|i| seg(i, (i as f64, 0.0, 0.0), (i as f64 + 1.0, 0.0, 0.0))).collect();
        let q1 = Aabb::new(Vec3::new(0.0, -1.0, -1.0), Vec3::new(3.0, 1.0, 1.0));
        let r1: Vec<NeuronSegment> =
            a.iter().filter(|s| s.aabb().intersects(&q1)).cloned().collect();
        tracker.advance(&skeleton_of(&r1, &q1));

        // Jump to a completely different chain: no shared segments.
        let b: Vec<NeuronSegment> = (100..105)
            .map(|i| seg(i, (i as f64, 50.0, 0.0), (i as f64 + 1.0, 50.0, 0.0)))
            .collect();
        let q2 = Aabb::new(Vec3::new(100.0, 49.0, -1.0), Vec3::new(103.0, 51.0, 1.0));
        let r2: Vec<NeuronSegment> =
            b.iter().filter(|s| s.aabb().intersects(&q2)).cloned().collect();
        let c = tracker.advance(&skeleton_of(&r2, &q2));
        assert!(!c.is_empty(), "reset should recover candidates");
    }

    #[test]
    fn reset_clears_state() {
        let mut tracker = CandidateTracker::new();
        let sk = Skeleton { structures: vec![Structure { segment_ids: vec![1], exits: vec![] }] };
        tracker.advance(&sk);
        assert_eq!(tracker.history().len(), 1);
        tracker.reset();
        assert!(tracker.history().is_empty());
    }

    #[test]
    fn no_exits_yields_no_candidates() {
        // Structure fully inside the box: nothing to follow outward.
        let mut tracker = CandidateTracker::new();
        let segs = [seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))];
        let q = Aabb::cube(Vec3::ZERO, 100.0);
        let c = tracker.advance(&skeleton_of(&segs, &q));
        assert!(c.is_empty());
    }
}
