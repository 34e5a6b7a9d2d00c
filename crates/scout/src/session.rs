//! The exploration-session simulator: replays a branch-following
//! walkthrough against FLAT + simulated disk + LRU buffer pool and
//! reports the demo's Figure 6 statistics.
//!
//! Timing model: each step of the walkthrough issues a range query whose
//! *demand misses* stall the user (charged with the disk cost model).
//! Between steps the user inspects the visualisation for
//! [`SessionConfig::think_time_ms`]; the prefetcher may use exactly that
//! much background disk time — a prefetcher that requests more than fits
//! the budget gets cut off, so over-eager policies are penalised
//! naturally rather than by fiat.

use crate::paged::PagedIndex;
use crate::prefetch::{PrefetchContext, Prefetcher};
use neurospatial_flat::{FlatBuildParams, FlatIndex};
use neurospatial_geom::{Aabb, Vec3};
use neurospatial_model::{NavigationPath, NeuronSegment};
use neurospatial_rtree::EpochMarks;
use neurospatial_storage::{BufferPool, CostModel, DiskSim, PageId};
use std::collections::HashMap;

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// FLAT page capacity (objects per page).
    pub page_capacity: usize,
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Disk cost model.
    pub cost: CostModel,
    /// User think time between steps (ms) — the prefetch budget.
    pub think_time_ms: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            page_capacity: 64,
            buffer_pages: 256,
            cost: CostModel::default(),
            think_time_ms: 150.0,
        }
    }
}

/// Per-step record.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTrace {
    /// Pages the query demanded.
    pub pages_demanded: u64,
    /// Demand accesses satisfied by the pool.
    pub demand_hits: u64,
    /// Demand accesses that had to stall on the disk.
    pub demand_misses: u64,
    /// Stall time of this step (ms).
    pub stall_ms: f64,
    /// Pages prefetched after this step.
    pub prefetched: u64,
    /// Result size of the step's query.
    pub results: u64,
}

/// Aggregate walkthrough statistics — the numbers the demo shows live.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    pub method: String,
    pub steps: Vec<QueryTrace>,
    /// Total stall time the user experienced (ms).
    pub total_stall_ms: f64,
    /// Total pages fetched on demand (misses).
    pub total_demand_misses: u64,
    /// Total demand hits.
    pub total_demand_hits: u64,
    /// Total pages prefetched ("how much data was prefetched in total").
    pub total_prefetched: u64,
    /// Prefetched pages that a later query actually demanded ("how much
    /// was correctly prefetched").
    pub useful_prefetched: u64,
    /// Simulated background disk time spent prefetching (ms).
    pub prefetch_cost_ms: f64,
}

impl SessionStats {
    /// Demand hit ratio over the whole walkthrough.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_demand_hits + self.total_demand_misses;
        if total == 0 {
            0.0
        } else {
            self.total_demand_hits as f64 / total as f64
        }
    }

    /// Fraction of prefetched pages that were later used.
    pub fn prefetch_precision(&self) -> f64 {
        if self.total_prefetched == 0 {
            0.0
        } else {
            self.useful_prefetched as f64 / self.total_prefetched as f64
        }
    }

    /// Walkthrough speedup relative to a baseline run (stall time ratio).
    pub fn speedup_over(&self, baseline: &SessionStats) -> f64 {
        if self.total_stall_ms <= 0.0 {
            return f64::INFINITY;
        }
        baseline.total_stall_ms / self.total_stall_ms
    }
}

/// A reusable exploration environment: one paged spatial index over a
/// circuit's segments; each [`ExplorationSession::run`] replays a
/// walkthrough with a fresh disk, pool and prefetcher state.
///
/// Generic over the index: any [`PagedIndex`] implementation can drive a
/// session. FLAT is the default (and the index the demo paper uses).
pub struct ExplorationSession<I: PagedIndex = FlatIndex<NeuronSegment>> {
    index: I,
    config: SessionConfig,
}

impl ExplorationSession<FlatIndex<NeuronSegment>> {
    /// Index `segments` with FLAT and prepare the environment.
    pub fn new(segments: Vec<NeuronSegment>, config: SessionConfig) -> Self {
        let index = FlatIndex::build(
            segments,
            FlatBuildParams::default().with_page_capacity(config.page_capacity),
        );
        ExplorationSession { index, config }
    }
}

impl<I: PagedIndex> ExplorationSession<I> {
    /// Wrap an already-built paged index.
    pub fn from_index(index: I, config: SessionConfig) -> Self {
        ExplorationSession { index, config }
    }

    pub fn index(&self) -> &I {
        &self.index
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Replay `path` with `prefetcher`. Deterministic. One cursor, one
    /// [`SessionCursor::step`] per path query.
    pub fn run(&self, path: &NavigationPath, prefetcher: &mut dyn Prefetcher) -> SessionStats {
        let mut state = StepState::new(self, prefetcher.name());
        prefetcher.reset();
        for q in &path.queries {
            state.step(self, prefetcher, q);
        }
        state.stats
    }

    /// Bind a step-wise walkthrough session: a [`SessionCursor`] owns the
    /// simulated disk, buffer pool, prefetcher state and reusable query
    /// scratch, and advances one query at a time — the primitive behind
    /// repeated-query loops that do not know their whole path up front
    /// (an interactive viewer, the facade's `Query::session` binding).
    /// [`run`](Self::run) is exactly a cursor stepped over a whole path.
    pub fn cursor(&self, mut prefetcher: Box<dyn Prefetcher>) -> SessionCursor<'_, I> {
        prefetcher.reset();
        let state = StepState::new(self, prefetcher.name());
        SessionCursor { session: self, prefetcher, state }
    }
}

/// All mutable per-walkthrough state of a session replay: the simulated
/// disk and pool, prefetch provenance, query history, and the reusable
/// per-step buffers (after the first step has sized them, the demand
/// phase stops allocating).
struct StepState<'s, I: PagedIndex> {
    disk: DiskSim,
    pool: BufferPool,
    /// Pages inserted by prefetch that have not yet served a demand
    /// access (provenance for the precision statistic).
    pending_prefetch: HashMap<u32, ()>,
    history: Vec<Vec3>,
    scratch: I::Scratch,
    pages_read: Vec<u32>,
    result: Vec<&'s NeuronSegment>,
    /// The pages of the current think-time plan, each once.
    planned_pages: Vec<u32>,
    plan_marks: EpochMarks,
    stats: SessionStats,
}

impl<'s, I: PagedIndex> StepState<'s, I> {
    fn new(session: &ExplorationSession<I>, method: &str) -> Self {
        StepState {
            disk: DiskSim::new(u64::MAX, session.config.cost),
            pool: BufferPool::new(session.config.buffer_pages),
            pending_prefetch: HashMap::new(),
            history: Vec::new(),
            scratch: I::Scratch::default(),
            pages_read: Vec::new(),
            result: Vec::new(),
            planned_pages: Vec::new(),
            plan_marks: EpochMarks::default(),
            stats: SessionStats { method: method.to_string(), ..Default::default() },
        }
    }

    /// Advance one step: demand phase (stalling on misses), then the
    /// think-time prefetch phase. Appends to the running statistics and
    /// returns this step's trace.
    fn step(
        &mut self,
        session: &'s ExplorationSession<I>,
        prefetcher: &mut dyn Prefetcher,
        q: &Aabb,
    ) -> QueryTrace {
        self.history.push(q.center());
        let mut trace = QueryTrace::default();

        // --- Demand phase: run the query, stalling on misses --------
        self.pages_read.clear();
        self.result.clear();
        let (pool, pending, stats) = (&mut self.pool, &mut self.pending_prefetch, &mut self.stats);
        let (pages_read, disk) = (&mut self.pages_read, &self.disk);
        session.index.paged_range_query_scratch(
            q,
            &mut self.scratch,
            &mut |p| {
                pages_read.push(p);
                trace.pages_demanded += 1;
                let cost =
                    pool.get(PageId(p as u64), disk).expect("unbounded simulated disk cannot fail");
                if cost > 0.0 {
                    trace.demand_misses += 1;
                    trace.stall_ms += cost;
                } else {
                    trace.demand_hits += 1;
                    if pending.remove(&p).is_some() {
                        stats.useful_prefetched += 1;
                    }
                }
            },
            &mut self.result,
        );
        trace.results = self.result.len() as u64;

        // --- Think time: background prefetching ----------------------
        let ctx = PrefetchContext {
            query: q,
            result: &self.result,
            history: &self.history,
            pages_read: &self.pages_read,
        };
        let plan = prefetcher.plan(&ctx);

        // Real pages only, each once, in plan order: overlapping regions
        // name a page twice, and its second copy would cost think time
        // again if the first had been evicted by the time it came up.
        let page_count = session.index.page_count();
        self.planned_pages.clear();
        self.plan_marks.begin(page_count);
        let regions = plan.regions.iter().flat_map(|r| session.index.pages_intersecting(r));
        for p in plan.pages.iter().copied().chain(regions) {
            if (p as usize) < page_count && self.plan_marks.mark(p as usize) {
                self.planned_pages.push(p);
            }
        }

        let mut budget = session.config.think_time_ms;
        for &p in &self.planned_pages {
            if budget <= 0.0 {
                break; // think time exhausted: remaining plan dropped
            }
            if self.pool.contains(PageId(p as u64)) {
                continue;
            }
            let cost = self
                .pool
                .prefetch(PageId(p as u64), &self.disk)
                .expect("unbounded simulated disk cannot fail");
            budget -= cost;
            self.stats.prefetch_cost_ms += cost;
            trace.prefetched += 1;
            self.pending_prefetch.insert(p, ());
        }

        self.stats.total_stall_ms += trace.stall_ms;
        self.stats.total_demand_hits += trace.demand_hits;
        self.stats.total_demand_misses += trace.demand_misses;
        self.stats.total_prefetched += trace.prefetched;
        self.stats.steps.push(trace);
        trace
    }
}

/// A step-wise exploration session: feed queries one at a time, read the
/// accumulated Figure-6 statistics whenever you like. Created by
/// [`ExplorationSession::cursor`]; owns its prefetcher, simulated disk,
/// buffer pool and reusable per-step buffers, so repeated steps are as
/// allocation-disciplined as a whole-path [`ExplorationSession::run`].
pub struct SessionCursor<'s, I: PagedIndex = FlatIndex<NeuronSegment>> {
    session: &'s ExplorationSession<I>,
    prefetcher: Box<dyn Prefetcher>,
    state: StepState<'s, I>,
}

impl<'s, I: PagedIndex> SessionCursor<'s, I> {
    /// Advance the walkthrough by one query: demand phase (stalling on
    /// pool misses), then think-time prefetching. Returns this step's
    /// trace.
    pub fn step(&mut self, q: &Aabb) -> QueryTrace {
        self.state.step(self.session, self.prefetcher.as_mut(), q)
    }

    /// The result segments of the most recent step, in emission order.
    pub fn last_result(&self) -> &[&'s NeuronSegment] {
        &self.state.result
    }

    /// Statistics accumulated over every step so far.
    pub fn stats(&self) -> &SessionStats {
        &self.state.stats
    }

    /// Consume the cursor, yielding the final statistics.
    pub fn into_stats(self) -> SessionStats {
        self.state.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::{
        ExtrapolationPrefetcher, HilbertPrefetcher, NoPrefetch, ScoutPrefetcher,
    };
    use neurospatial_model::{CircuitBuilder, MorphologyParams};

    fn setup() -> (ExplorationSession, NavigationPath) {
        // Seeds chosen so the walkthrough is long (17 steps) and its
        // working set exceeds the pool — the regime where prefetch
        // accuracy decides stall time, as on the demo machine.
        let circuit =
            CircuitBuilder::new(11).neurons(12).morphology(MorphologyParams::small()).build();
        let path = NavigationPath::along_random_branch(&circuit, 1, 20.0, 8.0)
            .expect("circuit has branches");
        let session = ExplorationSession::new(
            circuit.into_segments(),
            SessionConfig { page_capacity: 32, buffer_pages: 48, ..Default::default() },
        );
        (session, path)
    }

    #[test]
    fn no_prefetch_baseline_misses_everything_first_touch() {
        let (session, path) = setup();
        let stats = session.run(&path, &mut NoPrefetch);
        assert_eq!(stats.method, "none");
        assert_eq!(stats.total_prefetched, 0);
        assert!(stats.total_demand_misses > 0);
        assert!(stats.total_stall_ms > 0.0);
        assert_eq!(stats.steps.len(), path.queries.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let (session, path) = setup();
        let a = session.run(&path, &mut ScoutPrefetcher::default());
        let b = session.run(&path, &mut ScoutPrefetcher::default());
        assert_eq!(a.total_stall_ms, b.total_stall_ms);
        assert_eq!(a.total_prefetched, b.total_prefetched);
        assert_eq!(a.useful_prefetched, b.useful_prefetched);
    }

    #[test]
    fn scout_beats_no_prefetching() {
        let (session, path) = setup();
        let none = session.run(&path, &mut NoPrefetch);
        let scout = session.run(&path, &mut ScoutPrefetcher::default());
        assert!(
            scout.total_stall_ms < none.total_stall_ms,
            "scout stall {} should beat none {}",
            scout.total_stall_ms,
            none.total_stall_ms
        );
        assert!(scout.speedup_over(&none) > 1.0);
        assert!(scout.prefetch_precision() > 0.0);
    }

    #[test]
    fn scout_stalls_less_than_location_only_policies() {
        // The paper's claim (§3): content-aware prediction beats both
        // storage-order and camera-extrapolation prefetching on jagged
        // branch-following walkthroughs. Compare aggregate stall over a
        // few paths to smooth out per-path noise.
        let circuit =
            CircuitBuilder::new(11).neurons(16).morphology(MorphologyParams::small()).build();
        let session = ExplorationSession::new(
            circuit.segments().to_vec(),
            SessionConfig { page_capacity: 32, ..Default::default() },
        );
        let (mut s_scout, mut s_hilbert, mut s_extra) = (0.0, 0.0, 0.0);
        for seed in 0..6 {
            if let Some(path) = NavigationPath::along_random_branch(&circuit, seed, 18.0, 7.0) {
                s_scout += session.run(&path, &mut ScoutPrefetcher::default()).total_stall_ms;
                s_hilbert += session.run(&path, &mut HilbertPrefetcher::default()).total_stall_ms;
                s_extra +=
                    session.run(&path, &mut ExtrapolationPrefetcher::default()).total_stall_ms;
            }
        }
        assert!(s_scout < s_hilbert, "scout {s_scout} should stall less than hilbert {s_hilbert}");
        assert!(
            s_scout < s_extra,
            "scout {s_scout} should stall less than extrapolation {s_extra}"
        );
    }

    #[test]
    fn prefetch_budget_limits_background_io() {
        let (session, path) = setup();
        let tight = SessionConfig { think_time_ms: 1.0, ..*session.config() };
        let tight_session = ExplorationSession::new(
            session.index().page_objects(0).to_vec(), // small dataset reuse
            tight,
        );
        // More simply: same dataset, tight budget.
        let _ = tight_session;
        let config = SessionConfig { think_time_ms: 0.0, page_capacity: 32, ..Default::default() };
        let s2 = ExplorationSession::new(
            {
                let c = CircuitBuilder::new(42).neurons(12).build();
                c.into_segments()
            },
            config,
        );
        let stats = s2.run(&path, &mut ScoutPrefetcher::default());
        assert_eq!(stats.total_prefetched, 0, "zero think time forbids prefetching");
    }

    #[test]
    fn query_results_unaffected_by_prefetching() {
        let (session, path) = setup();
        let a = session.run(&path, &mut NoPrefetch);
        let b = session.run(&path, &mut ScoutPrefetcher::default());
        let ra: Vec<u64> = a.steps.iter().map(|t| t.results).collect();
        let rb: Vec<u64> = b.steps.iter().map(|t| t.results).collect();
        assert_eq!(ra, rb, "prefetching must not change query semantics");
    }

    #[test]
    fn overlapping_regions_prefetch_each_page_once() {
        // With a one-page pool, every prefetch evicts the one before, so
        // a page named twice by the plan would be read (and charged)
        // twice. Each page must be prefetched exactly once.
        let circuit = CircuitBuilder::new(11).neurons(12).build();
        let session = ExplorationSession::new(
            circuit.into_segments(),
            SessionConfig {
                page_capacity: 32,
                buffer_pages: 1,
                think_time_ms: 1e9,
                ..Default::default()
            },
        );
        let index = session.index();
        let c = index.page_objects(0)[0].aabb().center();
        let (a, b) = (Aabb::cube(c, 30.0), Aabb::cube(c + Vec3::new(15.0, 0.0, 0.0), 30.0));
        let mut want = index.pages_intersecting(&a);
        want.extend(index.pages_intersecting(&b));
        want.sort_unstable();
        want.dedup();
        assert!(want.len() > 1, "the plan spans several pages");
        let plan = crate::prefetch::PrefetchPlan { regions: vec![a, b, a], pages: Vec::new() };
        let mut cur = session.cursor(Box::new(crate::prefetch::FixedPlan(plan)));
        let trace = cur.step(&Aabb::cube(Vec3::splat(1e6), 1.0));
        assert_eq!(trace.pages_demanded, 0);
        assert_eq!(trace.prefetched, want.len() as u64);
    }

    #[test]
    fn stats_derivations() {
        let s = SessionStats {
            total_demand_hits: 30,
            total_demand_misses: 10,
            total_prefetched: 40,
            useful_prefetched: 30,
            total_stall_ms: 50.0,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.prefetch_precision() - 0.75).abs() < 1e-12);
        let base = SessionStats { total_stall_ms: 500.0, ..Default::default() };
        assert!((s.speedup_over(&base) - 10.0).abs() < 1e-12);
        let zero = SessionStats::default();
        assert_eq!(zero.hit_ratio(), 0.0);
        assert!(zero.speedup_over(&base).is_infinite());
    }
}
