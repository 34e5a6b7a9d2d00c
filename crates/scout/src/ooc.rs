//! Out-of-core FLAT: the paged engine over the real storage stack.
//!
//! Everything else in this crate *simulates* I/O; this module does it
//! for real. A built [`FlatIndex`] is serialized to a page file
//! ([`write_flat_index`]) — per-page MBRs, the neighborhood CSR and the
//! build parameters in the metadata blob, each page's segments as its
//! page payload — and [`OocFlatIndex`] queries it back through a pinning
//! [`FramePool`] with a configurable frame budget, so the dataset no
//! longer has to fit in RAM.
//!
//! ## Equivalence contract
//!
//! The paged engine replays FLAT's seed-and-crawl *exactly*: the seed
//! tree is rebuilt from the persisted page MBRs with the persisted
//! fan-out (bit-identical input ⇒ identical STR structure ⇒ identical
//! descent), and the crawl follows the persisted CSR in the same order.
//! Results, emission order and the logical query statistics
//! (`seed_nodes_read`, `pages_read`, `objects_tested`, `results`,
//! `links_rejected`, `reseeds`) are byte-identical to the in-memory
//! index the file was written from — the property
//! `tests/ooc_equivalence.rs` proves under proptest. What differs is
//! the [`OocIoTrace`]: cache hits, misses and real wall-clock stall.
//!
//! ## Real background prefetching
//!
//! With `prefetch_workers > 0`, the index runs a background dispatcher
//! thread that fans page reads out over [`Executor::io_bound`] workers.
//! Two producers feed it ahead of the demand stream:
//!
//! - the **crawl frontier**: pages newly admitted to the BFS queue are
//!   enqueued the moment they are discovered, so their reads overlap
//!   with scanning the pages ahead of them in the queue;
//! - the **exploration cursor** ([`OocCursor`]): after each
//!   walkthrough step, the configured [`Prefetcher`] policy (SCOUT,
//!   Hilbert, …) predicts the next regions and their pages are fetched
//!   during the user's think time.
//!
//! A demand read that catches an in-flight prefetch waits only for the
//! remainder of that read — the pool's loading protocol — which is the
//! stall-hiding effect `--scenario=ooc` measures.

use crate::prefetch::{PrefetchContext, Prefetcher};
use crate::session::QueryTrace;
use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatQueryStats, PackingStrategy};
use neurospatial_geom::{Aabb, Executor, Flow, Vec3};
use neurospatial_model::NeuronSegment;
use neurospatial_rtree::{EpochMarks, RTree, RTreeObject, RTreeParams, TraversalScratch};
use neurospatial_storage::{
    with_retry_sleeping, EvictionPolicy, FramePool, PageFile, PageFileWriter, PageIo, RetryPolicy,
    StorageError, PAGE_HEADER_BYTES,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Magic of the FLAT metadata blob inside a page file.
pub const FLAT_META_MAGIC: [u8; 4] = *b"FLTM";
/// Version of the FLAT metadata layout.
pub const FLAT_META_VERSION: u32 = 1;
/// Bytes per serialized segment record (same layout as `model::io`):
/// id, neuron, section, index, reserved, then 7 `f64` geometry fields.
pub const SEGMENT_RECORD_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 7 * 8;

// --- Serialization ------------------------------------------------------

fn encode_segment(s: &NeuronSegment, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.id.to_le_bytes());
    out.extend_from_slice(&s.neuron.to_le_bytes());
    out.extend_from_slice(&s.section.to_le_bytes());
    out.extend_from_slice(&s.index_on_section.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    for v in [
        s.geom.p0.x,
        s.geom.p0.y,
        s.geom.p0.z,
        s.geom.p1.x,
        s.geom.p1.y,
        s.geom.p1.z,
        s.geom.radius,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over a byte slice with total (never-panicking) primitive reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StorageError::Corrupt("metadata ends mid-field".to_string()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn decode_page_segments(
    payload: &[u8],
    page: u64,
    out: &mut Vec<NeuronSegment>,
) -> Result<(), StorageError> {
    out.clear();
    if !payload.len().is_multiple_of(SEGMENT_RECORD_BYTES) {
        return Err(StorageError::Corrupt(format!(
            "page {page}: payload of {} bytes is not a whole number of records",
            payload.len()
        )));
    }
    let mut r = Reader::new(payload);
    for i in 0..payload.len() / SEGMENT_RECORD_BYTES {
        let id = r.u64()?;
        let neuron = r.u32()?;
        let section = r.u32()?;
        let index_on_section = r.u32()?;
        let _reserved = r.u32()?;
        let p0 = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        let p1 = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        let radius = r.f64()?;
        let geom = neurospatial_geom::Segment { p0, p1, radius };
        if !geom.is_valid() {
            return Err(StorageError::Corrupt(format!(
                "page {page}: record {i} has non-finite geometry"
            )));
        }
        out.push(NeuronSegment { id, neuron, section, index_on_section, geom });
    }
    Ok(())
}

/// Serialize a built FLAT index to a page file at `path`.
///
/// Page `p` of the file holds page `p`'s segments as fixed-size records
/// ([`SEGMENT_RECORD_BYTES`] each);
/// the metadata blob holds the build parameters, every page MBR and the
/// neighborhood CSR — everything [`OocFlatIndex::open`] needs to replay
/// queries without the in-memory index.
pub fn write_flat_index(index: &FlatIndex<NeuronSegment>, path: &Path) -> Result<(), StorageError> {
    let params = index.params();
    let page_size = PAGE_HEADER_BYTES + params.page_capacity * SEGMENT_RECORD_BYTES;
    let mut w = PageFileWriter::create(path, page_size)?;
    let mut payload = Vec::with_capacity(page_size);
    for page in 0..index.page_count() as u32 {
        payload.clear();
        for s in index.page_objects(page) {
            encode_segment(s, &mut payload);
        }
        w.append_page(&payload)?;
    }

    let (offsets, ids) = index.neighbor_csr();
    let mut meta = Vec::new();
    meta.extend_from_slice(&FLAT_META_MAGIC);
    meta.extend_from_slice(&FLAT_META_VERSION.to_le_bytes());
    meta.extend_from_slice(&(params.page_capacity as u32).to_le_bytes());
    meta.extend_from_slice(&(params.seed_fanout as u32).to_le_bytes());
    meta.extend_from_slice(&params.hilbert_bits.to_le_bytes());
    let packing: u32 = match params.packing {
        PackingStrategy::Hilbert => 0,
        PackingStrategy::Morton => 1,
        PackingStrategy::CoordinateSort => 2,
    };
    meta.extend_from_slice(&packing.to_le_bytes());
    meta.extend_from_slice(&params.neighbor_epsilon.to_le_bytes());
    meta.extend_from_slice(&(index.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(index.page_count() as u64).to_le_bytes());
    for page in 0..index.page_count() as u32 {
        let mbr = index.page_mbr(page);
        for v in [mbr.lo.x, mbr.lo.y, mbr.lo.z, mbr.hi.x, mbr.hi.y, mbr.hi.z] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &o in offsets {
        meta.extend_from_slice(&o.to_le_bytes());
    }
    for &n in ids {
        meta.extend_from_slice(&n.to_le_bytes());
    }
    w.finish(&meta)
}

// --- Configuration ------------------------------------------------------

/// How to open an [`OocFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocConfig {
    /// Buffer-pool budget in frames (pages held in RAM at once).
    /// `0` means "all pages" — a fully cached, still checksum-verified
    /// run.
    pub frame_budget: usize,
    /// Replacement policy of the frame pool.
    pub eviction: EvictionPolicy,
    /// Background prefetch workers. `0` disables prefetching entirely
    /// (every page read is a demand read).
    pub prefetch_workers: usize,
    /// Verify every page's checksum once at open (in addition to the
    /// always-on per-read verification). Keeps the infallible facade
    /// honest: with this on, a corrupt file cannot get past `open`.
    /// The sweep covers the *whole* file and reports every bad page in
    /// one [`StorageError::BadPages`], so operators see the full blast
    /// radius in a single pass.
    pub validate_pages: bool,
    /// Bounded-retry policy for transient page-read failures (`EINTR`,
    /// `EWOULDBLOCK`, timeouts). Permanent errors — checksum mismatches,
    /// structural corruption — are never retried.
    pub retry: RetryPolicy,
}

impl Default for OocConfig {
    fn default() -> Self {
        OocConfig {
            frame_budget: 0,
            eviction: EvictionPolicy::Clock,
            prefetch_workers: 0,
            validate_pages: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl OocConfig {
    /// Set the frame budget (in frames).
    pub fn with_frame_budget(mut self, frames: usize) -> Self {
        self.frame_budget = frames;
        self
    }

    /// Set the eviction policy.
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Set the number of background prefetch workers.
    pub fn with_prefetch_workers(mut self, workers: usize) -> Self {
        self.prefetch_workers = workers;
        self
    }

    /// Set the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

// --- The paged index ----------------------------------------------------

/// Seed-tree entry: one page's MBR (mirror of the in-memory index's
/// private `PageEntry`).
#[derive(Debug, Clone, Copy)]
struct OocPageEntry {
    mbr: Aabb,
    page: u32,
}

impl RTreeObject for OocPageEntry {
    fn aabb(&self) -> Aabb {
        self.mbr
    }
}

/// Real I/O counters of one paged query — the part of the statistics
/// that legitimately differs from the in-memory engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocIoTrace {
    /// Wall-clock nanoseconds the query spent blocked on page reads
    /// (demand misses plus waits for in-flight prefetches).
    pub stall_ns: u64,
    /// Demand page requests served from the frame pool.
    pub cache_hits: u64,
    /// Demand page requests that went to disk.
    pub cache_misses: u64,
    /// Demand hits whose frame had been loaded by a prefetch.
    pub prefetch_hits: u64,
    /// Frames evicted while this query ran (pool-wide, so concurrent
    /// background prefetching is included).
    pub evictions: u64,
    /// Pages handed to the background prefetcher by the crawl frontier.
    pub prefetch_enqueued: u64,
    /// Transient page-read failures recovered by the bounded-retry
    /// path during this query.
    pub retries: u64,
    /// Quarantined pages this query skipped (only in
    /// partial-results mode; a strict query fails instead).
    pub pages_quarantined: u64,
}

/// Statistics of one paged query: FLAT's logical counters (byte-identical
/// to the in-memory engine) plus the real I/O trace.
#[derive(Debug, Clone, Default)]
pub struct OocQueryStats {
    /// The logical seed-and-crawl counters.
    pub flat: FlatQueryStats,
    /// The physical I/O counters.
    pub io: OocIoTrace,
}

/// Reusable per-query state of the paged engine: crawl front, visited
/// marks, seed-tree scratch and the page-decode buffer.
#[derive(Debug, Default)]
pub struct OocScratch {
    queue: VecDeque<u32>,
    visited: EpochMarks,
    seed: TraversalScratch,
    segs: Vec<NeuronSegment>,
    frontier: Vec<u32>,
}

impl OocScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Default)]
struct PrefetchQueue {
    pages: VecDeque<u32>,
    shutdown: bool,
}

struct PrefetchShared {
    queue: Mutex<PrefetchQueue>,
    ready: Condvar,
}

/// Cap on the dispatcher's backlog: beyond this, newly discovered pages
/// are dropped rather than queued — a prefetcher that cannot keep up
/// must not grow an unbounded queue of stale predictions.
const PREFETCH_QUEUE_CAP: usize = 4096;
/// Pages the dispatcher drains per batch before fanning out.
const PREFETCH_BATCH: usize = 64;

/// Process-wide prefetch dispatch counters (page-level load outcomes
/// live under `storage_frame_*`; these count the hand-off itself).
struct ScoutPrefetchObs {
    enqueued: std::sync::Arc<neurospatial_obs::Counter>,
    dropped: std::sync::Arc<neurospatial_obs::Counter>,
}

fn scout_prefetch_obs() -> &'static ScoutPrefetchObs {
    static OBS: std::sync::OnceLock<ScoutPrefetchObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ScoutPrefetchObs {
        enqueued: neurospatial_obs::global().counter("scout_prefetch_enqueued_total"),
        dropped: neurospatial_obs::global().counter("scout_prefetch_dropped_total"),
    })
}

struct PrefetchHandle {
    shared: Arc<PrefetchShared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl PrefetchHandle {
    fn spawn(workers: usize, file: Arc<dyn PageIo>, pool: Arc<FramePool>) -> Self {
        let shared = Arc::new(PrefetchShared {
            queue: Mutex::new(PrefetchQueue::default()),
            ready: Condvar::new(),
        });
        let shared2 = Arc::clone(&shared);
        let dispatcher = std::thread::spawn(move || {
            let exec = Executor::io_bound(workers);
            let mut batch: Vec<u32> = Vec::with_capacity(PREFETCH_BATCH);
            loop {
                {
                    let mut q = shared2.queue.lock().unwrap_or_else(|p| p.into_inner());
                    while q.pages.is_empty() && !q.shutdown {
                        q = shared2.ready.wait(q).unwrap_or_else(|p| p.into_inner());
                    }
                    if q.shutdown {
                        return;
                    }
                    batch.clear();
                    while batch.len() < PREFETCH_BATCH {
                        match q.pages.pop_front() {
                            Some(p) => batch.push(p),
                            None => break,
                        }
                    }
                }
                // Real background page reads, fanned out over io-bound
                // Executor workers. Best-effort: a corrupt or missing
                // page is simply not cached — the demand path will
                // surface the typed error.
                let file = &file;
                let pool = &pool;
                let batch_ref = &batch;
                exec.map_chunks(batch.len(), |range| {
                    for &page in &batch_ref[range] {
                        let _ = pool.prefetch(u64::from(page), file.as_ref());
                    }
                });
            }
        });
        PrefetchHandle { shared, dispatcher: Some(dispatcher) }
    }

    /// Queue pages for background loading; returns how many were
    /// accepted (the backlog cap may drop the rest).
    fn enqueue(&self, pages: &[u32]) -> u64 {
        if pages.is_empty() {
            return 0;
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        let mut accepted = 0;
        for &p in pages {
            if q.pages.len() >= PREFETCH_QUEUE_CAP {
                break;
            }
            q.pages.push_back(p);
            accepted += 1;
        }
        drop(q);
        scout_prefetch_obs().enqueued.add(accepted);
        scout_prefetch_obs().dropped.add(pages.len() as u64 - accepted);
        if accepted > 0 {
            self.shared.ready.notify_all();
        }
        accepted
    }
}

impl Drop for PrefetchHandle {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.shutdown = true;
        }
        self.ready_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl PrefetchHandle {
    fn ready_all(&self) {
        self.shared.ready.notify_all();
    }
}

/// The out-of-core FLAT index: queries a page file through a pinning
/// frame pool, optionally with real background prefetching.
///
/// Results and logical statistics are byte-identical to the
/// [`FlatIndex`] the file was written from (see the [module
/// docs](self)); all fallible surface area is typed — a corrupt file
/// fails [`open`](Self::open), and a page that rots afterwards fails
/// the individual query with [`StorageError::PageChecksum`].
pub struct OocFlatIndex {
    file: Arc<dyn PageIo>,
    pool: Arc<FramePool>,
    params: FlatBuildParams,
    object_count: u64,
    page_mbrs: Vec<Aabb>,
    neighbor_offsets: Vec<u32>,
    neighbor_ids: Vec<u32>,
    seed_tree: RTree<OocPageEntry>,
    prefetch: Option<PrefetchHandle>,
    retry: RetryPolicy,
    path: PathBuf,
    delete_on_drop: bool,
}

impl std::fmt::Debug for OocFlatIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocFlatIndex")
            .field("path", &self.path)
            .field("objects", &self.object_count)
            .field("pages", &self.page_mbrs.len())
            .field("frame_budget", &self.pool.capacity())
            .field("eviction", &self.pool.policy())
            .field("prefetch", &self.prefetch.is_some())
            .finish()
    }
}

impl OocFlatIndex {
    /// Open a page file written by [`write_flat_index`].
    ///
    /// Total on untrusted input: any structural problem — page-file
    /// corruption, a foreign metadata blob, inconsistent CSR, and (with
    /// [`OocConfig::validate_pages`]) any corrupt page — returns a typed
    /// [`StorageError`].
    pub fn open(path: &Path, config: OocConfig) -> Result<Self, StorageError> {
        Self::open_with(path, config, |file| Arc::new(file))
    }

    /// Like [`open`](Self::open), but page reads go through the
    /// [`PageIo`] returned by `wrap` instead of the raw [`PageFile`] —
    /// the seam the chaos suite uses to interpose a fault-injecting
    /// [`FaultFile`](neurospatial_storage::FaultFile). Header and
    /// metadata parsing always read the real file (they happen before
    /// `wrap` runs); the open-time validation sweep, demand reads and
    /// prefetches all go through the wrapper.
    pub fn open_with<W>(path: &Path, config: OocConfig, wrap: W) -> Result<Self, StorageError>
    where
        W: FnOnce(PageFile) -> Arc<dyn PageIo>,
    {
        let file = PageFile::open(path)?;
        let mut r = Reader::new(file.meta());
        if r.take(4)? != FLAT_META_MAGIC {
            return Err(StorageError::Corrupt("not a FLAT metadata blob".to_string()));
        }
        let version = r.u32()?;
        if version != FLAT_META_VERSION {
            return Err(StorageError::BadVersion(version));
        }
        let page_capacity = r.u32()? as usize;
        let seed_fanout = r.u32()? as usize;
        let hilbert_bits = r.u32()?;
        let packing = match r.u32()? {
            0 => PackingStrategy::Hilbert,
            1 => PackingStrategy::Morton,
            2 => PackingStrategy::CoordinateSort,
            other => {
                return Err(StorageError::Corrupt(format!("unknown packing strategy {other}")))
            }
        };
        let neighbor_epsilon = r.f64()?;
        let object_count = r.u64()?;
        let page_count = r.u64()?;
        if page_count != file.page_count() {
            return Err(StorageError::Corrupt(format!(
                "metadata declares {page_count} pages, file holds {}",
                file.page_count()
            )));
        }
        if page_count > (1 << 32) - 1 {
            return Err(StorageError::Corrupt(format!("{page_count} pages exceed u32 ids")));
        }
        if page_capacity == 0
            || !(1..=64).contains(&hilbert_bits)
            || seed_fanout < 2
            || !neighbor_epsilon.is_finite()
            || neighbor_epsilon < 0.0
        {
            return Err(StorageError::Corrupt("implausible build parameters".to_string()));
        }
        let n = page_count as usize;
        let mut page_mbrs = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
            let hi = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
            // Exact roundtrip: the writer dumped lo/hi verbatim, so the
            // struct literal (no re-ordering) reproduces the original
            // bits.
            page_mbrs.push(Aabb { lo, hi });
        }
        let mut neighbor_offsets = Vec::with_capacity(n + 1);
        for _ in 0..n + 1 {
            neighbor_offsets.push(r.u32()?);
        }
        let link_count = *neighbor_offsets.last().unwrap_or(&0) as usize;
        if neighbor_offsets.first().copied().unwrap_or(0) != 0
            || neighbor_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(StorageError::Corrupt("neighbor offsets not monotonic".to_string()));
        }
        let mut neighbor_ids = Vec::with_capacity(link_count);
        for _ in 0..link_count {
            let id = r.u32()?;
            if u64::from(id) >= page_count {
                return Err(StorageError::Corrupt(format!("neighbor id {id} out of range")));
            }
            neighbor_ids.push(id);
        }
        if r.pos != file.meta().len() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing metadata bytes",
                file.meta().len() - r.pos
            )));
        }

        let params =
            FlatBuildParams { page_capacity, packing, neighbor_epsilon, hilbert_bits, seed_fanout };

        // Rebuild the seed tree exactly as the in-memory build does:
        // same entries, same order, same fan-out, frozen — so seed
        // descents and re-seed scans visit the same nodes and return the
        // same counters.
        let entries: Vec<OocPageEntry> = page_mbrs
            .iter()
            .enumerate()
            .map(|(i, &mbr)| OocPageEntry { mbr, page: i as u32 })
            .collect();
        let mut seed_tree = RTree::bulk_load(entries, RTreeParams::with_max_entries(seed_fanout));
        seed_tree.freeze();

        let frames = if config.frame_budget == 0 { n.max(1) } else { config.frame_budget };
        let pool = Arc::new(FramePool::new(frames, config.eviction));
        let file: Arc<dyn PageIo> = wrap(file);

        if config.validate_pages {
            // One sequential checksum pass over every page, and a record
            // count cross-check against the declared object count. After
            // this, only post-open rot or OS-level I/O failure can make
            // a query fail. The sweep never aborts early: every bad page
            // is collected so the error reports the full blast radius.
            let mut buf = Vec::new();
            let mut segs = Vec::new();
            let mut total = 0u64;
            let mut bad_pages = Vec::new();
            for page in 0..page_count {
                let (res, _retries) = with_retry_sleeping(&config.retry, page, || {
                    file.read_page_into(page, &mut buf)
                });
                match res.and_then(|()| decode_page_segments(&buf, page, &mut segs)) {
                    Ok(()) => total += segs.len() as u64,
                    Err(e) if e.is_transient() => return Err(e),
                    Err(_) => bad_pages.push(page),
                }
            }
            if !bad_pages.is_empty() {
                return Err(StorageError::BadPages { pages: bad_pages });
            }
            if total != object_count {
                return Err(StorageError::Corrupt(format!(
                    "pages hold {total} records, metadata declares {object_count}"
                )));
            }
        }

        let prefetch = (config.prefetch_workers > 0).then(|| {
            PrefetchHandle::spawn(config.prefetch_workers, Arc::clone(&file), Arc::clone(&pool))
        });

        Ok(OocFlatIndex {
            file,
            pool,
            params,
            object_count,
            page_mbrs,
            neighbor_offsets,
            neighbor_ids,
            seed_tree,
            prefetch,
            retry: config.retry,
            path: path.to_path_buf(),
            delete_on_drop: false,
        })
    }

    /// Re-validate every page through the current I/O stack, reporting
    /// *all* bad pages in one [`StorageError::BadPages`] — the
    /// blast-radius sweep operators run after suspected rot. Transient
    /// failures are retried under the configured policy; an
    /// unrecoverable transient error aborts the sweep.
    pub fn validate_pages(&self) -> Result<(), StorageError> {
        let mut buf = Vec::new();
        let mut segs = Vec::new();
        let mut bad_pages = Vec::new();
        for page in 0..self.page_mbrs.len() as u64 {
            let (res, _retries) =
                with_retry_sleeping(&self.retry, page, || self.file.read_page_into(page, &mut buf));
            match res.and_then(|()| decode_page_segments(&buf, page, &mut segs)) {
                Ok(()) => {}
                Err(e) if e.is_transient() => return Err(e),
                Err(_) => bad_pages.push(page),
            }
        }
        if bad_pages.is_empty() {
            Ok(())
        } else {
            Err(StorageError::BadPages { pages: bad_pages })
        }
    }

    /// Pages the pool has quarantined after permanent read failures,
    /// ascending. Queries in partial mode skip these; strict queries
    /// touching them fail with [`StorageError::Quarantined`].
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.pool.quarantined()
    }

    /// Delete the page file when this index is dropped (used for
    /// facade-managed temporary spill files).
    pub fn set_delete_on_drop(&mut self, delete: bool) {
        self.delete_on_drop = delete;
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.object_count as usize
    }

    /// True when the index holds no objects.
    pub fn is_empty(&self) -> bool {
        self.object_count == 0
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.page_mbrs.len()
    }

    /// Bounding box of all objects (seed-tree root MBR).
    pub fn bounds(&self) -> Aabb {
        self.seed_tree.root_mbr()
    }

    /// The persisted build parameters.
    pub fn params(&self) -> &FlatBuildParams {
        &self.params
    }

    /// The backing page file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The frame pool (budget, policy, counters).
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Whether background prefetch workers are running.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch.is_some()
    }

    /// Seed-tree height (the seed phase cost bound).
    pub fn seed_tree_height(&self) -> usize {
        self.seed_tree.height()
    }

    /// Ids of all pages whose MBR intersects `q` (metadata only — no
    /// page I/O). Prefetch policies use this to translate predicted
    /// regions into pages.
    pub fn pages_intersecting(&self, q: &Aabb) -> Vec<u32> {
        let mut pages = Vec::new();
        self.for_each_page_intersecting(q, &mut TraversalScratch::default(), |p| pages.push(p));
        pages
    }

    /// [`pages_intersecting`](Self::pages_intersecting) without the
    /// result `Vec`: each page id goes to `sink`, in the same order, and
    /// the seed-tree traversal state lives in `scratch`.
    pub fn for_each_page_intersecting<S: FnMut(u32)>(
        &self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        mut sink: S,
    ) {
        self.seed_tree.range_query_scratch(q, scratch, |e| sink(e.page));
    }

    /// Resident memory of the paged engine: frames + metadata + seed
    /// tree (the segments themselves live on disk).
    pub fn memory_bytes(&self) -> usize {
        self.pool.capacity() * self.file.page_size()
            + self.page_mbrs.capacity() * std::mem::size_of::<Aabb>()
            + (self.neighbor_offsets.capacity() + self.neighbor_ids.capacity()) * 4
            + self.seed_tree.memory_bytes()
    }

    fn neighbors_of(&self, page: u32) -> &[u32] {
        let a = self.neighbor_offsets[page as usize] as usize;
        let b = self.neighbor_offsets[page as usize + 1] as usize;
        &self.neighbor_ids[a..b]
    }

    /// Hand pages to the background prefetcher (no-op without workers).
    /// Returns how many the backlog accepted.
    pub fn prefetch_pages(&self, pages: &[u32]) -> u64 {
        match &self.prefetch {
            Some(h) => h.enqueue(pages),
            None => 0,
        }
    }

    /// Streaming seed-and-crawl over the page file — the paged
    /// equivalent of [`FlatIndex::range_query_stream`]. `on_page` fires
    /// once per data page in crawl order; `sink` controls the stream
    /// ([`Flow::Emit`]/[`Flow::Skip`]/[`Flow::Last`]).
    pub fn range_query_stream<F, S>(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        on_page: F,
        sink: S,
    ) -> Result<OocQueryStats, StorageError>
    where
        F: FnMut(u32),
        S: FnMut(&NeuronSegment) -> Flow,
    {
        self.range_query_stream_partial(q, scratch, false, on_page, sink)
    }

    /// [`range_query_stream`](Self::range_query_stream) with an explicit
    /// degradation mode. With `allow_partial = false` a page that fails
    /// permanently (after transient retries) is quarantined and the
    /// query fails with the typed error. With `allow_partial = true` the
    /// failed page's objects are skipped but its neighbor links are
    /// still crawled (the CSR lives in RAM), the query completes, and
    /// `io.pages_quarantined` reports how many pages were lost — a
    /// correctly-labeled partial result instead of a failure.
    pub fn range_query_stream_partial<F, S>(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        allow_partial: bool,
        mut on_page: F,
        mut sink: S,
    ) -> Result<OocQueryStats, StorageError>
    where
        F: FnMut(u32),
        S: FnMut(&NeuronSegment) -> Flow,
    {
        let mut stats = OocQueryStats::default();
        if self.page_mbrs.is_empty() {
            return Ok(stats);
        }
        let pool_before = self.pool.stats();
        let mut stall_ns = 0u64;
        scratch.queue.clear();
        scratch.visited.begin(self.page_mbrs.len());
        scratch.frontier.clear();
        let OocScratch { queue, visited, seed, segs, frontier } = scratch;

        let finish = |mut stats: OocQueryStats, stall_ns: u64, pool: &FramePool, enq: u64| {
            let after = pool.stats();
            stats.io.stall_ns = stall_ns;
            stats.io.cache_hits = after.hits - pool_before.hits;
            stats.io.cache_misses = after.misses - pool_before.misses;
            stats.io.prefetch_hits = after.prefetch_hits - pool_before.prefetch_hits;
            stats.io.evictions = after.evictions - pool_before.evictions;
            stats.io.prefetch_enqueued = enq;
            stats
        };
        let mut enqueued = 0u64;

        // --- Seed ---------------------------------------------------------
        let (seed_hit, seed_counters) = self.seed_tree.first_hit_scratch(q, seed);
        stats.flat.seed_nodes_read += seed_counters.nodes_visited;
        let Some(first) = seed_hit else {
            return Ok(finish(stats, stall_ns, &self.pool, enqueued));
        };
        visited.mark(first.page as usize);
        queue.push_back(first.page);

        // --- Crawl (with exactness-preserving re-seeding) ------------------
        loop {
            while let Some(page) = queue.pop_front() {
                stats.flat.pages_read += 1;
                on_page(page);

                // The real page read: pin (retrying transient faults
                // under the configured policy), decode, scan. The pin is
                // held only while the page is scanned, so even a
                // one-frame budget can execute any query.
                let t = Instant::now();
                let (res, tries) = with_retry_sleeping(&self.retry, u64::from(page), || {
                    self.pool.get(u64::from(page), self.file.as_ref())
                });
                stall_ns += t.elapsed().as_nanos() as u64;
                stats.io.retries += u64::from(tries);
                let decoded =
                    res.and_then(|guard| decode_page_segments(&guard, u64::from(page), segs));
                if let Err(e) = decoded {
                    if e.is_transient() {
                        // Retries exhausted or frame-budget pressure:
                        // not the page's fault, never quarantine.
                        return Err(e);
                    }
                    // Permanent: quarantine so later demands fail fast
                    // instead of re-reading known-bad bytes.
                    self.pool.quarantine_page(u64::from(page));
                    if !allow_partial {
                        return Err(e);
                    }
                    stats.io.pages_quarantined += 1;
                    segs.clear();
                }

                for o in segs.iter() {
                    stats.flat.objects_tested += 1;
                    if o.aabb().intersects(q) {
                        match sink(o) {
                            Flow::Emit => stats.flat.results += 1,
                            Flow::Skip => {}
                            Flow::Last => {
                                stats.flat.results += 1;
                                return Ok(finish(stats, stall_ns, &self.pool, enqueued));
                            }
                        }
                    }
                }
                frontier.clear();
                for &n in self.neighbors_of(page) {
                    if visited.is_marked(n as usize) {
                        continue;
                    }
                    if self.page_mbrs[n as usize].intersects(q) {
                        visited.mark(n as usize);
                        queue.push_back(n);
                        frontier.push(n);
                    } else {
                        stats.flat.links_rejected += 1;
                    }
                }
                // Crawl-frontier prefetch: the pages just admitted to the
                // BFS queue are read in the background while the queue
                // ahead of them is scanned.
                if let Some(h) = &self.prefetch {
                    enqueued += h.enqueue(frontier);
                }
            }

            let mut reseeded = false;
            let reseed_counters = self.seed_tree.range_query_scratch(q, seed, |entry| {
                if visited.mark(entry.page as usize) {
                    queue.push_back(entry.page);
                    reseeded = true;
                }
            });
            stats.flat.seed_nodes_read += reseed_counters.nodes_visited;
            if reseeded {
                stats.flat.reseeds += 1;
            } else {
                break;
            }
        }

        Ok(finish(stats, stall_ns, &self.pool, enqueued))
    }

    /// Range query collecting owned copies into `out` (cleared first).
    pub fn range_query_into(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        out: &mut Vec<NeuronSegment>,
    ) -> Result<OocQueryStats, StorageError> {
        out.clear();
        self.range_query_stream(
            q,
            scratch,
            |_| {},
            |s| {
                out.push(*s);
                Flow::Emit
            },
        )
    }

    /// A step-wise walkthrough cursor with the given prefetch policy.
    ///
    /// Policy predictions are translated to pages and fetched by the
    /// background workers during think time; without workers the policy
    /// still runs (its predictions are simply dropped), so traces stay
    /// comparable.
    pub fn cursor(&self, prefetcher: Box<dyn Prefetcher>) -> OocCursor<'_> {
        OocCursor {
            index: self,
            prefetcher,
            history: Vec::new(),
            scratch: OocScratch::default(),
            result: Vec::new(),
            pages_read: Vec::new(),
            plan_pages: Vec::new(),
            plan_marks: EpochMarks::default(),
        }
    }
}

impl Drop for OocFlatIndex {
    fn drop(&mut self) {
        // Stop the dispatcher before the file handle goes away.
        self.prefetch = None;
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Step-wise exploration over an [`OocFlatIndex`]: each
/// [`step`](Self::step) answers one moving-range query with real I/O,
/// then lets the prefetch policy schedule background reads for the
/// predicted next step.
pub struct OocCursor<'a> {
    index: &'a OocFlatIndex,
    prefetcher: Box<dyn Prefetcher>,
    history: Vec<Vec3>,
    scratch: OocScratch,
    result: Vec<NeuronSegment>,
    pages_read: Vec<u32>,
    /// The pages of the current think-time plan, each once.
    plan_pages: Vec<u32>,
    plan_marks: EpochMarks,
}

/// Cap on pages scheduled per think-time prefetch plan. Bounds wasted
/// bandwidth when a policy predicts a huge region.
const CURSOR_PREFETCH_CAP: usize = 256;

/// Add `page` to a think-time plan unless the plan is full, the page
/// lies past the file's end, or the plan already holds it.
fn admit_page(pages: &mut Vec<u32>, marks: &mut EpochMarks, page_count: usize, page: u32) {
    if pages.len() < CURSOR_PREFETCH_CAP
        && (page as usize) < page_count
        && marks.mark(page as usize)
    {
        pages.push(page);
    }
}

impl OocCursor<'_> {
    /// Execute the next query of the walkthrough; returns its trace
    /// (`stall_ms` is real wall-clock stall, not a simulated cost).
    pub fn step(&mut self, q: &Aabb) -> Result<QueryTrace, StorageError> {
        self.result.clear();
        self.pages_read.clear();
        let result = &mut self.result;
        let pages_read = &mut self.pages_read;
        let stats = self.index.range_query_stream(
            q,
            &mut self.scratch,
            |p| pages_read.push(p),
            |s| {
                result.push(*s);
                Flow::Emit
            },
        )?;
        self.history.push(q.center());

        // Think-time prefetch: plan from the step's content, translate
        // regions to pages, hand them to the background workers. Only
        // real pages go out, each once: a page past the end would take
        // (and maybe evict) a frame before its read fails, and a
        // duplicate would spend a second slot of the cap.
        let mut prefetched = 0u64;
        {
            let refs: Vec<&NeuronSegment> = self.result.iter().collect();
            let ctx = PrefetchContext {
                query: q,
                result: &refs,
                history: &self.history,
                pages_read: &self.pages_read,
            };
            let plan = self.prefetcher.plan(&ctx);
            if self.index.prefetch_enabled() && !plan.is_empty() {
                let page_count = self.index.page_count();
                let (pages, marks) = (&mut self.plan_pages, &mut self.plan_marks);
                pages.clear();
                marks.begin(page_count);
                for &p in &plan.pages {
                    admit_page(pages, marks, page_count, p);
                }
                for region in &plan.regions {
                    if pages.len() >= CURSOR_PREFETCH_CAP {
                        break;
                    }
                    self.index.for_each_page_intersecting(region, &mut self.scratch.seed, |p| {
                        admit_page(pages, marks, page_count, p)
                    });
                }
                prefetched = self.index.prefetch_pages(pages);
            }
        }

        Ok(QueryTrace {
            pages_demanded: stats.flat.pages_read,
            demand_hits: stats.io.cache_hits,
            demand_misses: stats.io.cache_misses,
            stall_ms: stats.io.stall_ns as f64 / 1e6,
            prefetched,
            results: stats.flat.results,
        })
    }

    /// The last step's result set.
    pub fn last_result(&self) -> &[NeuronSegment] {
        &self.result
    }

    /// Forget per-walkthrough state (history and the policy's memory).
    pub fn reset(&mut self) {
        self.history.clear();
        self.prefetcher.reset();
    }
}

// Local import to keep the signature readable.
use std::fmt;

impl fmt::Debug for OocCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OocCursor")
            .field("policy", &self.prefetcher.name())
            .field("steps", &self.history.len())
            .finish()
    }
}

/// The paged-equivalence shim: lets the simulator-based
/// [`ExplorationSession`](crate::ExplorationSession) machinery size
/// budgets consistently with the real engine. (The real engine cannot
/// implement [`PagedIndex`](crate::PagedIndex) itself — that trait returns borrowed
/// segments, while paged results are decoded per read.)
pub fn frame_budget_for(page_count: usize, percent: u32) -> usize {
    ((page_count * percent as usize) / 100).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_model::CircuitBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ooc-test-{}-{tag}-{n}.flat", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn circuit(neurons: u32) -> Vec<NeuronSegment> {
        CircuitBuilder::new(7).neurons(neurons).build().into_segments()
    }

    fn build(segments: Vec<NeuronSegment>, cap: usize) -> FlatIndex<NeuronSegment> {
        FlatIndex::build(segments, FlatBuildParams::default().with_page_capacity(cap))
    }

    #[test]
    fn roundtrip_preserves_results_and_stats() {
        let segs = circuit(12);
        let mem = build(segs, 32);
        let t = TempFile(temp_path("roundtrip"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc = OocFlatIndex::open(&t.0, OocConfig::default()).expect("open");
        assert_eq!(ooc.len(), mem.len());
        assert_eq!(ooc.page_count(), mem.page_count());
        assert_eq!(ooc.bounds(), mem.bounds());
        assert_eq!(ooc.params(), mem.params());

        let mut scratch = OocScratch::default();
        let mut fscratch = neurospatial_flat::FlatScratch::default();
        for q in [
            ooc.bounds(),
            Aabb::cube(ooc.bounds().center(), 40.0),
            Aabb::cube(Vec3::new(1e6, 1e6, 1e6), 1.0),
        ] {
            let mut want: Vec<NeuronSegment> = Vec::new();
            let mut want_pages = Vec::new();
            let want_stats = mem.range_query_scratch(
                &q,
                &mut fscratch,
                |p| want_pages.push(p),
                |s| want.push(*s),
            );
            let mut got: Vec<NeuronSegment> = Vec::new();
            let mut got_pages = Vec::new();
            let got_stats = ooc
                .range_query_stream(
                    &q,
                    &mut scratch,
                    |p| got_pages.push(p),
                    |s| {
                        got.push(*s);
                        Flow::Emit
                    },
                )
                .expect("paged query");
            assert_eq!(got, want, "result set at {q}");
            assert_eq!(got_pages, want_pages, "crawl order at {q}");
            assert_eq!(got_stats.flat, want_stats, "stats at {q}");
        }
    }

    #[test]
    fn one_frame_budget_is_exact() {
        let segs = circuit(8);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("oneframe"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc =
            OocFlatIndex::open(&t.0, OocConfig::default().with_frame_budget(1)).expect("open");
        let q = Aabb::cube(mem.bounds().center(), 60.0);
        let (want, _) = mem.range_query(&q);
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query");
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a == *b));
        assert_eq!(stats.io.cache_hits + stats.io.cache_misses, stats.flat.pages_read);
    }

    #[test]
    fn background_prefetch_keeps_queries_exact() {
        let segs = circuit(10);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("prefetch"));
        write_flat_index(&mem, &t.0).expect("write");
        let budget = frame_budget_for(mem.page_count(), 10);
        let ooc = OocFlatIndex::open(
            &t.0,
            OocConfig::default().with_frame_budget(budget).with_prefetch_workers(2),
        )
        .expect("open");
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        for step in 0..12 {
            let c = mem.bounds().center();
            let q = Aabb::cube(Vec3::new(c.x + step as f64 * 3.0, c.y, c.z), 25.0);
            let (want, want_stats) = mem.range_query(&q);
            let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query");
            assert_eq!(got.len(), want.len(), "step {step}");
            assert!(got.iter().zip(&want).all(|(a, b)| a == *b), "step {step}");
            assert_eq!(stats.flat.results, want_stats.results);
            assert_eq!(stats.flat.pages_read, want_stats.pages_read);
        }
    }

    #[test]
    fn cursor_walkthrough_traces() {
        let segs = circuit(8);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("cursor"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc = OocFlatIndex::open(
            &t.0,
            OocConfig::default()
                .with_frame_budget(frame_budget_for(mem.page_count(), 50))
                .with_prefetch_workers(2),
        )
        .expect("open");
        let mut cur = ooc.cursor(Box::new(crate::prefetch::ScoutPrefetcher::default()));
        // Anchor the walkthrough on real data: the first object of page 0.
        let c = mem.page_objects(0)[0].aabb().center();
        let mut total_results = 0u64;
        for step in 0..8 {
            let q = Aabb::cube(Vec3::new(c.x, c.y + step as f64 * 4.0, c.z), 20.0);
            let trace = cur.step(&q).expect("step");
            assert_eq!(trace.demand_hits + trace.demand_misses, trace.pages_demanded);
            assert_eq!(trace.results as usize, cur.last_result().len());
            total_results += trace.results;
        }
        assert!(total_results > 0, "walkthrough crossed data");
    }

    #[test]
    fn prefetch_past_the_last_page_evicts_nothing() {
        // A query over every page fills a pool sized to the file. Hilbert
        // then plans only the pages after the last one, which do not
        // exist: the cursor must not hand them to the pool, where each
        // would evict a live frame before its read failed.
        let mem = build(circuit(6), 16);
        let t = TempFile(temp_path("past-end"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc = OocFlatIndex::open(
            &t.0,
            OocConfig::default().with_frame_budget(mem.page_count()).with_prefetch_workers(1),
        )
        .expect("open");
        let mut cur = ooc.cursor(Box::new(crate::prefetch::HilbertPrefetcher { window: 2 }));
        let trace = cur.step(&ooc.bounds().inflate(1.0)).expect("step");
        assert_eq!(trace.pages_demanded, mem.page_count() as u64, "the step read every page");
        assert_eq!(trace.prefetched, 0, "no page past the end is enqueued");
        for _ in 0..20 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(ooc.pool().stats().evictions, 0, "prefetch evicted a live frame");
        }
    }

    #[test]
    fn overlapping_regions_enqueue_each_page_once() {
        let mem = build(circuit(8), 16);
        let t = TempFile(temp_path("dup"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc =
            OocFlatIndex::open(&t.0, OocConfig::default().with_prefetch_workers(1)).expect("open");
        let c = mem.page_objects(0)[0].aabb().center();
        let (a, b) = (Aabb::cube(c, 20.0), Aabb::cube(c + Vec3::new(5.0, 0.0, 0.0), 20.0));
        let (pages_a, pages_b) = (ooc.pages_intersecting(&a), ooc.pages_intersecting(&b));
        assert!(pages_a.iter().any(|p| pages_b.contains(p)), "the regions share pages");
        // Page 0 twice, region a twice, and b overlapping a.
        let plan = crate::prefetch::PrefetchPlan { regions: vec![a, b, a], pages: vec![0, 0] };
        let mut want: Vec<u32> = [vec![0], pages_a, pages_b].concat();
        want.sort_unstable();
        want.dedup();
        let mut cur = ooc.cursor(Box::new(crate::prefetch::FixedPlan(plan)));
        let trace = cur.step(&Aabb::cube(Vec3::splat(1e6), 1.0)).expect("step");
        assert_eq!(trace.prefetched, want.len() as u64, "each page enqueued once");
    }

    #[test]
    fn empty_index_roundtrips() {
        let mem = build(Vec::new(), 16);
        let t = TempFile(temp_path("empty"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc = OocFlatIndex::open(&t.0, OocConfig::default()).expect("open");
        assert!(ooc.is_empty());
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc
            .range_query_into(&Aabb::cube(Vec3::ZERO, 5.0), &mut scratch, &mut got)
            .expect("query");
        assert!(got.is_empty());
        assert_eq!(stats.flat, FlatQueryStats::default());
    }

    #[test]
    fn foreign_meta_is_rejected() {
        let t = TempFile(temp_path("foreign"));
        let mut w = PageFileWriter::create(&t.0, 1040).expect("create");
        w.append_page(&[0u8; 64]).expect("page");
        w.finish(b"not flat metadata").expect("finish");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("foreign");
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bit_flipped_page_fails_open_validation() {
        let segs = circuit(4);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("flip"));
        write_flat_index(&mem, &t.0).expect("write");
        let mut bytes = std::fs::read(&t.0).expect("read");
        // Flip a payload bit of page 0.
        bytes[neurospatial_storage::FILE_HEADER_BYTES + PAGE_HEADER_BYTES + 9] ^= 0x04;
        std::fs::write(&t.0, &bytes).expect("write");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("corrupt page");
        assert_eq!(err, StorageError::BadPages { pages: vec![0] });
        // Lazy open defers the error to the query that touches the page.
        let lazy = OocConfig { validate_pages: false, ..OocConfig::default() };
        let ooc = OocFlatIndex::open(&t.0, lazy).expect("lazy open");
        let mut scratch = OocScratch::default();
        let mut out = Vec::new();
        let err = ooc
            .range_query_into(&ooc.bounds(), &mut scratch, &mut out)
            .expect_err("query hits the bad page");
        assert!(matches!(err, StorageError::PageChecksum { .. }));
        // The failed page is now quarantined: the re-query fails fast
        // with the quarantine error, and the standalone sweep reports it.
        assert_eq!(ooc.quarantined_pages(), vec![0]);
        let err =
            ooc.range_query_into(&ooc.bounds(), &mut scratch, &mut out).expect_err("still refused");
        assert_eq!(err, StorageError::Quarantined { pages: vec![0] });
        assert_eq!(ooc.validate_pages(), Err(StorageError::BadPages { pages: vec![0] }));
    }

    #[test]
    fn validation_sweep_reports_every_bad_page_at_once() {
        let segs = circuit(10);
        let mem = build(segs, 8);
        let t = TempFile(temp_path("sweep"));
        write_flat_index(&mem, &t.0).expect("write");
        assert!(mem.page_count() >= 4, "need several pages to tear");
        neurospatial_storage::tear_page(&t.0, 1).expect("tear 1");
        neurospatial_storage::tear_page(&t.0, 3).expect("tear 3");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("two bad pages");
        assert_eq!(err, StorageError::BadPages { pages: vec![1, 3] });
    }

    #[test]
    fn transient_faults_recover_to_byte_identical_results() {
        use neurospatial_storage::{FaultFile, FaultPlan};
        let segs = circuit(10);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("transient"));
        write_flat_index(&mem, &t.0).expect("write");
        // Every read window faults, bursts up to 2 — the default
        // 4-attempt policy always recovers.
        let plan = FaultPlan::new(11).with_transient_permille(1000).with_max_consecutive(2);
        let ooc = OocFlatIndex::open_with(&t.0, OocConfig::default().with_frame_budget(2), |f| {
            Arc::new(FaultFile::new(f, plan))
        })
        .expect("open recovers transient faults during validation");
        let q = Aabb::cube(mem.bounds().center(), 60.0);
        let (want, _) = mem.range_query(&q);
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query recovers");
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a == *b), "byte-identical despite faults");
        assert!(stats.io.retries > 0, "the fault storm forced retries");
        assert_eq!(stats.io.pages_quarantined, 0);
        assert!(ooc.quarantined_pages().is_empty());
    }

    #[test]
    fn partial_mode_skips_quarantined_pages_and_labels_the_result() {
        use neurospatial_storage::{FaultFile, FaultPlan};
        let segs = circuit(10);
        let mem = build(segs, 8);
        let t = TempFile(temp_path("partial"));
        write_flat_index(&mem, &t.0).expect("write");
        assert!(mem.page_count() >= 3);
        let plan = FaultPlan::new(5).with_corrupt_pages(vec![1]);
        let lazy = OocConfig { validate_pages: false, ..OocConfig::default() };
        let ooc = OocFlatIndex::open_with(&t.0, lazy, |f| Arc::new(FaultFile::new(f, plan)))
            .expect("lazy open");
        let q = ooc.bounds();
        let mut scratch = OocScratch::default();

        // Strict mode: typed failure, page quarantined.
        let mut out = Vec::new();
        let err = ooc.range_query_into(&q, &mut scratch, &mut out).expect_err("strict fails");
        assert_eq!(err, StorageError::PageChecksum { page: 1 });
        assert_eq!(ooc.quarantined_pages(), vec![1]);

        // Partial mode: completes, labels the loss, and returns exactly
        // the objects of the surviving pages in crawl order.
        let mut got = Vec::new();
        let stats = ooc
            .range_query_stream_partial(
                &q,
                &mut scratch,
                true,
                |_| {},
                |s| {
                    got.push(*s);
                    Flow::Emit
                },
            )
            .expect("partial completes");
        assert_eq!(stats.io.pages_quarantined, 1);
        let lost: Vec<u64> = mem.page_objects(1).iter().map(|s| s.id).collect();
        let (all, _) = mem.range_query(&q);
        assert_eq!(got.len(), all.len() - lost.len(), "lost exactly page 1's objects");
        assert!(got.iter().all(|s| !lost.contains(&s.id)));
    }
}
