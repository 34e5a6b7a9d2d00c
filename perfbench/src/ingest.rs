//! `ingest_live`: two closed-loop clients each alternate one durable
//! write with one data-centred range read on a live database under
//! background maintenance. A round writes a fixed number of ops into a
//! fresh WAL and database, so the number of refreezes repeats from run
//! to run; rounds repeat until the pass's time is up.

use crate::stats::{median_or_zero, ratio, Fingerprint, Rng};
use crate::trace::Tracer;
use crate::{metric, pct, set_up, Report, Run, DATASET_SEED};
use neurospatial::prelude::*;
use neurospatial_bench::sized_segments;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BASE_SEGMENTS: usize = 50_000;
const CLIENTS: usize = 2;
/// Writes per round, split evenly between the clients.
const WRITES_PER_ROUND: usize = 4096;
/// Every eighth write removes one of the client's earlier inserts: 7:1.
const REMOVE_EVERY: usize = 8;
/// Pinned at the builder's default so a change of default shows here
/// as a change of workload, not of speed.
const REFREEZE_THRESHOLD: usize = 1024;
const MAINTENANCE_POLL_MS: u64 = 1;
const READ_HALF_EXTENT: f64 = 12.0;
const REGIONS: usize = 1024;
/// Ids of inserted segments start here, far above any base id.
const INSERT_BASE: u64 = 1 << 40;

/// One acknowledged write as its client saw it, with the WAL health read
/// just before and just after the call. LSNs restart with each round's
/// fresh WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ack {
    pub us: f64,
    pub round: u64,
    pub lsn: u64,
    pub before: WalHealth,
    pub after: WalHealth,
}

impl Ack {
    /// The call spanned an epoch change: a refreeze swapped generations
    /// while the write was in flight.
    pub fn overlapped_refreeze(&self) -> bool {
        self.after.epoch != self.before.epoch
    }
}

/// Ack latencies split into (overlapped a refreeze, did not).
pub fn split_by_refreeze(acks: &[Ack]) -> (Vec<f64>, Vec<f64>) {
    let (during, outside): (Vec<&Ack>, Vec<&Ack>) =
        acks.iter().partition(|a| a.overlapped_refreeze());
    (during.iter().map(|a| a.us).collect(), outside.iter().map(|a| a.us).collect())
}

/// WAL bytes appended per acknowledged write: each ack's window between
/// its two health reads contributes its log growth and the number of
/// acked commits whose LSN falls inside it. Windows a checkpoint
/// rewrote are skipped.
pub fn wal_bytes_per_write(acks: &[Ack]) -> f64 {
    let mut lsns: Vec<(u64, u64)> = acks.iter().map(|a| (a.round, a.lsn)).collect();
    lsns.sort_unstable();
    let committed_by = |round: u64, lsn: u64| lsns.partition_point(|&l| l <= (round, lsn)) as u64;
    let (mut bytes, mut writes) = (0u64, 0u64);
    for a in acks {
        if a.after.checkpoints != a.before.checkpoints || a.after.wal_bytes < a.before.wal_bytes {
            continue;
        }
        bytes += a.after.wal_bytes - a.before.wal_bytes;
        writes +=
            committed_by(a.round, a.after.last_lsn) - committed_by(a.round, a.before.last_lsn);
    }
    ratio(bytes as f64, writes as f64)
}

/// What one pass of rounds measured.
#[derive(Default)]
struct Pass {
    acks: Vec<Ack>,
    read_us: Vec<f64>,
    pending_at_read: Vec<f64>,
    refreezes: u64,
    rounds: u64,
    write_s: f64,
}

/// A live database over the base segments with a fresh WAL.
fn fresh_db(wal: &Path) -> Result<NeuroDb, String> {
    let _ = std::fs::remove_file(wal);
    NeuroDb::builder()
        .segments(sized_segments(BASE_SEGMENTS, DATASET_SEED))
        .backend(IndexBackend::Flat)
        .durable(wal)
        .refreeze_threshold(REFREEZE_THRESHOLD)
        .build()
        .map_err(|e| e.to_string())
}

fn health(db: &NeuroDb) -> WalHealth {
    db.wal_health().expect("a durable database reports WAL health")
}

/// What every round reads: the seed, the base data and the read regions
/// with the fingerprint of the base segments each one holds.
struct Inputs<'a> {
    seed: u64,
    base: &'a [NeuronSegment],
    regions: &'a [(Aabb, Fingerprint)],
    tracer: &'a Tracer,
}

/// One client's loop: alternate a durable write and a checked read.
fn client(
    db: &NeuroDb,
    inputs: &Inputs,
    id: usize,
    round: u64,
    applied: &Mutex<Vec<WriteOp>>,
    report: &Mutex<(u64, u64)>,
) -> (Vec<Ack>, Vec<f64>, Vec<f64>) {
    let Inputs { seed, base, regions, tracer } = *inputs;
    let mut rng = Rng::new(seed ^ (round << 8) ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9));
    let (mut acks, mut read_us, mut pending) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut live: Vec<u64> = Vec::new();
    for i in 0..WRITES_PER_ROUND / CLIENTS {
        let request = ((id as u64) << 32) + i as u64 + 1;
        let op = if i % REMOVE_EVERY == REMOVE_EVERY - 1 && !live.is_empty() {
            WriteOp::Remove(live.swap_remove(rng.below(live.len())))
        } else {
            let c = base[rng.below(base.len())].geom.center();
            let p = c + Vec3::new(
                rng.unit() * 4.0 - 2.0,
                rng.unit() * 4.0 - 2.0,
                rng.unit() * 4.0 - 2.0,
            );
            WriteOp::Insert(NeuronSegment {
                id: INSERT_BASE + ((id as u64) << 32) + i as u64,
                neuron: u32::MAX - id as u32,
                section: 0,
                index_on_section: i as u32,
                geom: Segment::new(p, p + Vec3::new(1.5, 0.0, 0.5), 0.3),
            })
        };
        let before = health(db);
        let t = Instant::now();
        let r = tracer.span("core.write", request, || match op {
            WriteOp::Insert(s) => db.insert_segment(s),
            WriteOp::Remove(id) => db.remove_segment(id),
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let after = health(db);
        attempted += 1;
        match r {
            Ok(ack) => {
                acks.push(Ack { us, round, lsn: ack.lsn, before, after });
                if let WriteOp::Insert(s) = op {
                    live.push(s.id);
                }
                applied.lock().expect("a client panicked").push(op);
            }
            Err(_) => {
                failed += 1;
                if let WriteOp::Remove(id) = op {
                    live.push(id);
                }
            }
        }

        let (q, want) = &regions[rng.below(regions.len())];
        pending.push(health(db).pending_ops as f64);
        let mut got = Fingerprint::default();
        let t = Instant::now();
        let r = tracer.span("core.range", request, || {
            db.query().range(*q).stream(|s| {
                if s.id < INSERT_BASE {
                    got.add(s.id)
                }
            })
        });
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
        attempted += 1;
        failed += u64::from(r.is_err() || got != *want);
    }
    let mut totals = report.lock().expect("a client panicked");
    totals.0 += attempted;
    totals.1 += failed;
    (acks, read_us, pending)
}

/// One round on a fresh database; returns whether the final state
/// matched exactly the acknowledged ops.
fn run_round(
    db: &NeuroDb,
    inputs: &Inputs,
    pass: &mut Pass,
    report: &mut Report,
) -> Result<bool, String> {
    let round = pass.rounds;
    let applied = Mutex::new(Vec::new());
    let totals = Mutex::new((0u64, 0u64));
    let epoch0 = health(db).epoch;
    let start = Instant::now();
    let outs = db.with_ingest_maintenance(Duration::from_millis(MAINTENANCE_POLL_MS), |db| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let (applied, totals) = (&applied, &totals);
                    s.spawn(move || client(db, inputs, id, round, applied, totals))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        })
    });
    pass.write_s += start.elapsed().as_secs_f64();
    pass.refreezes += health(db).epoch - epoch0;
    pass.rounds += 1;
    for out in outs {
        let (acks, read_us, pending) = out.map_err(|_| "a client thread panicked")?;
        pass.acks.extend(acks);
        pass.read_us.extend(read_us);
        pass.pending_at_read.extend(pending);
    }
    let (attempted, failed) = totals.into_inner().expect("clients joined");
    report.attempted += attempted;
    report.failed += failed;

    // Final state: the base plus exactly the acknowledged ops.
    db.refreeze().map_err(|e| e.to_string())?;
    let mut want: BTreeSet<u64> = inputs.base.iter().map(|s| s.id).collect();
    for op in applied.into_inner().expect("clients joined") {
        match op {
            WriteOp::Insert(s) => want.insert(s.id),
            WriteOp::Remove(id) => want.remove(&id),
        };
    }
    let mut got = Vec::new();
    db.query()
        .range(db.bounds().inflate(100.0))
        .stream(|s| got.push(s.id))
        .map_err(|e| e.to_string())?;
    got.sort_unstable();
    Ok(got.iter().eq(&want) && health(db).pending_ops == 0)
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report { final_ok: true, ..Report::default() };
    let wal = run.dir.join("ingest.wal");
    // Every round also sets up afresh and adds its time to `setup_s`.
    drop(set_up(&mut report.setup_s, || fresh_db(&wal))?);
    let base = sized_segments(BASE_SEGMENTS, DATASET_SEED);
    let mut rng = Rng::new(run.seed);
    let regions: Vec<(Aabb, Fingerprint)> = (0..REGIONS)
        .map(|_| {
            let q = Aabb::cube(base[rng.below(base.len())].geom.center(), READ_HALF_EXTENT);
            let want =
                Fingerprint::of(base.iter().filter(|s| s.aabb().intersects(&q)).map(|s| s.id));
            (q, want)
        })
        .collect();

    let tracer = Tracer::new();
    let inputs = Inputs { seed: run.seed, base: &base, regions: &regions, tracer: &tracer };
    let mut passes = Vec::new();
    for phase in run.phases() {
        tracer.set_enabled(phase.traced);
        let mut pass = Pass::default();
        while pass.rounds == 0 || pass.write_s < phase.secs {
            let t = Instant::now();
            let db = fresh_db(&wal)?;
            report.setup_s.push(t.elapsed().as_secs_f64());
            let ok = run_round(&db, &inputs, &mut pass, &mut report)?;
            report.final_ok &= ok;
        }
        if !phase.warmup {
            passes.push(pass);
        }
    }
    tracer.set_enabled(false);
    let _ = std::fs::remove_file(&wal);

    let p = &passes[0];
    let ack_us: Vec<f64> = p.acks.iter().map(|a| a.us).collect();
    report.ops_per_s = p.acks.len() as f64 / p.write_s;
    report.detail = vec![
        metric("ingest_writes_per_s", report.ops_per_s, "1/s"),
        metric("ingest_ack_p50_us", pct("ingest_ack_p50_us", &ack_us, 0.50)?, "us"),
        metric("ingest_ack_p99_us", pct("ingest_ack_p99_us", &ack_us, 0.99)?, "us"),
        metric("ingest_read_p50_us", pct("ingest_read_p50_us", &p.read_us, 0.50)?, "us"),
        metric("ingest_read_p99_us", pct("ingest_read_p99_us", &p.read_us, 0.99)?, "us"),
    ];
    report.op_us = ack_us;
    report.params = vec![
        ("base_segments", BASE_SEGMENTS.to_string()),
        ("clients", CLIENTS.to_string()),
        ("writes_per_round", WRITES_PER_ROUND.to_string()),
        ("insert_remove_ratio", format!("[{}, 1]", REMOVE_EVERY - 1)),
        ("refreeze_threshold", REFREEZE_THRESHOLD.to_string()),
        ("maintenance_poll_ms", MAINTENANCE_POLL_MS.to_string()),
        ("read_half_extent_um", READ_HALF_EXTENT.to_string()),
        ("rounds", p.rounds.to_string()),
    ];

    if let Some(t) = passes.get(1) {
        report.traced_op_us = t.acks.iter().map(|a| a.us).collect();
        let (during, outside) = split_by_refreeze(&t.acks);
        let mut lsns: Vec<(u64, u64)> = t.acks.iter().map(|a| (a.round, a.lsn)).collect();
        lsns.sort_unstable();
        lsns.dedup();
        report.spans = tracer.take();
        let reads: Vec<f64> = report
            .spans
            .iter()
            .filter(|s| s.layer == "core.range")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        report.layers = vec![
            metric("core.range_us", median_or_zero(&reads), "us"),
            metric("wal.writes_per_commit", ratio(t.acks.len() as f64, lsns.len() as f64), "count"),
            metric("wal.bytes_per_write", wal_bytes_per_write(&t.acks), "bytes"),
            metric("core.refreezes", ratio(t.refreezes as f64, t.rounds as f64), "count"),
            metric(
                "core.refreeze_overlap_share",
                ratio(during.len() as f64, t.acks.len() as f64),
                "ratio",
            ),
            metric("core.ack_during_refreeze_us", median_or_zero(&during), "us"),
            metric("core.ack_outside_refreeze_us", median_or_zero(&outside), "us"),
            metric(
                "core.delta_pending_at_read",
                t.pending_at_read.iter().sum::<f64>() / t.pending_at_read.len().max(1) as f64,
                "count",
            ),
        ];
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(us: f64, lsn: u64, before: (u64, u64, u64, u64), after: (u64, u64, u64, u64)) -> Ack {
        let h = |(epoch, last_lsn, wal_bytes, checkpoints)| WalHealth {
            epoch,
            last_lsn,
            wal_bytes,
            checkpoints,
            ..WalHealth::default()
        };
        Ack { us, round: 0, lsn, before: h(before), after: h(after) }
    }

    #[test]
    fn acks_spanning_an_epoch_change_overlap_a_refreeze() {
        let acks = [
            ack(10.0, 2, (0, 0, 0, 0), (0, 2, 0, 0)),
            ack(900.0, 4, (0, 2, 0, 0), (1, 4, 0, 1)),
            ack(12.0, 6, (1, 4, 0, 1), (1, 6, 0, 1)),
            ack(700.0, 8, (1, 6, 0, 1), (3, 8, 0, 3)),
        ];
        assert!(!acks[0].overlapped_refreeze());
        assert!(acks[1].overlapped_refreeze());
        assert_eq!(split_by_refreeze(&acks), (vec![900.0, 700.0], vec![10.0, 12.0]));
    }

    #[test]
    fn wal_bytes_count_each_window_over_its_commits() {
        let acks = [
            // Alone in its window: 100 bytes for one commit.
            ack(1.0, 2, (0, 0, 1000, 0), (0, 2, 1100, 0)),
            // Window also holds the other client's commit at lsn 4.
            ack(1.0, 6, (0, 2, 1100, 0), (0, 6, 1300, 0)),
            ack(1.0, 4, (0, 2, 1100, 0), (0, 4, 1200, 0)),
            // A checkpoint rewrote the log inside this window: skipped.
            ack(1.0, 8, (0, 6, 1300, 0), (1, 8, 400, 1)),
        ];
        assert_eq!(wal_bytes_per_write(&acks), (100.0 + 200.0 + 100.0) / 4.0);
    }
}
