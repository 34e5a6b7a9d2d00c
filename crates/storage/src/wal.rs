//! Write-ahead log: durable, checksummed, replayable.
//!
//! The live-ingest path of the facade needs one guarantee from storage:
//! **an acknowledged write survives a crash, an unacknowledged write
//! vanishes cleanly**. This module provides it with a deliberately
//! small, payload-agnostic log — the WAL neither knows nor cares that
//! the payloads are encoded segment operations; it stores opaque byte
//! records, so the format is testable in isolation and reusable.
//!
//! ## On-disk format
//!
//! ```text
//! [magic "NSWL"][version u32][reserved u64]                -- 16-byte header
//! [len u32][kind u8][lsn u64][fnv1a u64][payload len B]    -- repeated records
//! ```
//!
//! All integers little-endian. `fnv1a` is the 64-bit FNV-1a checksum
//! ([`crate::checksum64`]) over `kind || lsn || payload`. LSNs are
//! strictly monotonic across the whole file; replay rejects regressions
//! as corruption.
//!
//! Three record kinds:
//!
//! - **DATA** — one opaque operation payload. Buffered, *not* durable
//!   on its own.
//! - **COMMIT** — group-commit marker: every DATA record since the
//!   previous COMMIT becomes durable exactly when the COMMIT record is
//!   on disk. [`Wal::commit`] writes buffered DATA records plus the
//!   COMMIT marker in a single append and then fsyncs — the log's one
//!   explicit fsync point, which is what makes the ack boundary sharp.
//! - **CHECKPOINT** — a full-state snapshot that bounds replay: replay
//!   starts from the last CHECKPOINT and only applies committed DATA
//!   records after it. [`Wal::checkpoint`] rewrites the log as
//!   `header + CHECKPOINT` through an atomic whole-file replace, so a
//!   crash mid-checkpoint leaves the previous log intact.
//!
//! ## Replay and the torn tail
//!
//! [`Wal::open`] scans the file front to back, verifying every record.
//! A record that fails verification *and extends to end-of-file* is a
//! **torn tail** — the expected signature of a crash mid-append — and
//! is silently truncated. A bad record with valid bytes *after* it is
//! not a crash artifact, it is bit rot inside acknowledged history, and
//! replay refuses with [`StorageError::Corrupt`] rather than serve
//! silently wrong data. Valid-but-uncommitted DATA records at the tail
//! (crash between append and commit) are truncated too: they were never
//! acknowledged, and leaving them would splice them into the *next*
//! commit's batch.
//!
//! ## A failed write stops the log
//!
//! When a commit or checkpoint fails, the [`Wal`] cannot know how much
//! of it reached the disk: a commit whose append landed but whose fsync
//! failed leaves a complete batch, COMMIT marker included, that the
//! caller was told had failed. Were the log to take further commits, the
//! next one would land after that batch and make it replayable. So the
//! first failure latches the log shut: every later
//! [`append`](Wal::append), [`commit`](Wal::commit) and
//! [`checkpoint`](Wal::checkpoint) returns [`StorageError::WalFailed`]
//! until the log is reopened, and replay then decides what is durable.
//!
//! ## Fault injection
//!
//! All writes go through the [`LogIo`] seam — the write-side analogue of
//! [`crate::PageIo`] — so [`crate::FaultLog`] can drop bytes at an exact
//! offset (a simulated crash, torn record included), flip bits in
//! acknowledged history, and prove the recovery contract under the same
//! seeded [`crate::FaultPlan`] discipline the read path uses.

#![warn(missing_docs)]

use crate::file::{Checksum64, StorageError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"NSWL";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes of the file header (magic + version + reserved).
pub const WAL_HEADER_BYTES: usize = 16;
/// Bytes of every record header (`len + kind + lsn + checksum`).
pub const WAL_RECORD_HEADER_BYTES: usize = 21;

/// Record kind: one opaque operation payload (durable only once a
/// COMMIT record follows it).
pub const WAL_KIND_DATA: u8 = 1;
/// Record kind: group-commit marker (empty payload).
pub const WAL_KIND_COMMIT: u8 = 2;
/// Record kind: full-state snapshot bounding replay.
pub const WAL_KIND_CHECKPOINT: u8 = 3;

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StorageError {
    move |e| StorageError::Io { kind: e.kind(), context }
}

// ---------------------------------------------------------------------
// The write seam
// ---------------------------------------------------------------------

/// Append-oriented log I/O — the injectable seam between [`Wal`] and the
/// physical file, mirroring what [`crate::PageIo`] is for page reads.
///
/// Implemented by [`FileLog`] (the production file) and
/// [`crate::FaultLog`] (the chaos harness, which can drop a write's tail
/// at an exact byte offset or flip bits before they reach the disk).
pub trait LogIo: Send {
    /// The entire current file contents (header included), for replay.
    fn read_all(&mut self, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Append `bytes` at the end of the log. Not durable until
    /// [`sync`](Self::sync) returns.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Make every appended byte durable (the fsync point).
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Discard everything past `len` bytes (torn-tail cleanup at open).
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;

    /// Atomically replace the whole file with `contents` (checkpoint).
    /// All-or-nothing: after a crash either the old or the new contents
    /// are intact, never a mix.
    fn replace(&mut self, contents: &[u8]) -> Result<(), StorageError>;

    /// Current file length in bytes.
    fn len(&self) -> u64;

    /// Whether the log holds no bytes at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The production [`LogIo`]: a real file, appended with `write_all`,
/// made durable with `sync_data`, checkpointed via write-temp + rename
/// (the classic atomic-replace idiom).
pub struct FileLog {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
}

impl FileLog {
    /// Open (or create) the log file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err("open wal"))?;
        let len = file.metadata().map_err(io_err("stat wal"))?.len();
        Ok(FileLog { file, path, len })
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogIo for FileLog {
    fn read_all(&mut self, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        buf.clear();
        self.file.seek(SeekFrom::Start(0)).map_err(io_err("seek wal start"))?;
        self.file.read_to_end(buf).map_err(io_err("read wal"))?;
        self.file.seek(SeekFrom::End(0)).map_err(io_err("seek wal end"))?;
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.file.seek(SeekFrom::Start(self.len)).map_err(io_err("seek wal append"))?;
        self.file.write_all(bytes).map_err(io_err("append wal"))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data().map_err(io_err("sync wal"))
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.file.set_len(len).map_err(io_err("truncate wal"))?;
        self.len = len;
        self.file.seek(SeekFrom::Start(len)).map_err(io_err("seek wal end"))?;
        Ok(())
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path.with_extension("wal-tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(io_err("create wal tmp"))?;
            f.write_all(contents).map_err(io_err("write wal tmp"))?;
            f.sync_data().map_err(io_err("sync wal tmp"))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io_err("rename wal tmp"))?;
        self.file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(io_err("reopen wal"))?;
        self.file.seek(SeekFrom::End(0)).map_err(io_err("seek wal end"))?;
        self.len = contents.len() as u64;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What [`Wal::open`] reconstructed: the durable state as of the crash
/// (or clean shutdown) — exactly the acknowledged prefix, nothing more.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// The last CHECKPOINT's payload, if any checkpoint was written.
    pub snapshot: Option<Vec<u8>>,
    /// Committed DATA payloads after the last checkpoint, in append
    /// order. Uncommitted records are never included.
    pub ops: Vec<Vec<u8>>,
    /// Highest LSN among the records kept (0 for an empty log).
    pub last_lsn: u64,
    /// Whether open discarded a tail (torn record or valid-but-
    /// uncommitted records) — the expected signature of a crash.
    pub truncated_tail: bool,
    /// Bytes discarded from the tail (0 on clean shutdown).
    pub truncated_bytes: u64,
}

/// The write-ahead log: buffered appends, group commit with one fsync
/// per commit, atomic checkpoints, verified replay. Payloads are opaque
/// bytes; callers own the encoding.
pub struct Wal {
    log: Box<dyn LogIo>,
    /// Encoded records awaiting the next commit.
    pending: Vec<u8>,
    pending_records: u64,
    next_lsn: u64,
    commits: u64,
    checkpoints: u64,
    /// Set by the first failed commit or checkpoint; refuses every later
    /// write until the log is reopened.
    failed: bool,
}

fn encode_record(out: &mut Vec<u8>, kind: u8, lsn: u64, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&lsn.to_le_bytes());
    let mut h = Checksum64::new();
    h.update(&[kind]);
    h.update(&lsn.to_le_bytes());
    h.update(payload);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

impl Wal {
    /// Open (or create) the log at `path` through the production
    /// [`FileLog`], replaying whatever is on disk.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<(Self, WalRecovery), StorageError> {
        Self::open_log(Box::new(FileLog::open(path)?))
    }

    /// Open the log over an arbitrary [`LogIo`] — the fault-injection
    /// entry point ([`crate::FaultLog`]) and the unit-test seam.
    pub fn open_log(mut log: Box<dyn LogIo>) -> Result<(Self, WalRecovery), StorageError> {
        let mut bytes = Vec::new();
        log.read_all(&mut bytes)?;
        if bytes.is_empty() {
            let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_le_bytes());
            header.extend_from_slice(&0u64.to_le_bytes());
            log.append(&header)?;
            log.sync()?;
            let wal = Wal {
                log,
                pending: Vec::new(),
                pending_records: 0,
                next_lsn: 1,
                commits: 0,
                checkpoints: 0,
                failed: false,
            };
            return Ok((wal, WalRecovery::default()));
        }
        if bytes.len() < WAL_HEADER_BYTES || bytes[0..4] != WAL_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(StorageError::BadVersion(version));
        }

        let mut off = WAL_HEADER_BYTES;
        let mut snapshot: Option<Vec<u8>> = None;
        let mut committed: Vec<Vec<u8>> = Vec::new();
        let mut uncommitted: Vec<Vec<u8>> = Vec::new();
        let mut last_lsn_seen = 0u64;
        // State as of the last COMMIT / CHECKPOINT boundary — the only
        // state replay is allowed to surface.
        let mut committed_end = off;
        let mut last_lsn_kept = 0u64;
        while off < bytes.len() {
            let rem = bytes.len() - off;
            if rem < WAL_RECORD_HEADER_BYTES {
                break; // torn mid-header: tail
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            let kind = bytes[off + 4];
            let lsn = u64::from_le_bytes(bytes[off + 5..off + 13].try_into().expect("8 bytes"));
            let stored = u64::from_le_bytes(bytes[off + 13..off + 21].try_into().expect("8 bytes"));
            let body_end = off + WAL_RECORD_HEADER_BYTES + len;
            if body_end > bytes.len() {
                break; // torn mid-payload: tail
            }
            let payload = &bytes[off + WAL_RECORD_HEADER_BYTES..body_end];
            let mut h = Checksum64::new();
            h.update(&[kind]);
            h.update(&lsn.to_le_bytes());
            h.update(payload);
            let valid = h.finish() == stored
                && matches!(kind, WAL_KIND_DATA | WAL_KIND_COMMIT | WAL_KIND_CHECKPOINT)
                && lsn > last_lsn_seen;
            if !valid {
                if body_end == bytes.len() {
                    break; // damaged final record: torn tail
                }
                // Damaged record with intact history after it: this is
                // not a crash artifact, it is corruption inside
                // acknowledged data. Refuse loudly.
                return Err(StorageError::Corrupt(format!(
                    "wal record at byte {off} fails verification with {} intact bytes after it",
                    bytes.len() - body_end
                )));
            }
            last_lsn_seen = lsn;
            match kind {
                WAL_KIND_DATA => uncommitted.push(payload.to_vec()),
                WAL_KIND_COMMIT => {
                    committed.append(&mut uncommitted);
                    committed_end = body_end;
                    last_lsn_kept = lsn;
                }
                _ => {
                    snapshot = Some(payload.to_vec());
                    committed.clear();
                    uncommitted.clear();
                    committed_end = body_end;
                    last_lsn_kept = lsn;
                }
            }
            off = body_end;
        }
        let truncated_bytes = log.len() - committed_end as u64;
        if truncated_bytes > 0 {
            log.truncate(committed_end as u64)?;
            log.sync()?;
        }
        let recovery = WalRecovery {
            snapshot,
            last_lsn: last_lsn_kept,
            ops: committed,
            truncated_tail: truncated_bytes > 0,
            truncated_bytes,
        };
        let wal = Wal {
            log,
            pending: Vec::new(),
            pending_records: 0,
            next_lsn: last_lsn_kept + 1,
            commits: 0,
            checkpoints: 0,
            failed: false,
        };
        Ok((wal, recovery))
    }

    /// Buffer one opaque DATA record and return its LSN. **Not durable**
    /// until [`commit`](Self::commit) succeeds; a crash before the
    /// commit erases it on replay. Refused with
    /// [`StorageError::WalFailed`] once a commit or checkpoint has failed.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        self.check_healthy()?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        encode_record(&mut self.pending, WAL_KIND_DATA, lsn, payload);
        self.pending_records += 1;
        Ok(lsn)
    }

    fn check_healthy(&self) -> Result<(), StorageError> {
        if self.failed {
            Err(StorageError::WalFailed)
        } else {
            Ok(())
        }
    }

    /// Group commit: write every buffered record plus a COMMIT marker in
    /// one append, then fsync. On success the returned LSN (the COMMIT
    /// marker's) is the caller's acknowledgement token. On failure the
    /// buffered records are discarded and the log refuses every later
    /// write until it is reopened (see the module docs: the batch may
    /// have reached the disk whole, and replay decides).
    pub fn commit(&mut self) -> Result<u64, StorageError> {
        self.check_healthy()?;
        let wobs = crate::metrics::wal_obs();
        let _commit_span =
            neurospatial_obs::span_timed(neurospatial_obs::Stage::WalCommit, &wobs.commit_latency);
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        encode_record(&mut self.pending, WAL_KIND_COMMIT, lsn, &[]);
        let group = self.pending_records;
        let batch = std::mem::take(&mut self.pending);
        self.pending_records = 0;
        let written = self.log.append(&batch).and_then(|()| self.log.sync());
        self.failed = written.is_err();
        written?;
        self.commits += 1;
        wobs.commits.inc();
        wobs.fsyncs.inc();
        wobs.append_bytes.record(batch.len() as u64);
        wobs.group_records.record(group);
        Ok(lsn)
    }

    /// Atomically replace the log with `header + CHECKPOINT(snapshot)`,
    /// bounding every future replay to the snapshot plus whatever
    /// commits follow it. Callers must ensure `snapshot` reflects every
    /// committed record (the facade drains its delta under the writer
    /// lock first). Crash-safe: the replace is all-or-nothing, so a
    /// failed checkpoint leaves the previous log fully intact — but the
    /// handle may no longer point at it, so the log refuses every later
    /// write until it is reopened.
    pub fn checkpoint(&mut self, snapshot: &[u8]) -> Result<u64, StorageError> {
        self.check_healthy()?;
        let lsn = self.next_lsn;
        let mut contents =
            Vec::with_capacity(WAL_HEADER_BYTES + WAL_RECORD_HEADER_BYTES + snapshot.len());
        contents.extend_from_slice(&WAL_MAGIC);
        contents.extend_from_slice(&WAL_VERSION.to_le_bytes());
        contents.extend_from_slice(&0u64.to_le_bytes());
        encode_record(&mut contents, WAL_KIND_CHECKPOINT, lsn, snapshot);
        let written = self.log.replace(&contents).and_then(|()| self.log.sync());
        self.failed = written.is_err();
        written?;
        let wobs = crate::metrics::wal_obs();
        wobs.checkpoints.inc();
        wobs.fsyncs.inc();
        self.next_lsn += 1;
        self.checkpoints += 1;
        self.pending.clear();
        self.pending_records = 0;
        Ok(lsn)
    }

    /// Current log length in bytes (excluding the unflushed buffer).
    pub fn bytes(&self) -> u64 {
        self.log.len()
    }

    /// The LSN the next record will take.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN handed out so far (0 before the first append).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Buffered (appended, uncommitted) records.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Successful commits since open.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Successful checkpoints since open.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultLog, FaultPlan};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("nswal-{}-{tag}-{n}", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.0.with_extension("wal-tmp"));
        }
    }

    #[test]
    fn fresh_log_round_trips_committed_ops() {
        let t = TempFile(temp_path("roundtrip"));
        {
            let (mut wal, rec) = Wal::open(&t.0).expect("create");
            assert_eq!(rec, WalRecovery::default());
            let a = wal.append(b"op-a").expect("append");
            let b = wal.append(b"op-b").expect("append");
            assert!(b > a);
            let c = wal.commit().expect("commit");
            assert!(c > b);
            wal.append(b"op-c").expect("append");
            wal.commit().expect("commit 2");
        }
        let (wal, rec) = Wal::open(&t.0).expect("reopen");
        assert_eq!(rec.ops, vec![b"op-a".to_vec(), b"op-b".to_vec(), b"op-c".to_vec()]);
        assert!(rec.snapshot.is_none());
        assert!(!rec.truncated_tail);
        assert!(wal.next_lsn() > rec.last_lsn);
    }

    #[test]
    fn uncommitted_appends_do_not_survive() {
        let t = TempFile(temp_path("uncommitted"));
        {
            let (mut wal, _) = Wal::open(&t.0).expect("create");
            wal.append(b"durable").expect("append");
            wal.commit().expect("commit");
            wal.append(b"buffered only, never committed").expect("append");
            // Dropped without commit: the record never reaches the disk.
        }
        let (_, rec) = Wal::open(&t.0).expect("reopen");
        assert_eq!(rec.ops, vec![b"durable".to_vec()]);
        assert!(!rec.truncated_tail, "nothing was on disk to truncate");
    }

    #[test]
    fn checkpoint_bounds_replay_and_lsn_stays_monotonic() {
        let t = TempFile(temp_path("checkpoint"));
        {
            let (mut wal, _) = Wal::open(&t.0).expect("create");
            wal.append(b"pre-1").expect("append");
            wal.append(b"pre-2").expect("append");
            wal.commit().expect("commit");
            wal.checkpoint(b"snapshot-state").expect("checkpoint");
            wal.append(b"post-1").expect("append");
            wal.commit().expect("commit");
        }
        let (wal, rec) = Wal::open(&t.0).expect("reopen");
        assert_eq!(rec.snapshot.as_deref(), Some(&b"snapshot-state"[..]));
        assert_eq!(rec.ops, vec![b"post-1".to_vec()]);
        assert!(rec.last_lsn >= 5, "lsn continues across the checkpoint");
        assert_eq!(wal.next_lsn(), rec.last_lsn + 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let t = TempFile(temp_path("torn"));
        {
            let (mut wal, _) = Wal::open(&t.0).expect("create");
            wal.append(b"kept").expect("append");
            wal.commit().expect("commit");
        }
        // Simulate a crash mid-append: half a record of garbage.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&t.0).expect("open for tear");
            f.write_all(&[0xAB; 11]).expect("tear");
        }
        let (mut wal, rec) = Wal::open(&t.0).expect("reopen");
        assert_eq!(rec.ops, vec![b"kept".to_vec()]);
        assert!(rec.truncated_tail);
        assert_eq!(rec.truncated_bytes, 11);
        wal.append(b"after-recovery").expect("append");
        wal.commit().expect("commit after recovery");
        let (_, rec2) = Wal::open(&t.0).expect("reopen 2");
        assert_eq!(rec2.ops, vec![b"kept".to_vec(), b"after-recovery".to_vec()]);
        assert!(!rec2.truncated_tail);
    }

    #[test]
    fn mid_log_corruption_is_refused_not_truncated() {
        let t = TempFile(temp_path("midrot"));
        {
            let (mut wal, _) = Wal::open(&t.0).expect("create");
            wal.append(b"first").expect("append");
            wal.commit().expect("commit");
            wal.append(b"second").expect("append");
            wal.commit().expect("commit");
        }
        // Flip one payload byte of the *first* record: valid bytes
        // follow, so this is bit rot, not a torn tail.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f =
                std::fs::OpenOptions::new().read(true).write(true).open(&t.0).expect("open");
            f.seek(SeekFrom::Start((WAL_HEADER_BYTES + WAL_RECORD_HEADER_BYTES) as u64))
                .expect("seek");
            f.write_all(&[0xFF]).expect("flip");
        }
        match Wal::open(&t.0) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.contains("fails verification"), "{msg}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn injected_crash_mid_commit_drops_exactly_the_unacked_batch() {
        let t = TempFile(temp_path("crash"));
        let acked;
        {
            let (mut wal, _) =
                Wal::open_log(Box::new(FileLog::open(&t.0).expect("filelog"))).expect("create");
            wal.append(b"acked-op").expect("append");
            wal.commit().expect("commit");
            acked = wal.bytes();
        }
        // Reopen through a FaultLog that crashes 10 bytes into the next
        // batch: the torn fragment must vanish on recovery.
        {
            let inner = FileLog::open(&t.0).expect("filelog");
            let plan = FaultPlan::new(1).with_write_crash_at(10);
            let (mut wal, rec) =
                Wal::open_log(Box::new(FaultLog::new(inner, plan))).expect("open faulted");
            assert!(!rec.truncated_tail);
            wal.append(b"never-acked").expect("append");
            let err = wal.commit().expect_err("crash point reached");
            assert!(!err.is_transient(), "a crash is not retryable: {err:?}");
            // Post-crash, the log is latched shut: further writes fail too.
            assert_eq!(wal.append(b"also dead"), Err(StorageError::WalFailed));
            assert_eq!(wal.commit(), Err(StorageError::WalFailed));
        }
        let (wal, rec) = Wal::open(&t.0).expect("recover");
        assert_eq!(rec.ops, vec![b"acked-op".to_vec()]);
        assert!(rec.truncated_tail, "the torn fragment was on disk");
        assert_eq!(wal.bytes(), acked, "recovery trims back to the acked prefix");
    }

    /// An in-memory log whose bytes outlive it, so a test can reopen
    /// them, and whose first `sync` fails as an fsync reporting EIO does.
    struct FailFirstSync {
        bytes: Arc<Mutex<Vec<u8>>>,
        fail_sync: bool,
    }

    impl LogIo for FailFirstSync {
        fn read_all(&mut self, buf: &mut Vec<u8>) -> Result<(), StorageError> {
            buf.clear();
            buf.extend_from_slice(&self.bytes.lock().expect("log bytes"));
            Ok(())
        }

        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.bytes.lock().expect("log bytes").extend_from_slice(bytes);
            Ok(())
        }

        fn sync(&mut self) -> Result<(), StorageError> {
            if std::mem::take(&mut self.fail_sync) {
                return Err(StorageError::Io {
                    kind: std::io::ErrorKind::Other,
                    context: "sync wal",
                });
            }
            Ok(())
        }

        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            self.bytes.lock().expect("log bytes").truncate(len as usize);
            Ok(())
        }

        fn replace(&mut self, contents: &[u8]) -> Result<(), StorageError> {
            *self.bytes.lock().expect("log bytes") = contents.to_vec();
            Ok(())
        }

        fn len(&self) -> u64 {
            self.bytes.lock().expect("log bytes").len() as u64
        }
    }

    #[test]
    fn failed_sync_latches_the_log_until_reopen() {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let open = |fail_sync| {
            let log = FailFirstSync { bytes: Arc::clone(&bytes), fail_sync };
            Wal::open_log(Box::new(log)).expect("open")
        };
        {
            let (mut wal, _) = open(false);
            wal.append(b"acked").expect("append");
            wal.commit().expect("commit");
        }
        {
            // Opening a non-empty, clean log does not sync, so the first
            // sync this handle makes is the commit's.
            let (mut wal, _) = open(true);
            wal.append(b"unsynced").expect("append");
            assert!(wal.commit().is_err(), "the failed fsync surfaces");
            assert_eq!(wal.append(b"after"), Err(StorageError::WalFailed));
            assert_eq!(wal.commit(), Err(StorageError::WalFailed));
            assert_eq!(wal.checkpoint(b"erases history"), Err(StorageError::WalFailed));
        }
        // The failed batch reached the log whole, so replay keeps it (a
        // failed fsync says nothing about what is durable), but nothing
        // committed after the failure exists, and the refused checkpoint
        // did not erase the history before it.
        let (mut wal, rec) = open(false);
        assert_eq!(rec.ops, vec![b"acked".to_vec(), b"unsynced".to_vec()]);
        assert!(rec.snapshot.is_none());
        // Reopening clears the latch.
        wal.append(b"fresh").expect("append");
        wal.commit().expect("commit after reopen");
    }

    #[test]
    fn injected_flip_in_committed_history_surfaces_as_corruption() {
        let t = TempFile(temp_path("flip"));
        {
            let inner = FileLog::open(&t.0).expect("filelog");
            // Flip a payload byte of the first DATA record as it is
            // written; two commits follow, so history continues past it.
            let flip_at = (WAL_HEADER_BYTES + WAL_RECORD_HEADER_BYTES) as u64;
            let plan = FaultPlan::new(2).with_write_flip(flip_at, 0x40);
            let (mut wal, _) =
                Wal::open_log(Box::new(FaultLog::new(inner, plan))).expect("open faulted");
            wal.append(b"rotting").expect("append");
            wal.commit().expect("commit still succeeds: fsync lied");
            wal.append(b"healthy").expect("append");
            wal.commit().expect("commit 2");
        }
        assert!(
            matches!(Wal::open(&t.0), Err(StorageError::Corrupt(_))),
            "flip inside acknowledged history must refuse replay"
        );
    }

    #[test]
    fn crash_during_checkpoint_leaves_previous_log_intact() {
        let t = TempFile(temp_path("ckptcrash"));
        {
            let (mut wal, _) = Wal::open(&t.0).expect("create");
            wal.append(b"survives").expect("append");
            wal.commit().expect("commit");
        }
        {
            let inner = FileLog::open(&t.0).expect("filelog");
            // Crash far enough ahead that appends succeed, but inside
            // the checkpoint's replace window.
            let plan = FaultPlan::new(3).with_write_crash_at(8);
            let (mut wal, _) = Wal::open_log(Box::new(FaultLog::new(inner, plan))).expect("open");
            wal.checkpoint(b"lost-snapshot").expect_err("replace crashes");
        }
        let (_, rec) = Wal::open(&t.0).expect("recover");
        assert!(rec.snapshot.is_none(), "failed checkpoint must not half-apply");
        assert_eq!(rec.ops, vec![b"survives".to_vec()]);
    }

    #[test]
    fn foreign_bytes_are_rejected() {
        let t = TempFile(temp_path("magic"));
        std::fs::write(&t.0, b"definitely not a wal file").expect("write");
        assert!(matches!(Wal::open(&t.0), Err(StorageError::BadMagic)));
        let mut versioned = Vec::new();
        versioned.extend_from_slice(&WAL_MAGIC);
        versioned.extend_from_slice(&99u32.to_le_bytes());
        versioned.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&t.0, &versioned).expect("write");
        assert!(matches!(Wal::open(&t.0), Err(StorageError::BadVersion(99))));
    }
}
