//! The on-disk page file: a versioned, checksummed page-array format.
//!
//! This is the persistence half of the out-of-core stack. A *page file*
//! is a fixed-size header, a dense array of equally-sized pages, and a
//! trailing variable-length metadata blob. Index structures (FLAT's page
//! neighborhoods, in `neurospatial-scout`) serialize their per-page
//! payloads into the page array and their page-level metadata (MBRs,
//! neighbor links, build parameters) into the blob; at query time pages
//! are read back one at a time through the pinning
//! [`FramePool`](crate::FramePool).
//!
//! ## Byte layout
//!
//! All integers are little-endian. Checksums are 64-bit FNV-1a
//! ([`checksum64`]).
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"NSPF"` |
//! | 4      | 4    | format version (`u32`, currently 1) |
//! | 8      | 4    | page size in bytes (`u32`, incl. the per-page header) |
//! | 12     | 4    | reserved (0) |
//! | 16     | 8    | page count (`u64`) |
//! | 24     | 8    | metadata length (`u64`) |
//! | 32     | 8    | metadata checksum (`u64`) |
//! | 40     | 8    | header checksum (`u64`, over bytes 0..40) |
//! | 48     | 16   | reserved (0) |
//! | 64     | `page_count × page_size` | the page array |
//! | …      | `meta_len` | metadata blob |
//!
//! Each page starts with its own 16-byte header:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | payload length (`u32`, ≤ `page_size − 16`) |
//! | 4      | 4    | page index (`u32`, must equal the page's position) |
//! | 8      | 8    | page checksum (`u64`, over the 8 header bytes above + payload) |
//! | 16     | payload length | payload |
//! | …      | —    | zero padding up to `page_size` |
//!
//! Storing the page's own index under the checksum catches misdirected
//! reads (a page written to — or read from — the wrong slot) in addition
//! to bit rot.
//!
//! ## Totality
//!
//! [`PageFile::open`] and [`PageFile::read_page_into`] never panic on
//! untrusted input: every malformed byte sequence — short file, wrong
//! magic, unknown version, absurd page size, bad checksum, out-of-range
//! page index — maps to a typed [`StorageError`]. The checksum is
//! re-verified on **every** page read, so a page that rots after `open`
//! still surfaces as [`StorageError::PageChecksum`] rather than silent
//! wrong answers.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic of the page-file format.
pub const PAGE_FILE_MAGIC: [u8; 4] = *b"NSPF";
/// Current page-file format version.
pub const PAGE_FILE_VERSION: u32 = 1;
/// Size of the file header in bytes.
pub const FILE_HEADER_BYTES: usize = 64;
/// Size of the per-page header in bytes.
pub const PAGE_HEADER_BYTES: usize = 16;
/// Smallest accepted page size (header + at least some payload room).
pub const MIN_PAGE_SIZE: usize = PAGE_HEADER_BYTES + 16;
/// Largest accepted page size (1 GiB — anything beyond this in a header
/// is treated as corruption, not ambition).
pub const MAX_PAGE_SIZE: usize = 1 << 30;

/// 64-bit FNV-1a over `bytes`.
///
/// Not cryptographic — this guards against bit rot, truncation and
/// misdirected I/O, not adversaries. It is public so tests (and external
/// tooling) can craft files with *valid* checksums over deliberately
/// invalid fields, proving the field validation itself fires.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Checksum64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming form of [`checksum64`], for checksumming discontiguous
/// parts (page header + payload) without concatenating them.
#[derive(Debug, Clone, Copy)]
pub struct Checksum64 {
    state: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// A fresh hasher (FNV-1a offset basis).
    pub fn new() -> Self {
        Checksum64 { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Typed failures of the on-disk storage stack.
///
/// Every reader in this module is *total*: corrupt, truncated or
/// hostile input maps to one of these variants, never a panic. The enum
/// is `Clone + PartialEq + Eq` so higher layers
/// (`neurospatial-core`'s `NeuroError`) can embed it while keeping their
/// own derives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O error (file missing, permission denied,
    /// disk full, …). Carries the [`std::io::ErrorKind`] plus a static
    /// note saying which operation failed; the full `std::io::Error` is
    /// not stored because it is neither `Clone` nor `Eq`.
    Io {
        /// Kind of the underlying OS error.
        kind: std::io::ErrorKind,
        /// Which operation failed (e.g. `"open"`, `"read page"`).
        context: &'static str,
    },
    /// The file does not start with the page-file magic.
    BadMagic,
    /// The header declares a format version this build cannot read.
    BadVersion(u32),
    /// The file is shorter than its header says it should be.
    Truncated {
        /// Bytes the header implies the file must hold.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The file header's self-checksum does not match — the header
    /// itself is corrupt, so none of its fields can be trusted.
    HeaderChecksum,
    /// A page's stored checksum does not match its contents, or its
    /// stored index does not match the slot it was read from.
    PageChecksum {
        /// Index of the corrupt page.
        page: u64,
    },
    /// A page index at or beyond the file's page count was requested.
    PageOutOfRange {
        /// The requested page index.
        page: u64,
        /// Number of pages in the file.
        count: u64,
    },
    /// The header's fields are structurally invalid (absurd page size),
    /// or the metadata blob failed its checksum or its consumer's
    /// decoder. The string says what was wrong.
    Corrupt(String),
    /// Every frame in the buffer pool is pinned — the frame budget is
    /// too small for the number of pages the caller holds pinned at
    /// once.
    FrameBudgetExhausted {
        /// The pool's frame capacity.
        frames: usize,
    },
    /// The requested pages sit in the frame pool's quarantine set: a
    /// previous read failed permanently (bit rot, torn write) and the
    /// page was fenced off so one bad sector cannot take down the whole
    /// process. Queries that opt into partial results skip these pages
    /// instead of failing.
    Quarantined {
        /// The quarantined pages the operation touched, ascending.
        pages: Vec<u64>,
    },
    /// Open-time validation swept the whole page array and found these
    /// corrupt pages. Unlike [`PageChecksum`](Self::PageChecksum) (one
    /// page, detected lazily) this reports the full blast radius in a
    /// single pass so operators see every bad page at once.
    BadPages {
        /// Every page that failed validation, ascending.
        pages: Vec<u64>,
    },
    /// A write-ahead log refused a write because an earlier commit or
    /// checkpoint on it failed; reopen the log to recover.
    WalFailed,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { kind, context } => write!(f, "i/o error during {context}: {kind}"),
            StorageError::BadMagic => write!(f, "not a neurospatial page file"),
            StorageError::BadVersion(v) => write!(f, "unsupported page-file version {v}"),
            StorageError::Truncated { expected, got } => {
                write!(f, "truncated page file: expected {expected} bytes, got {got}")
            }
            StorageError::HeaderChecksum => write!(f, "page-file header failed its checksum"),
            StorageError::PageChecksum { page } => {
                write!(f, "page {page} failed its checksum")
            }
            StorageError::PageOutOfRange { page, count } => {
                write!(f, "page {page} out of range (file holds {count})")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt page file: {what}"),
            StorageError::FrameBudgetExhausted { frames } => {
                write!(f, "all {frames} buffer frames are pinned")
            }
            StorageError::Quarantined { pages } => {
                write!(f, "quarantined page(s) {pages:?} (permanent read failures)")
            }
            StorageError::BadPages { pages } => {
                write!(f, "{} corrupt page(s): {pages:?}", pages.len())
            }
            StorageError::WalFailed => {
                write!(f, "write-ahead log refuses writes after a failed commit; reopen it")
            }
        }
    }
}

impl StorageError {
    /// Whether retrying the failed operation can plausibly succeed.
    ///
    /// Transient failures are interrupted/blocked/timed-out OS reads
    /// (`EINTR`-class errors) and a momentarily exhausted frame budget;
    /// everything else — corruption, truncation, version skew, missing
    /// files, quarantine — is permanent and **must not** be retried
    /// (retrying a checksum failure re-reads the same rotten bytes).
    /// This classification drives the bounded-retry path in
    /// [`crate::fault::with_retry`] and the client-side retry policy.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io { kind, .. } => matches!(
                kind,
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            StorageError::FrameBudgetExhausted { .. } => true,
            _ => false,
        }
    }
}

impl std::error::Error for StorageError {}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StorageError {
    move |e| StorageError::Io { kind: e.kind(), context }
}

/// Writes a page file: create, append pages, then [`finish`](PageFileWriter::finish) with the
/// metadata blob to stamp the header.
///
/// The header is written last (the page count is only known then); a
/// writer that is dropped without `finish` leaves a file with a zeroed
/// header, which readers reject as [`StorageError::BadMagic`] — a
/// half-written file can never be mistaken for a complete one.
///
/// ```no_run
/// use neurospatial_storage::{PageFile, PageFileWriter};
///
/// let mut w = PageFileWriter::create("circuit.flat", 4096)?;
/// w.append_page(b"first page payload")?;
/// w.append_page(b"second page payload")?;
/// w.finish(b"index metadata")?;
/// let f = PageFile::open("circuit.flat")?;
/// assert_eq!(f.page_count(), 2);
/// # Ok::<(), neurospatial_storage::StorageError>(())
/// ```
#[derive(Debug)]
pub struct PageFileWriter {
    file: File,
    page_size: usize,
    pages: u64,
    buf: Vec<u8>,
}

impl PageFileWriter {
    /// Create (truncating) `path` with the given page size.
    ///
    /// `page_size` must lie in [`MIN_PAGE_SIZE`]`..=`[`MAX_PAGE_SIZE`];
    /// payloads of up to `page_size − 16` bytes fit on a page.
    pub fn create<P: AsRef<Path>>(path: P, page_size: usize) -> Result<Self, StorageError> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StorageError::Corrupt(format!(
                "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )));
        }
        let mut file = File::create(path).map_err(io_err("create"))?;
        // Placeholder header — zeroed, so it fails the magic check until
        // finish() overwrites it.
        file.write_all(&[0u8; FILE_HEADER_BYTES]).map_err(io_err("write header"))?;
        Ok(PageFileWriter { file, page_size, pages: 0, buf: vec![0u8; page_size] })
    }

    /// Number of pages appended so far.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// The page size this writer was created with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Append one page holding `payload`.
    ///
    /// Fails with [`StorageError::Corrupt`] if the payload does not fit
    /// in `page_size − 16` bytes.
    pub fn append_page(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        let cap = self.page_size - PAGE_HEADER_BYTES;
        if payload.len() > cap {
            return Err(StorageError::Corrupt(format!(
                "payload of {} bytes exceeds page capacity {cap}",
                payload.len()
            )));
        }
        let index = u32::try_from(self.pages)
            .map_err(|_| StorageError::Corrupt("more than u32::MAX pages".into()))?;
        self.buf.fill(0);
        self.buf[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf[4..8].copy_from_slice(&index.to_le_bytes());
        let mut h = Checksum64::new();
        h.update(&self.buf[0..8]);
        h.update(payload);
        self.buf[8..16].copy_from_slice(&h.finish().to_le_bytes());
        self.buf[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload.len()].copy_from_slice(payload);
        self.file.write_all(&self.buf).map_err(io_err("write page"))?;
        self.pages += 1;
        Ok(())
    }

    /// Write the metadata blob, stamp the header, and sync to disk.
    pub fn finish(mut self, meta: &[u8]) -> Result<(), StorageError> {
        self.file.write_all(meta).map_err(io_err("write metadata"))?;

        let mut header = [0u8; FILE_HEADER_BYTES];
        header[0..4].copy_from_slice(&PAGE_FILE_MAGIC);
        header[4..8].copy_from_slice(&PAGE_FILE_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        // 12..16 reserved.
        header[16..24].copy_from_slice(&self.pages.to_le_bytes());
        header[24..32].copy_from_slice(&(meta.len() as u64).to_le_bytes());
        header[32..40].copy_from_slice(&checksum64(meta).to_le_bytes());
        let hsum = checksum64(&header[0..40]);
        header[40..48].copy_from_slice(&hsum.to_le_bytes());

        self.file.seek(SeekFrom::Start(0)).map_err(io_err("seek to header"))?;
        self.file.write_all(&header).map_err(io_err("write header"))?;
        self.file.sync_all().map_err(io_err("sync"))?;
        Ok(())
    }
}

/// A validated, read-only page file.
///
/// `open` verifies the header (magic, version, page-size sanity, header
/// checksum, exact file length) and the metadata blob's checksum; after
/// that, [`read_page_into`](Self::read_page_into) serves positioned
/// page reads — concurrently from any number of threads — verifying
/// each page's checksum and stored index on **every** read.
#[derive(Debug)]
pub struct PageFile {
    file: FileReader,
    page_size: usize,
    page_count: u64,
    meta: Vec<u8>,
}

/// Positioned-read wrapper: lock-free `read_at` on unix, a mutexed
/// seek+read fallback elsewhere.
#[derive(Debug)]
struct FileReader {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl FileReader {
    fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            FileReader { file }
        }
        #[cfg(not(unix))]
        {
            FileReader { file: std::sync::Mutex::new(file) }
        }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            let mut f = self.file.lock().unwrap_or_else(|p| p.into_inner());
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

impl PageFile {
    /// Open and validate `path`.
    ///
    /// Total on untrusted input: every way the file can be malformed —
    /// missing, shorter than a header, wrong magic, unknown version,
    /// nonsensical page size, corrupt header checksum, truncated page
    /// array or metadata, metadata checksum mismatch — returns the
    /// corresponding typed [`StorageError`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        let mut file = File::open(path).map_err(io_err("open"))?;
        let file_len = file.metadata().map_err(io_err("stat"))?.len();

        let mut header = [0u8; FILE_HEADER_BYTES];
        if file_len < FILE_HEADER_BYTES as u64 {
            return Err(StorageError::Truncated {
                expected: FILE_HEADER_BYTES as u64,
                got: file_len,
            });
        }
        file.read_exact(&mut header).map_err(io_err("read header"))?;
        if header[0..4] != PAGE_FILE_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != PAGE_FILE_VERSION {
            return Err(StorageError::BadVersion(version));
        }
        // Checksum before trusting the remaining fields: a bit-flipped
        // page count or meta length would otherwise drive the length
        // check with garbage.
        let stored_hsum = u64::from_le_bytes(header[40..48].try_into().expect("8 bytes"));
        if checksum64(&header[0..40]) != stored_hsum {
            return Err(StorageError::HeaderChecksum);
        }
        let page_size = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StorageError::Corrupt(format!("page size {page_size} out of range")));
        }
        let page_count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let meta_len = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        let meta_sum = u64::from_le_bytes(header[32..40].try_into().expect("8 bytes"));

        let expected = (FILE_HEADER_BYTES as u64)
            .checked_add(
                page_count
                    .checked_mul(page_size as u64)
                    .ok_or(StorageError::Corrupt("page count × page size overflows".to_string()))?,
            )
            .and_then(|n| n.checked_add(meta_len))
            .ok_or(StorageError::Corrupt("declared size overflows".to_string()))?;
        if file_len != expected {
            return Err(StorageError::Truncated { expected, got: file_len });
        }
        if meta_len > (1 << 32) {
            return Err(StorageError::Corrupt(format!("metadata blob of {meta_len} bytes")));
        }

        let mut meta = vec![0u8; meta_len as usize];
        file.seek(SeekFrom::Start(FILE_HEADER_BYTES as u64 + page_count * page_size as u64))
            .map_err(io_err("seek to metadata"))?;
        file.read_exact(&mut meta).map_err(io_err("read metadata"))?;
        if checksum64(&meta) != meta_sum {
            return Err(StorageError::Corrupt("metadata failed its checksum".to_string()));
        }

        Ok(PageFile { file: FileReader::new(file), page_size, page_count, meta })
    }

    /// Number of pages in the file.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// The page size (including the 16-byte per-page header).
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Largest payload a page of this file can hold.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_BYTES
    }

    /// The metadata blob (checksum-verified at open).
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Read page `page`'s payload into `buf` (cleared and refilled),
    /// verifying the page checksum and stored page index.
    ///
    /// Thread-safe: concurrent reads of different (or the same) pages
    /// need no external locking.
    pub fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        if page >= self.page_count {
            return Err(StorageError::PageOutOfRange { page, count: self.page_count });
        }
        buf.clear();
        buf.resize(self.page_size, 0);
        let offset = FILE_HEADER_BYTES as u64 + page * self.page_size as u64;
        self.file.read_exact_at(buf, offset).map_err(io_err("read page"))?;

        let payload_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        let stored_index = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        let stored_sum = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        if payload_len > self.page_size - PAGE_HEADER_BYTES {
            return Err(StorageError::PageChecksum { page });
        }
        let mut h = Checksum64::new();
        h.update(&buf[0..8]);
        h.update(&buf[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload_len]);
        if h.finish() != stored_sum || u64::from(stored_index) != page {
            return Err(StorageError::PageChecksum { page });
        }
        // Shrink to the payload alone: rotate it to the front, truncate.
        buf.drain(..PAGE_HEADER_BYTES);
        buf.truncate(payload_len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("nspf-test-{}-{tag}-{n}", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_sample(path: &Path, pages: &[&[u8]], meta: &[u8]) {
        let mut w = PageFileWriter::create(path, 64).expect("create");
        for p in pages {
            w.append_page(p).expect("append");
        }
        w.finish(meta).expect("finish");
    }

    #[test]
    fn roundtrip() {
        let t = TempFile(temp_path("roundtrip"));
        write_sample(&t.0, &[b"alpha", b"beta-beta", b""], b"the metadata");
        let f = PageFile::open(&t.0).expect("open");
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.page_size(), 64);
        assert_eq!(f.meta(), b"the metadata");
        let mut buf = Vec::new();
        f.read_page_into(0, &mut buf).expect("page 0");
        assert_eq!(buf, b"alpha");
        f.read_page_into(1, &mut buf).expect("page 1");
        assert_eq!(buf, b"beta-beta");
        f.read_page_into(2, &mut buf).expect("page 2");
        assert!(buf.is_empty());
        assert_eq!(
            f.read_page_into(3, &mut buf),
            Err(StorageError::PageOutOfRange { page: 3, count: 3 })
        );
    }

    #[test]
    fn oversized_payload_rejected() {
        let t = TempFile(temp_path("oversize"));
        let mut w = PageFileWriter::create(&t.0, 64).expect("create");
        let err = w.append_page(&[0u8; 64]).expect_err("must not fit");
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert!(w.append_page(&[0u8; 48]).is_ok(), "exactly page_size - 16 fits");
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let t = TempFile(temp_path("unfinished"));
        let mut w = PageFileWriter::create(&t.0, 64).expect("create");
        w.append_page(b"x").expect("append");
        drop(w); // never finished: header stays zeroed
        assert_eq!(PageFile::open(&t.0).expect_err("unfinished"), StorageError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let t = TempFile(temp_path("trunc"));
        write_sample(&t.0, &[b"one", b"two"], b"meta");
        let bytes = std::fs::read(&t.0).expect("read");
        for cut in [bytes.len() - 1, bytes.len() - 4, FILE_HEADER_BYTES + 10, 10, 0] {
            std::fs::write(&t.0, &bytes[..cut]).expect("write");
            let err = PageFile::open(&t.0).expect_err("truncated");
            assert!(matches!(err, StorageError::Truncated { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn bit_flips_detected_where_they_land() {
        let t = TempFile(temp_path("bitflip"));
        write_sample(&t.0, &[b"payload-zero", b"payload-one"], b"metadata!");
        let bytes = std::fs::read(&t.0).expect("read");
        // Flip a bit in page 1's payload: open succeeds (pages are
        // verified lazily), the read of page 1 fails, page 0 still reads.
        let mut flipped = bytes.clone();
        flipped[FILE_HEADER_BYTES + 64 + PAGE_HEADER_BYTES + 3] ^= 0x10;
        std::fs::write(&t.0, &flipped).expect("write");
        let f = PageFile::open(&t.0).expect("open");
        let mut buf = Vec::new();
        f.read_page_into(0, &mut buf).expect("page 0 intact");
        assert_eq!(f.read_page_into(1, &mut buf), Err(StorageError::PageChecksum { page: 1 }));

        // Flip a bit in the header: nothing can be trusted.
        let mut flipped = bytes.clone();
        flipped[17] ^= 0x01; // page count
        std::fs::write(&t.0, &flipped).expect("write");
        assert_eq!(PageFile::open(&t.0).expect_err("header"), StorageError::HeaderChecksum);

        // Flip a bit in the metadata: caught at open.
        let mut flipped = bytes;
        let meta_off = FILE_HEADER_BYTES + 2 * 64;
        flipped[meta_off + 2] ^= 0x40;
        std::fs::write(&t.0, &flipped).expect("write");
        assert!(matches!(PageFile::open(&t.0), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn wrong_version_with_valid_checksum() {
        let t = TempFile(temp_path("version"));
        write_sample(&t.0, &[b"x"], b"");
        let mut bytes = std::fs::read(&t.0).expect("read");
        // A future version with a *correct* checksum must still be
        // rejected as BadVersion, not HeaderChecksum.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let sum = checksum64(&bytes[0..40]);
        bytes[40..48].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&t.0, &bytes).expect("write");
        assert_eq!(PageFile::open(&t.0).expect_err("version"), StorageError::BadVersion(99));
    }

    #[test]
    fn swapped_pages_detected_by_stored_index() {
        let t = TempFile(temp_path("swap"));
        write_sample(&t.0, &[b"aaaa", b"bbbb"], b"");
        let mut bytes = std::fs::read(&t.0).expect("read");
        // Swap the two page slots wholesale: each page's checksum is
        // intact, but the stored index no longer matches the slot.
        let (a, b) = (FILE_HEADER_BYTES, FILE_HEADER_BYTES + 64);
        for i in 0..64 {
            bytes.swap(a + i, b + i);
        }
        std::fs::write(&t.0, &bytes).expect("write");
        let f = PageFile::open(&t.0).expect("open");
        let mut buf = Vec::new();
        assert_eq!(f.read_page_into(0, &mut buf), Err(StorageError::PageChecksum { page: 0 }));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = PageFile::open("/nonexistent/nspf").expect_err("missing");
        assert!(matches!(err, StorageError::Io { context: "open", .. }));
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        let t = TempFile(temp_path("garbage"));
        let mut payload = Vec::new();
        for seed in 0..200u64 {
            // Deterministic pseudo-random garbage of varying lengths.
            payload.clear();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..(seed * 7 % 300) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                payload.push(x as u8);
            }
            std::fs::write(&t.0, &payload).expect("write");
            let _ = PageFile::open(&t.0); // must return, not panic
        }
    }

    #[test]
    fn checksum_is_stable_fnv1a() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(checksum64(b""), 0xcbf29ce484222325);
        assert_eq!(checksum64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(checksum64(b"foobar"), 0x85944171f73967e8);
        let mut h = Checksum64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), checksum64(b"foobar"));
    }
}
