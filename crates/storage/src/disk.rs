//! Single-file paged bucket store — the paper's "Disk storage" (Table 2,
//! CoPhIR configuration), crash-safe since PR 8.
//!
//! Layout (format v2): `<path>` is a file of 4 KiB pages. Slot 0 is a
//! write-once stamp page; every other page carries the checksummed
//! [`pagefmt`] header (crc, magic, page id, lsn, chain link, used bytes)
//! and is either on the free list or part of a chain: bucket chains carry
//! record bytes, the directory chain persists the bucket table on flush.
//! The committed state (page count, free/directory heads, last LSN, clean
//! flag) lives in the sidecar `<path>.meta` ([`Meta`]), replaced
//! atomically; `<path>.wal` ([`wal`]) carries full-page images so a crash
//! at *any* instant recovers to the last `flush()`.
//!
//! Durability contract:
//!
//! * **Mutations never touch the file.** `append`/`delete_bucket` only
//!   dirty pool pages; dirty pages are pinned (the pool evicts clean pages
//!   only), so between flushes the on-disk bytes are exactly the last
//!   committed state.
//! * **`flush()` is the commit point.** It serializes the directory,
//!   seals every dirty page (LSN + CRC), appends them plus a commit frame
//!   (carrying the new meta) to the WAL, fsyncs the WAL — *that sync is
//!   the commit* — then checkpoints the pages in place, fsyncs them,
//!   atomically replaces the meta (`clean = 1`), truncates the WAL and
//!   trims the pool back to its capacity.
//! * **`open()` recovers automatically** when the meta is unclean or the
//!   WAL is non-empty: committed WAL batches are replayed LSN-gated,
//!   torn tails discarded, and the result is reported via
//!   [`IoStats::pages_recovered`] / [`DiskStore::recovered_on_open`].
//!
//! A fixed-size LRU buffer pool (`pool.rs`) fronts the file; every
//! pool miss re-verifies the page CRC.
//!
//! # Concurrency model
//!
//! Writers (`append`, `delete_bucket`, `flush`) take `&mut self`; readers
//! (`read_bucket`, `read_matching`, the metadata calls, `verify`) take
//! `&self` and run concurrently with each other. The borrow checker is
//! the reader/writer lock: no read can overlap a write, so everything a
//! writer owns — bucket directory, page count, free list, LSN — is plain
//! data that readers consult with no lock at all, and the [`IoStats`]
//! counters are atomics.
//!
//! The only latch is the pool's, and it covers only pool bookkeeping: a
//! reader takes it to look a page up (a hit copies the page's payload out
//! under it) and again to install a page it fetched. The fetch itself —
//! one positional `pread` through [`Backend::read_at`] and the CRC check,
//! which together are nearly all of a miss — runs **outside the latch**
//! into the reader's own scratch page, so misses on different pages
//! proceed in parallel and `simcloud-analyze` rejects a backend read under
//! a live pool guard. Two readers that miss on the same page both fetch
//! it; that race is benign because the page is clean — its bytes in the
//! file cannot change while any reader exists — so both hold the same
//! image and the second install is dropped. Dirty frames are pinned and
//! never re-read: for them the pool *is* the truth until `flush()`.
//!
//! None of this touches the format: the same pages, CRC values, WAL
//! frames and meta that PR 8 wrote.
//!
//! This module is part of the storage recovery path enforced at zero
//! panic sites by `simcloud-analyze`.
//!
//! [`Meta`]: crate::meta::Meta
//! [`wal`]: crate::wal
//! [`Backend::read_at`]: crate::backend::Backend::read_at

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use simcloud_telemetry::Registry;

use crate::backend::{FileEnv, StorageEnv};
use crate::meta::Meta;
use crate::pagefmt::{
    self, get_bytes, read_u16, read_u32, read_u64, PAGE_CAP, PAGE_HDR, PAGE_SIZE,
};
use crate::pool::{PageBuf, Pool};
use crate::telemetry::StorageTiming;
use crate::wal;
use crate::{BucketId, BucketStore, IoStats, Record, StorageError};

const NIL: u32 = 0;
/// Bytes per serialized directory entry: bucket u64, head u32, tail u32,
/// tail_used u16, records u64.
const DIR_ENTRY: usize = 26;

/// Construction-time knobs of a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct DiskStoreOptions {
    /// Buffer-pool capacity in pages (minimum 2). Dirty pages are pinned,
    /// so the pool can temporarily exceed this between flushes.
    pub pool_pages: usize,
}

impl Default for DiskStoreOptions {
    fn default() -> Self {
        DiskStoreOptions { pool_pages: 1024 }
    }
}

#[derive(Debug, Clone, Copy)]
struct BucketMeta {
    head: u32,
    tail: u32,
    /// bytes used in the tail page (cached to avoid a read on append)
    tail_used: u16,
    records: u64,
    /// Pages this process linked into the chain — not persisted, so a
    /// lower bound after a reopen. Sizes the read buffer up front.
    pages: u32,
}

impl BucketMeta {
    /// Bytes in the chain's stream as far as this process knows its pages
    /// (every page before the tail is full): exact for a chain built since
    /// open, a lower bound after a reopen.
    fn stream_bytes(&self) -> usize {
        match self.pages {
            0 => 0,
            pages => (pages as usize - 1) * PAGE_CAP + usize::from(self.tail_used),
        }
    }
}

const EMPTY_BUCKET: BucketMeta = BucketMeta {
    head: NIL,
    tail: NIL,
    tail_used: 0,
    records: 0,
    pages: 0,
};

/// [`IoStats`] as atomics, so `&self` readers count without a lock.
#[derive(Debug, Default)]
struct IoCounters {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    pool_hits: AtomicU64,
    records_appended: AtomicU64,
    records_read: AtomicU64,
    wal_appends: AtomicU64,
    pages_recovered: AtomicU64,
    crc_failures: AtomicU64,
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl IoCounters {
    fn snapshot(&self) -> IoStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IoStats {
            page_reads: get(&self.page_reads),
            page_writes: get(&self.page_writes),
            pool_hits: get(&self.pool_hits),
            records_appended: get(&self.records_appended),
            records_read: get(&self.records_read),
            wal_appends: get(&self.wal_appends),
            pages_recovered: get(&self.pages_recovered),
            crc_failures: get(&self.crc_failures),
        }
    }
}

/// Paged single-file bucket store with WAL-backed crash safety and an LRU
/// buffer pool. See the module docs for the concurrency model.
pub struct DiskStore {
    env: Box<dyn StorageEnv>,
    page_count: u32,
    free_head: u32,
    dir_head: u32,
    /// Last committed batch; the next flush commits `lsn + 1`.
    lsn: u64,
    directory: HashMap<BucketId, BucketMeta>,
    /// The one latch: pool bookkeeping only, never held across I/O.
    pool: Mutex<Pool>,
    stats: IoCounters,
    recovered: bool,
    /// Optional flush timing (see [`StorageTiming`]); bound by the server
    /// front end so WAL appends, fsyncs and checkpoints land in its
    /// registry.
    telemetry: Option<StorageTiming>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("pages", &self.page_count)
            .field("buckets", &self.directory.len())
            .field("pool", &self.resident_pages())
            .field("lsn", &self.lsn)
            .finish()
    }
}

impl DiskStore {
    /// Creates a new store file (truncating any existing content) with
    /// default options (a 1024-page pool).
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        Self::create_opts(path, DiskStoreOptions::default())
    }

    /// Creates a new store with explicit options.
    pub fn create_opts<P: AsRef<Path>>(
        path: P,
        opts: DiskStoreOptions,
    ) -> Result<Self, StorageError> {
        Self::create_in(Box::new(FileEnv::open(path.as_ref())?), opts)
    }

    /// Opens an existing store, recovering automatically if the last
    /// shutdown was unclean.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StorageError> {
        Self::open_opts(path, DiskStoreOptions::default())
    }

    /// Opens with explicit options.
    pub fn open_opts<P: AsRef<Path>>(
        path: P,
        opts: DiskStoreOptions,
    ) -> Result<Self, StorageError> {
        Self::open_in(Box::new(FileEnv::open(path.as_ref())?), opts)
    }

    fn over(env: Box<dyn StorageEnv>, meta: Meta, opts: DiskStoreOptions) -> Self {
        DiskStore {
            env,
            page_count: meta.page_count,
            free_head: meta.free_head,
            dir_head: meta.dir_head,
            lsn: meta.lsn,
            directory: HashMap::new(),
            pool: Mutex::new(Pool::new(opts.pool_pages.max(2))),
            stats: IoCounters::default(),
            recovered: false,
            telemetry: None,
        }
    }

    /// Creates a fresh store over an arbitrary [`StorageEnv`] — the entry
    /// point of the fault-injection harness.
    pub fn create_in(
        mut env: Box<dyn StorageEnv>,
        opts: DiskStoreOptions,
    ) -> Result<Self, StorageError> {
        env.pages().set_len(0)?;
        env.pages().write_at(0, &pagefmt::stamp_page())?;
        env.pages().sync()?;
        env.wal().set_len(0)?;
        env.wal().sync()?;
        // clean = false: a writer is live from the moment of creation.
        let meta = Meta::initial();
        env.store_meta(&meta.encode())?;
        let store = Self::over(env, meta, opts);
        bump(&store.stats.page_writes, 1);
        Ok(store)
    }

    /// Opens a store over an arbitrary [`StorageEnv`], recovering if the
    /// meta is unclean or the WAL is non-empty.
    pub fn open_in(
        mut env: Box<dyn StorageEnv>,
        opts: DiskStoreOptions,
    ) -> Result<Self, StorageError> {
        let meta_bytes = env.load_meta()?.ok_or_else(|| {
            StorageError::Corrupt("no meta document — not a crash-safe (v2) store".into())
        })?;
        let disk_meta = Meta::decode(&meta_bytes)?;
        let mut stamp = vec![0u8; PAGE_SIZE];
        env.pages()
            .read_at(0, &mut stamp)
            .map_err(|_| StorageError::Corrupt("page file too short for its stamp page".into()))?;
        if !pagefmt::is_stamp(&stamp) {
            return Err(StorageError::Corrupt("bad stamp page".into()));
        }
        let wal_len = env.wal().len()?;
        let mut adopted = disk_meta;
        let mut recovered = false;
        let mut pages_recovered = 0;
        if !disk_meta.clean || wal_len > 0 {
            let (pages, wal_backend) = env.pages_and_wal();
            let outcome = wal::recover(pages, wal_backend)?;
            if let Some(committed) = outcome.meta {
                // A WAL commit older than the meta is a stale remnant of
                // an interrupted truncate; the meta already covers it.
                if committed.lsn >= disk_meta.lsn {
                    adopted = committed;
                }
            }
            pages_recovered = outcome.pages_applied;
            recovered = true;
            env.wal().set_len(0)?;
            env.wal().sync()?;
        }
        // Mark a writer live; flush() restores clean = true.
        adopted.clean = false;
        env.store_meta(&adopted.encode())?;
        let mut store = Self::over(env, adopted, opts);
        store.recovered = recovered;
        bump(&store.stats.page_reads, 1);
        bump(&store.stats.pages_recovered, pages_recovered);
        store.load_directory()?;
        Ok(store)
    }

    /// Pages currently allocated in the backing file (stamp included).
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Pages currently held by the buffer pool. At most `pool_pages` after
    /// a `flush()`; above it only while unflushed (pinned) pages overflow.
    pub fn resident_pages(&self) -> usize {
        self.pool.lock().resident()
    }

    /// Whether `open()` found an unclean store and ran recovery (even a
    /// recovery that had nothing to replay).
    pub fn recovered_on_open(&self) -> bool {
        self.recovered
    }

    /// Binds flush timing (`wal.append` / `wal.fsync` / `wal.checkpoint`
    /// histograms) into `registry`. Timing follows the registry's enabled
    /// switch; an unbound store reads no clocks.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(StorageTiming::bind(registry));
    }

    /// Full offline-style verification: every committed page re-read from
    /// the file and CRC-checked, every bucket's record stream decoded and
    /// counted against the directory. `Err` means corruption; failures
    /// also bump [`IoStats::crc_failures`].
    pub fn verify(&self) -> Result<(), StorageError> {
        let mut buf = [0u8; PAGE_SIZE];
        let pages = self.env.pages_shared();
        pages.read_at(0, &mut buf)?;
        if !pagefmt::is_stamp(&buf) {
            bump(&self.stats.crc_failures, 1);
            return Err(StorageError::Corrupt("bad stamp page".into()));
        }
        for page in 1..self.page_count {
            pages.read_at(page_offset(page), &mut buf)?;
            if let Err(e) = pagefmt::parse_page(&buf, Some(page)) {
                bump(&self.stats.crc_failures, 1);
                return Err(e);
            }
        }
        let mut stream = Vec::new();
        for (&bucket, meta) in &self.directory {
            stream.clear();
            self.bucket_stream_into(bucket, meta, &mut stream)?;
        }
        Ok(())
    }

    // ---- page access -----------------------------------------------------

    fn check_page(&self, page: u32) -> Result<(), StorageError> {
        if page == NIL || page >= self.page_count {
            return Err(StorageError::Corrupt(format!(
                "reference to page {page} outside file of {} pages",
                self.page_count
            )));
        }
        Ok(())
    }

    /// The miss path's I/O: one positional read plus the CRC / slot check,
    /// into the caller's buffer. Runs under no latch.
    fn fetch(&self, page: u32, buf: &mut PageBuf) -> Result<(), StorageError> {
        self.env.pages_shared().read_at(page_offset(page), buf)?;
        if let Err(e) = pagefmt::parse_page(buf, Some(page)) {
            bump(&self.stats.crc_failures, 1);
            return Err(e);
        }
        bump(&self.stats.page_reads, 1);
        Ok(())
    }

    /// Reader path: appends the payload of `page` to `out` and returns the
    /// chain link. A hit copies out of the frame under the latch; a miss
    /// fetches into `scratch` with the latch released, then offers the
    /// image to the pool.
    fn read_page_into(
        &self,
        page: u32,
        scratch: &mut PageBuf,
        out: &mut Vec<u8>,
    ) -> Result<u32, StorageError> {
        self.check_page(page)?;
        {
            let mut pool = self.pool.lock();
            if let Some(image) = pool.lookup(page) {
                bump(&self.stats.pool_hits, 1);
                return copy_payload(page, image, out);
            }
        }
        self.fetch(page, scratch)?;
        let next = copy_payload(page, scratch, out)?;
        self.pool.lock().install_clean(page, scratch, false);
        Ok(next)
    }

    /// Writer path: the pool-resident image of `page` for mutation,
    /// fetched first if absent. The frame is dirty from here on.
    fn page_mut(&mut self, page: u32) -> Result<&mut PageBuf, StorageError> {
        self.check_page(page)?;
        if self.pool.get_mut().peek(page).is_some() {
            bump(&self.stats.pool_hits, 1);
        } else {
            let mut scratch = [0u8; PAGE_SIZE];
            self.fetch(page, &mut scratch)?;
            self.pool.get_mut().install_clean(page, &scratch, true);
        }
        self.pool
            .get_mut()
            .lookup_mut(page)
            .ok_or_else(|| vanished(page))
    }

    /// Installs a fresh initialized page into the pool marked dirty (no
    /// disk read, no disk write — the page materializes at flush).
    fn fresh_page(&mut self, page: u32) -> Result<(), StorageError> {
        let frame = self
            .pool
            .get_mut()
            .install_fresh(page)
            .ok_or_else(|| vanished(page))?;
        pagefmt::init_page(frame, page)
    }

    // ---- page allocation -------------------------------------------------

    fn alloc_page(&mut self) -> Result<u32, StorageError> {
        if self.free_head != NIL {
            let page = self.free_head;
            self.free_head = pagefmt::get_next(self.page_mut(page)?)?;
            self.fresh_page(page)?;
            Ok(page)
        } else {
            let page = self.page_count;
            if page == u32::MAX {
                return Err(StorageError::Corrupt("page address space exhausted".into()));
            }
            self.page_count += 1;
            self.fresh_page(page)?;
            Ok(page)
        }
    }

    fn free_chain(&mut self, head: u32) -> Result<(), StorageError> {
        let mut page = head;
        let mut hops = 0u64;
        while page != NIL {
            hops += 1;
            if hops > u64::from(self.page_count) {
                return Err(StorageError::Corrupt(
                    "page chain longer than the file — cycle".into(),
                ));
            }
            // link into free list through the same next-pointer slot
            let free_head = self.free_head;
            let p = self.page_mut(page)?;
            let next = pagefmt::get_next(p)?;
            pagefmt::set_next(p, free_head)?;
            pagefmt::set_used(p, 0)?;
            self.free_head = page;
            page = next;
        }
        Ok(())
    }

    // ---- chain I/O -------------------------------------------------------

    /// Appends `bytes` to the chain ending at `meta.tail`, allocating pages
    /// as needed; updates `meta` in place.
    fn chain_append(&mut self, meta: &mut BucketMeta, bytes: &[u8]) -> Result<(), StorageError> {
        let mut remaining = bytes;
        if meta.head == NIL {
            let page = self.alloc_page()?;
            meta.head = page;
            meta.tail = page;
            meta.tail_used = 0;
            meta.pages = 1;
        }
        while !remaining.is_empty() {
            let space = PAGE_CAP - usize::from(meta.tail_used);
            if space == 0 {
                let new_page = self.alloc_page()?;
                pagefmt::set_next(self.page_mut(meta.tail)?, new_page)?;
                meta.tail = new_page;
                meta.tail_used = 0;
                meta.pages = meta.pages.saturating_add(1);
                continue;
            }
            let take = space.min(remaining.len());
            let (chunk, rest) = remaining.split_at(take);
            let used = usize::from(meta.tail_used);
            let new_used = u16::try_from(used + take)
                .map_err(|_| StorageError::Corrupt("page used-bytes overflow".into()))?;
            let p = self.page_mut(meta.tail)?;
            pagefmt::put_bytes(p, PAGE_HDR + used, chunk)?;
            pagefmt::set_used(p, new_used)?;
            meta.tail_used = new_used;
            remaining = rest;
        }
        Ok(())
    }

    /// Appends the full byte stream of the chain at `head` to `out`: each
    /// page's payload is copied once, straight into the caller's buffer.
    /// The hop guard turns cycles (including self-links) into typed
    /// corruption. On an error `out` may hold part of the stream.
    fn chain_read(&self, head: u32, out: &mut Vec<u8>) -> Result<(), StorageError> {
        let mut scratch = [0u8; PAGE_SIZE];
        let mut page = head;
        let mut hops = 0u64;
        while page != NIL {
            hops += 1;
            if hops > u64::from(self.page_count) {
                return Err(StorageError::Corrupt(
                    "page chain longer than the file — cycle".into(),
                ));
            }
            page = self.read_page_into(page, &mut scratch, out)?;
        }
        Ok(())
    }

    /// Appends the record stream of `bucket` to `out` and checks it
    /// against the directory ("claims N records, stream holds N whole
    /// records") where it now lies; `out` is left as it was on an error.
    fn bucket_stream_into(
        &self,
        bucket: BucketId,
        meta: &BucketMeta,
        out: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let start = out.len();
        out.reserve(meta.stream_bytes());
        let read = self.chain_read(meta.head, out).and_then(|()| {
            let stream = out.get(start..).unwrap_or(&[]);
            scan_records(bucket, stream, meta.records, |_, _| ())
        });
        if read.is_err() {
            out.truncate(start);
        }
        read
    }

    /// The one lending bucket walk behind `read_bucket`, `scan_bucket` and
    /// `read_matching`: lends the wanted records of `bucket` to `visit`
    /// straight from the chain bytes, so a caller copies only what it
    /// keeps and unwanted payloads are never touched. Consistent with
    /// `MemoryStore`, only the records handed out count as read back.
    fn scan_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
        visit: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StorageError> {
        let meta = self.meta(bucket)?;
        let mut bytes = Vec::with_capacity(meta.stream_bytes());
        self.chain_read(meta.head, &mut bytes)?;
        let mut handed_out = 0u64;
        scan_records(bucket, &bytes, meta.records, |id, payload| {
            if wanted(id) {
                handed_out += 1;
                visit(id, payload);
            }
        })?;
        bump(&self.stats.records_read, handed_out);
        Ok(())
    }

    fn meta(&self, bucket: BucketId) -> Result<&BucketMeta, StorageError> {
        self.directory
            .get(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))
    }

    // ---- directory persistence -----------------------------------------

    fn load_directory(&mut self) -> Result<(), StorageError> {
        self.directory.clear();
        if self.dir_head == NIL {
            return Ok(());
        }
        let mut bytes = Vec::new();
        self.chain_read(self.dir_head, &mut bytes)?;
        if bytes.len() < 4 {
            return Err(StorageError::Corrupt("directory truncated".into()));
        }
        let n = read_u32(&bytes, 0)? as usize;
        // Clamp the claimed entry count to what the chain can actually
        // hold — a corrupt count must not drive a huge loop or allocation.
        let fits = (bytes.len() - 4) / DIR_ENTRY;
        if n > fits {
            return Err(StorageError::Corrupt(format!(
                "directory claims {n} entries, chain holds at most {fits}"
            )));
        }
        let mut off = 4;
        for _ in 0..n {
            let bucket = read_u64(&bytes, off)?;
            let head = read_u32(&bytes, off + 8)?;
            let tail = read_u32(&bytes, off + 12)?;
            let tail_used = read_u16(&bytes, off + 16)?;
            let records = read_u64(&bytes, off + 18)?;
            self.directory.insert(
                BucketId(bucket),
                BucketMeta {
                    head,
                    tail,
                    tail_used,
                    records,
                    pages: 0,
                },
            );
            off += DIR_ENTRY;
        }
        Ok(())
    }

    fn persist_directory(&mut self) -> Result<(), StorageError> {
        // free old chain, then write a fresh one
        let old = self.dir_head;
        self.dir_head = NIL;
        if old != NIL {
            self.free_chain(old)?;
        }
        let mut bytes = Vec::with_capacity(4 + DIR_ENTRY * self.directory.len());
        let n = u32::try_from(self.directory.len()).map_err(|_| {
            StorageError::Corrupt(format!(
                "{} buckets exceed the directory format",
                self.directory.len()
            ))
        })?;
        bytes.extend_from_slice(&n.to_le_bytes());
        let mut entries: Vec<(BucketId, BucketMeta)> =
            self.directory.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_by_key(|(k, _)| *k);
        for (bucket, meta) in entries {
            bytes.extend_from_slice(&bucket.0.to_le_bytes());
            bytes.extend_from_slice(&meta.head.to_le_bytes());
            bytes.extend_from_slice(&meta.tail.to_le_bytes());
            bytes.extend_from_slice(&meta.tail_used.to_le_bytes());
            bytes.extend_from_slice(&meta.records.to_le_bytes());
        }
        let mut dir_meta = EMPTY_BUCKET;
        self.chain_append(&mut dir_meta, &bytes)?;
        self.dir_head = dir_meta.head;
        Ok(())
    }
}

fn page_offset(page: u32) -> u64 {
    u64::from(page) * PAGE_SIZE as u64
}

fn vanished(page: u32) -> StorageError {
    StorageError::Corrupt(format!("page {page} vanished from pool"))
}

/// Appends the used payload bytes of a verified page image to `out`;
/// returns the page's chain link.
fn copy_payload(page: u32, image: &PageBuf, out: &mut Vec<u8>) -> Result<u32, StorageError> {
    let used = usize::from(pagefmt::get_used(image)?);
    if used > PAGE_CAP {
        return Err(StorageError::Corrupt(format!(
            "page {page} claims {used} used bytes"
        )));
    }
    out.extend_from_slice(get_bytes(image, PAGE_HDR, used)?);
    pagefmt::get_next(image)
}

/// Walks a bucket's record stream, handing each record's id and payload
/// to `visit`; the stream must hold exactly `expected` whole records.
fn scan_records<'a>(
    bucket: BucketId,
    bytes: &'a [u8],
    expected: u64,
    mut visit: impl FnMut(u64, &'a [u8]),
) -> Result<(), StorageError> {
    let mut seen = 0u64;
    for record in Record::stream(bytes) {
        let record = record.map_err(|_| {
            StorageError::Corrupt(format!("bucket {bucket} record stream truncated"))
        })?;
        visit(record.id, record.payload);
        seen += 1;
    }
    if seen != expected {
        return Err(StorageError::Corrupt(format!(
            "bucket {bucket}: directory claims {expected} records, found {seen}"
        )));
    }
    Ok(())
}

impl BucketStore for DiskStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        if record.payload.len() > crate::record::MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge(record.payload.len()));
        }
        let mut bytes = Vec::with_capacity(record.encoded_len());
        record.encode(&mut bytes);
        let mut meta = self.directory.get(&bucket).copied().unwrap_or(EMPTY_BUCKET);
        self.chain_append(&mut meta, &bytes)?;
        meta.records += 1;
        self.directory.insert(bucket, meta);
        bump(&self.stats.records_appended, 1);
        Ok(())
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.read_matching(bucket, &|_| true)
    }

    fn scan_bucket(
        &self,
        bucket: BucketId,
        visit: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StorageError> {
        self.scan_matching(bucket, &|_| true, visit)
    }

    fn read_bucket_into(&self, bucket: BucketId, out: &mut Vec<u8>) -> Result<usize, StorageError> {
        let meta = self.meta(bucket)?;
        self.bucket_stream_into(bucket, meta, out)?;
        bump(&self.stats.records_read, meta.records);
        Ok(meta.records as usize)
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        let mut out = Vec::new();
        self.scan_matching(bucket, wanted, &mut |id, payload| {
            out.push(Record::new(id, payload.to_vec()));
        })?;
        Ok(out)
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.directory
            .get(&bucket)
            .map_or(0, |m| m.records as usize)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        if let Some(meta) = self.directory.remove(&bucket) {
            if meta.head != NIL {
                self.free_chain(meta.head)?;
            }
        }
        Ok(())
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.directory.keys().copied().collect()
    }

    fn total_records(&self) -> u64 {
        self.directory.values().map(|m| m.records).sum()
    }

    /// The commit protocol (see the module docs for the crash analysis of
    /// each window):
    ///
    /// 1. serialize the directory into its chain (pool only);
    /// 2. seal every dirty page with the new LSN and its CRC;
    /// 3. WAL: append one page frame per dirty page plus a commit frame
    ///    carrying the new meta, then fsync — **the commit point**;
    /// 4. checkpoint the sealed pages in place, fsync the page file;
    /// 5. atomically replace the meta with `clean = 1`;
    /// 6. truncate + fsync the WAL;
    /// 7. unpin the pool's frames and trim it back to capacity.
    fn flush(&mut self) -> Result<(), StorageError> {
        self.persist_directory()?;
        let next_lsn = self.lsn + 1;
        let pool = self.pool.get_mut();
        let dirty = pool.dirty_pages();
        for &page in &dirty {
            pagefmt::seal_page(
                pool.lookup_mut(page).ok_or_else(|| vanished(page))?,
                next_lsn,
            )?;
        }
        let new_meta = Meta {
            lsn: next_lsn,
            page_count: self.page_count,
            free_head: self.free_head,
            dir_head: self.dir_head,
            clean: false,
        };
        let timing = self.telemetry.as_ref();
        {
            let _append = timing.map(StorageTiming::wal_append_timer);
            let wal_backend = self.env.wal();
            let mut off = 0u64;
            for &page in &dirty {
                let image = pool.peek(page).ok_or_else(|| vanished(page))?;
                off = wal::append_page_frame(&mut *wal_backend, off, next_lsn, page, image)?;
            }
            wal::append_commit_frame(&mut *wal_backend, off, next_lsn, &new_meta.encode())?;
            bump(&self.stats.wal_appends, dirty.len() as u64 + 1);
        }
        {
            // The batch is durable from here: any later crash replays it.
            let _fsync = timing.map(StorageTiming::wal_fsync_timer);
            self.env.wal().sync()?;
        }
        {
            let _checkpoint = timing.map(StorageTiming::checkpoint_timer);
            {
                let pages_backend = self.env.pages();
                for &page in &dirty {
                    let image = pool.peek(page).ok_or_else(|| vanished(page))?;
                    pages_backend.write_at(page_offset(page), image)?;
                    bump(&self.stats.page_writes, 1);
                }
                // Data pages reach the platter before any pointer to them is
                // published — the pre-WAL flush-ordering hazard is gone.
                pages_backend.sync()?;
            }
            self.env.store_meta(
                &Meta {
                    clean: true,
                    ..new_meta
                }
                .encode(),
            )?;
            self.env.wal().set_len(0)?;
            self.env.wal().sync()?;
        }
        pool.commit();
        self.lsn = next_lsn;
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn backend_name(&self) -> &'static str {
        "Disk storage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CrashMode, FaultEnv, FaultPlan};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("simcloud-storage-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.db", std::process::id()))
    }

    fn cleanup(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        FileEnv::remove_sidecars(path);
    }

    fn rec(id: u64, len: usize) -> Record {
        Record::new(
            id,
            (0..len).map(|i| ((id as usize + i) % 256) as u8).collect(),
        )
    }

    #[test]
    fn create_append_read() {
        let path = tmp("basic");
        let mut s = DiskStore::create(&path).unwrap();
        s.append(BucketId(1), rec(1, 100)).unwrap();
        s.append(BucketId(1), rec(2, 50)).unwrap();
        s.append(BucketId(2), rec(3, 10)).unwrap();
        let b1 = s.read_bucket(BucketId(1)).unwrap();
        assert_eq!(b1, vec![rec(1, 100), rec(2, 50)]);
        assert_eq!(s.bucket_len(BucketId(2)), 1);
        assert_eq!(s.total_records(), 3);
        let only2 = s.read_matching(BucketId(1), &|id| id == 2).unwrap();
        assert_eq!(only2, vec![rec(2, 50)]);
        cleanup(&path);
    }

    /// The targeted read materializes only wanted records — including when
    /// records span page boundaries — counts only those as read back, and
    /// keeps the full-scan corruption checks.
    #[test]
    fn read_matching_filters_before_materializing() {
        let path = tmp("matching");
        let mut s = DiskStore::create(&path).unwrap();
        // 3000-byte payloads span pages, so the filter must walk the raw
        // chain stream, not per-page record boundaries.
        for i in 0..10u64 {
            s.append(BucketId(7), rec(i, 3000)).unwrap();
        }
        let read_before = s.stats().records_read;
        let got = s
            .read_matching(BucketId(7), &|id| id == 3 || id == 8)
            .unwrap();
        assert_eq!(got, vec![rec(3, 3000), rec(8, 3000)]);
        assert_eq!(
            s.stats().records_read - read_before,
            2,
            "unwanted records are skipped, not counted as read"
        );
        assert!(s.read_matching(BucketId(7), &|_| false).unwrap().is_empty());
        assert!(matches!(
            s.read_matching(BucketId(99), &|_| true),
            Err(StorageError::UnknownBucket(_))
        ));
        cleanup(&path);
    }

    #[test]
    fn records_spanning_pages() {
        let path = tmp("span");
        let mut s = DiskStore::create(&path).unwrap();
        // Payloads bigger than one page must span the chain.
        for i in 0..10u64 {
            s.append(BucketId(7), rec(i, 3000)).unwrap();
        }
        let back = s.read_bucket(BucketId(7)).unwrap();
        assert_eq!(back.len(), 10);
        for (i, r) in back.iter().enumerate() {
            assert_eq!(*r, rec(i as u64, 3000));
        }
        cleanup(&path);
    }

    #[test]
    fn flush_and_reopen_preserves_data() {
        let path = tmp("reopen");
        {
            let mut s = DiskStore::create(&path).unwrap();
            for b in 0..5u64 {
                for i in 0..20u64 {
                    s.append(BucketId(b), rec(b * 100 + i, 200)).unwrap();
                }
            }
            s.flush().unwrap();
        }
        {
            let mut s = DiskStore::open(&path).unwrap();
            assert!(!s.recovered_on_open(), "clean store must not recover");
            assert_eq!(s.total_records(), 100);
            let mut ids = s.bucket_ids();
            ids.sort();
            assert_eq!(ids, (0..5).map(BucketId).collect::<Vec<_>>());
            let b3 = s.read_bucket(BucketId(3)).unwrap();
            assert_eq!(b3.len(), 20);
            assert_eq!(b3[0], rec(300, 200));
            s.verify().unwrap();
            // store remains writable after reopen
            s.append(BucketId(3), rec(999, 10)).unwrap();
            assert_eq!(s.bucket_len(BucketId(3)), 21);
        }
        cleanup(&path);
    }

    #[test]
    fn delete_bucket_recycles_pages() {
        let path = tmp("recycle");
        let mut s = DiskStore::create(&path).unwrap();
        for i in 0..50u64 {
            s.append(BucketId(1), rec(i, 1000)).unwrap();
        }
        s.flush().unwrap();
        let pages_before = s.page_count();
        s.delete_bucket(BucketId(1)).unwrap();
        // Rewriting similar volume should not grow the file (free list reuse).
        for i in 0..50u64 {
            s.append(BucketId(2), rec(i, 1000)).unwrap();
        }
        assert!(
            s.page_count() <= pages_before + 2,
            "pages grew {} -> {} despite free list",
            pages_before,
            s.page_count()
        );
        assert!(s.read_bucket(BucketId(1)).is_err());
        assert_eq!(s.bucket_len(BucketId(2)), 50);
        s.flush().unwrap();
        s.verify().unwrap();
        cleanup(&path);
    }

    #[test]
    fn small_pool_still_correct() {
        let path = tmp("smallpool");
        let mut s = DiskStore::create_opts(&path, DiskStoreOptions { pool_pages: 2 }).unwrap();
        for b in 0..8u64 {
            for i in 0..10u64 {
                s.append(BucketId(b), rec(b * 10 + i, 500)).unwrap();
            }
            // Commit per bucket so clean pages become evictable and the
            // tiny pool actually exercises misses.
            s.flush().unwrap();
        }
        for b in 0..8u64 {
            let recs = s.read_bucket(BucketId(b)).unwrap();
            assert_eq!(recs.len(), 10, "bucket {b}");
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(*r, rec(b * 10 + i as u64, 500));
            }
        }
        let st = s.stats();
        assert!(st.page_reads > 0, "tiny pool must miss");
        assert!(st.page_writes > 0);
        cleanup(&path);
    }

    /// Dirty pages overflow the pool between flushes; the flush that
    /// unpins them must also hand the overshoot back instead of keeping
    /// the whole collection resident behind a "32 KiB pool".
    #[test]
    fn flush_trims_the_pool_back_to_capacity() {
        let path = tmp("trim");
        let mut s = DiskStore::create_opts(&path, DiskStoreOptions { pool_pages: 8 }).unwrap();
        for b in 0..6u64 {
            for i in 0..20u64 {
                s.append(BucketId(b), rec(b * 100 + i, 3500)).unwrap();
            }
        }
        assert!(s.page_count() > 100, "only {} pages", s.page_count());
        assert!(
            s.resident_pages() > 100,
            "unflushed pages are pinned, so the pool overflows"
        );
        s.flush().unwrap();
        assert!(
            s.resident_pages() <= 8,
            "{} frames resident after flush",
            s.resident_pages()
        );
        for b in 0..6u64 {
            let recs = s.read_bucket(BucketId(b)).unwrap();
            assert_eq!(recs.len(), 20);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(*r, rec(b * 100 + i as u64, 3500));
            }
            assert!(s.resident_pages() <= 8);
        }
        s.verify().unwrap();
        cleanup(&path);
    }

    /// The metadata calls answer from the directory and the atomic
    /// counters: they return while the pool latch is held elsewhere.
    #[test]
    fn metadata_calls_do_not_take_the_pool_latch() {
        let path = tmp("nolatch");
        let mut s = DiskStore::create(&path).unwrap();
        s.append(BucketId(1), rec(1, 10)).unwrap();
        s.append(BucketId(2), rec(2, 10)).unwrap();
        let latch = s.pool.lock();
        assert_eq!(s.bucket_len(BucketId(1)), 1);
        assert_eq!(s.total_records(), 2);
        assert_eq!(s.bucket_ids().len(), 2);
        assert_eq!(s.stats().records_appended, 2);
        assert_eq!(s.page_count(), 3);
        assert!(!s.recovered_on_open());
        drop(latch);
        cleanup(&path);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        cleanup(&path);
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        match DiskStore::open(&path) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("meta")),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn empty_store_flush_reopen() {
        let path = tmp("empty");
        {
            let mut s = DiskStore::create(&path).unwrap();
            s.flush().unwrap();
        }
        let s = DiskStore::open(&path).unwrap();
        assert_eq!(s.total_records(), 0);
        assert!(s.bucket_ids().is_empty());
        assert_eq!(s.backend_name(), "Disk storage");
        s.verify().unwrap();
        cleanup(&path);
    }

    #[test]
    fn pool_hits_are_counted() {
        let path = tmp("poolhits");
        let mut s = DiskStore::create(&path).unwrap();
        s.append(BucketId(1), rec(1, 10)).unwrap();
        let _ = s.read_bucket(BucketId(1)).unwrap();
        let _ = s.read_bucket(BucketId(1)).unwrap();
        assert!(s.stats().pool_hits > 0);
        cleanup(&path);
    }

    #[test]
    fn unclean_open_reports_recovery() {
        let path = tmp("unclean");
        {
            let mut s = DiskStore::create(&path).unwrap();
            s.append(BucketId(1), rec(1, 10)).unwrap();
            s.flush().unwrap();
            s.append(BucketId(1), rec(2, 10)).unwrap();
            // Dropped without a second flush: the on-disk meta was last
            // written by flush() with clean = true, and the unflushed
            // append never touched the file — so reopen must NOT recover.
        }
        {
            let s = DiskStore::open(&path).unwrap();
            assert!(!s.recovered_on_open());
            assert_eq!(s.total_records(), 1, "unflushed append is lost");
        }
        // Now an open that never flushes leaves clean = false behind.
        {
            let _s = DiskStore::open(&path).unwrap();
        }
        {
            let s = DiskStore::open(&path).unwrap();
            assert!(
                s.recovered_on_open(),
                "meta says writer was live — recovery must run"
            );
            assert_eq!(s.stats().pages_recovered, 0, "nothing to replay");
            assert_eq!(s.total_records(), 1);
            s.verify().unwrap();
        }
        cleanup(&path);
    }

    #[test]
    fn fault_env_store_round_trips() {
        let mut s = DiskStore::create_in(
            Box::new(FaultEnv::new(FaultPlan::default())),
            DiskStoreOptions::default(),
        )
        .unwrap();
        for i in 0..20u64 {
            s.append(BucketId(i % 3), rec(i, 777)).unwrap();
        }
        s.flush().unwrap();
        s.verify().unwrap();
        assert_eq!(s.total_records(), 20);
        assert!(s.stats().wal_appends > 0);
    }

    #[test]
    fn reopen_after_crash_recovers_last_flush() {
        // Run a schedule against a fault env, crash after the WAL commit
        // but before the checkpoint finishes, and reopen over what
        // survives: the flushed state must be fully there.
        let env = FaultEnv::new(FaultPlan::default());
        let handle = env.handle();
        let mut s = DiskStore::create_in(Box::new(env), DiskStoreOptions::default()).unwrap();
        for i in 0..10u64 {
            s.append(BucketId(1), rec(i, 600)).unwrap();
        }
        s.flush().unwrap();
        let ops_after_flush = handle.ops();
        drop(s);

        // Replay the same schedule, crashing mid-checkpoint (a few ops
        // after the WAL sync that `flush` performs).
        let plan = FaultPlan {
            crash_at: Some(ops_after_flush - 2),
            mode: CrashMode::DropUnsynced,
            flip: None,
        };
        let env = FaultEnv::new(plan);
        let handle = env.handle();
        let mut s = DiskStore::create_in(Box::new(env), DiskStoreOptions::default()).unwrap();
        for i in 0..10u64 {
            s.append(BucketId(1), rec(i, 600)).unwrap();
        }
        let flush_result = s.flush();
        assert!(flush_result.is_err(), "crash must surface as an error");
        drop(s);

        let image = handle.surviving();
        let reopened = DiskStore::open_in(
            Box::new(FaultEnv::from_images(image, FaultPlan::default())),
            DiskStoreOptions::default(),
        )
        .unwrap();
        assert!(reopened.recovered_on_open());
        reopened.verify().unwrap();
        assert_eq!(reopened.total_records(), 10);
        assert_eq!(reopened.read_bucket(BucketId(1)).unwrap().len(), 10);
    }
}
