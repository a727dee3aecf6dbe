//! Storage backends: the seam between the paged engine and the OS.
//!
//! [`DiskStore`](crate::DiskStore)'s engine talks to its three durable
//! artefacts — the page file, the write-ahead log, and the meta file —
//! exclusively through [`StorageEnv`] / [`Backend`]. Production uses
//! [`FileEnv`] (real files, atomic temp-file + rename meta). Tests use
//! [`FaultEnv`], an in-memory environment that models the durability
//! semantics of a real OS (`sync` promotes volatile bytes to durable
//! ones) and can inject a crash at any mutating operation: the write is
//! dropped, kept, or torn, every later operation fails, and the test then
//! harvests the byte images a real machine would find after power loss
//! and reopens the store over them.
//!
//! Like the rest of the recovery path, this module is enforced at zero
//! panic sites by `simcloud-analyze`.

use std::io::Write;
use std::os::unix::fs::FileExt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::StorageError;

/// Positioned I/O over one durable artefact (page file or WAL).
///
/// Offsets are absolute byte positions; `write_at` beyond the current end
/// zero-extends. Implementations map failures to [`StorageError`] — the
/// engine never touches `std::fs` directly, so every fault the harness can
/// inject flows through the same error path a real disk fault would.
///
/// Reads are positional and take `&self`: they carry no cursor, so any
/// number of query threads can read one artefact at once while mutation
/// stays exclusive.
#[allow(clippy::len_without_is_empty)] // `len` is a file size, not a collection
pub trait Backend: Send + Sync {
    /// Fills `buf` from the file at `off`; errors if the range is absent.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), StorageError>;
    /// Writes `data` at `off`, zero-extending the file if needed.
    fn write_at(&mut self, off: u64, data: &[u8]) -> Result<(), StorageError>;
    /// Current file length in bytes.
    fn len(&mut self) -> Result<u64, StorageError>;
    /// Truncates or zero-extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<(), StorageError>;
    /// Makes everything written so far durable (fsync).
    fn sync(&mut self) -> Result<(), StorageError>;
}

/// The three durable artefacts of one store, bundled.
///
/// `store_meta` is the atomicity primitive: it must install `bytes` as the
/// complete new meta document or leave the old one intact — never a torn
/// mix — and must be durable when it returns ([`FileEnv`] implements it as
/// temp-file + fsync + rename + parent-directory fsync, the QuiverDB
/// recipe quoted in SNIPPETS.md).
pub trait StorageEnv: Send + Sync {
    /// The page file.
    fn pages(&mut self) -> &mut dyn Backend;
    /// The page file for shared positional reads — the query path, which
    /// holds only `&self`.
    fn pages_shared(&self) -> &dyn Backend;
    /// The write-ahead log.
    fn wal(&mut self) -> &mut dyn Backend;
    /// Both artefacts at once — recovery interleaves WAL reads with page
    /// writes and needs disjoint borrows.
    fn pages_and_wal(&mut self) -> (&mut dyn Backend, &mut dyn Backend);
    /// Reads the current meta document, `None` if none was ever stored.
    fn load_meta(&mut self) -> Result<Option<Vec<u8>>, StorageError>;
    /// Atomically + durably replaces the meta document.
    fn store_meta(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
}

// ---- real files ----------------------------------------------------------

/// `Backend` over a real [`std::fs::File`].
#[derive(Debug)]
struct FileBackend {
    file: std::fs::File,
}

impl Backend for FileBackend {
    // One `pread` / `pwrite` per call: no seek, no shared cursor.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.file.read_exact_at(buf, off)?;
        Ok(())
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> Result<(), StorageError> {
        self.file.write_all_at(data, off)?;
        Ok(())
    }

    fn len(&mut self) -> Result<u64, StorageError> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Production environment: `<path>` (pages), `<path>.wal`, `<path>.meta`.
#[derive(Debug)]
pub struct FileEnv {
    pages: FileBackend,
    wal: FileBackend,
    meta_path: std::path::PathBuf,
    meta_tmp_path: std::path::PathBuf,
    dir: Option<std::path::PathBuf>,
}

fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    std::path::PathBuf::from(os)
}

impl FileEnv {
    /// Opens (creating if absent) the page file and its sidecars.
    pub fn open(path: &std::path::Path) -> Result<Self, StorageError> {
        let mut opts = std::fs::OpenOptions::new();
        opts.read(true).write(true).create(true).truncate(false);
        let pages = FileBackend {
            file: opts.open(path)?,
        };
        let wal = FileBackend {
            file: opts.open(sibling(path, ".wal"))?,
        };
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        Ok(FileEnv {
            pages,
            wal,
            meta_path: sibling(path, ".meta"),
            meta_tmp_path: sibling(path, ".meta.tmp"),
            dir: dir.map(std::path::Path::to_path_buf),
        })
    }

    /// Deletes the sidecar files of `path` (used when re-creating a store
    /// over a stale path).
    pub fn remove_sidecars(path: &std::path::Path) {
        let _ = std::fs::remove_file(sibling(path, ".wal"));
        let _ = std::fs::remove_file(sibling(path, ".meta"));
        let _ = std::fs::remove_file(sibling(path, ".meta.tmp"));
    }
}

impl StorageEnv for FileEnv {
    fn pages(&mut self) -> &mut dyn Backend {
        &mut self.pages
    }

    fn pages_shared(&self) -> &dyn Backend {
        &self.pages
    }

    fn wal(&mut self) -> &mut dyn Backend {
        &mut self.wal
    }

    fn pages_and_wal(&mut self) -> (&mut dyn Backend, &mut dyn Backend) {
        (&mut self.pages, &mut self.wal)
    }

    fn load_meta(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(&self.meta_path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn store_meta(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        {
            let mut tmp = std::fs::File::create(&self.meta_tmp_path)?;
            tmp.write_all(bytes)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&self.meta_tmp_path, &self.meta_path)?;
        // Make the rename itself durable: fsync the containing directory
        // (no-op platforms surface the error, which we treat as fatal —
        // pretending durability would defeat the recovery contract).
        if let Some(dir) = &self.dir {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

// ---- fault-injection environment -----------------------------------------

/// What happens to the mutating operation the crash lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// The operation is lost, and so is everything volatile: the harvest
    /// keeps only bytes that were `sync`ed. The strictest model — catches
    /// missing-fsync bugs.
    #[default]
    DropUnsynced,
    /// The operation and all volatile bytes survive (the OS happened to
    /// write everything back before dying).
    KeepUnsynced,
    /// A deterministic prefix of the crashing write survives along with
    /// all volatile bytes — the torn-page / torn-frame case.
    TornWrite,
}

/// A bit flip injected into the `op_index`-th mutating operation's data
/// (silent media corruption, as opposed to a crash).
#[derive(Debug, Clone, Copy)]
pub struct BitFlip {
    /// Which mutating operation to corrupt (0-based, same counter as
    /// [`FaultPlan::crash_at`]).
    pub op_index: u64,
    /// Byte offset within that operation's data.
    pub byte: usize,
    /// XOR mask applied to the byte.
    pub mask: u8,
}

/// Crash / corruption schedule for a [`FaultEnv`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Crash at the N-th mutating operation (counted across the page
    /// file, the WAL and `store_meta`). `None` = never crash.
    pub crash_at: Option<u64>,
    /// How the crashing operation is applied.
    pub mode: CrashMode,
    /// Optional silent bit flip.
    pub flip: Option<BitFlip>,
}

/// One simulated file: `durable` is what survives a [`CrashMode::DropUnsynced`]
/// crash, `current` what the running process observes. `sync` copies
/// current over durable.
#[derive(Debug, Clone, Default)]
struct FaultFile {
    durable: Vec<u8>,
    current: Vec<u8>,
}

impl FaultFile {
    fn write_at(&mut self, off: u64, data: &[u8]) {
        let off = off as usize;
        let end = off.saturating_add(data.len());
        if self.current.len() < end {
            self.current.resize(end, 0);
        }
        if let Some(dst) = self.current.get_mut(off..end) {
            dst.copy_from_slice(data);
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    pages: FaultFile,
    wal: FaultFile,
    meta: Option<Vec<u8>>,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

/// Byte images a post-crash machine would find on disk.
#[derive(Debug, Clone)]
pub struct SurvivingImage {
    /// Page file bytes.
    pub pages: Vec<u8>,
    /// WAL bytes.
    pub wal: Vec<u8>,
    /// Meta document, if one was ever durably stored.
    pub meta: Option<Vec<u8>>,
}

fn injected_crash() -> StorageError {
    StorageError::Io(std::io::Error::other("injected crash"))
}

/// Deterministic torn-write length for the `op`-th operation over `len`
/// bytes of data (splitmix-style hash, so every crash point tears at a
/// different boundary without any global RNG).
fn torn_len(op: u64, len: usize) -> usize {
    let mut z = op.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as usize) % len.saturating_add(1)
}

#[derive(Debug, Clone, Copy)]
enum FileSel {
    Pages,
    Wal,
}

impl FaultState {
    fn file_mut(&mut self, sel: FileSel) -> &mut FaultFile {
        match sel {
            FileSel::Pages => &mut self.pages,
            FileSel::Wal => &mut self.wal,
        }
    }

    /// Accounts one mutating operation. Returns `Ok(op_index)` when the
    /// operation should proceed normally, `Err` when the environment has
    /// crashed (now or earlier). On the crashing operation the caller's
    /// effect has already been applied per [`CrashMode`] by `apply`.
    fn mutate<F>(&mut self, apply: F) -> Result<(), StorageError>
    where
        F: FnOnce(&mut FaultState, u64, CrashMode, bool),
    {
        if self.crashed {
            return Err(injected_crash());
        }
        let op = self.ops;
        self.ops += 1;
        let crash_now = self.plan.crash_at == Some(op);
        let mode = self.plan.mode;
        apply(self, op, mode, crash_now);
        if crash_now {
            self.crashed = true;
            return Err(injected_crash());
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), StorageError> {
        if self.crashed {
            Err(injected_crash())
        } else {
            Ok(())
        }
    }
}

/// Per-file adapter returned by [`FaultEnv::pages`] / [`FaultEnv::wal`].
#[derive(Debug)]
pub struct FaultPort {
    sel: FileSel,
    state: Arc<Mutex<FaultState>>,
}

impl Backend for FaultPort {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let inner = self.state.lock();
        inner.check_alive()?;
        let file = match self.sel {
            FileSel::Pages => &inner.pages,
            FileSel::Wal => &inner.wal,
        };
        let start = off as usize;
        let end = start.saturating_add(buf.len());
        let src = file.current.get(start..end).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "read of {} bytes at {off} past end of file ({} bytes)",
                buf.len(),
                file.current.len()
            ))
        })?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> Result<(), StorageError> {
        let sel = self.sel;
        let mut inner = self.state.lock();
        inner.mutate(|state, op, mode, crash_now| {
            let flipped: Option<Vec<u8>> = state.plan.flip.filter(|f| f.op_index == op).map(|f| {
                let mut v = data.to_vec();
                if let Some(b) = v.get_mut(f.byte) {
                    *b ^= f.mask;
                }
                v
            });
            let payload: &[u8] = flipped.as_deref().unwrap_or(data);
            if crash_now {
                match mode {
                    CrashMode::DropUnsynced => {}
                    CrashMode::KeepUnsynced => state.file_mut(sel).write_at(off, payload),
                    CrashMode::TornWrite => {
                        let keep = torn_len(op, payload.len());
                        if let Some(prefix) = payload.get(..keep) {
                            state.file_mut(sel).write_at(off, prefix);
                        }
                    }
                }
            } else {
                state.file_mut(sel).write_at(off, payload);
            }
        })
    }

    fn len(&mut self) -> Result<u64, StorageError> {
        let inner = self.state.lock();
        inner.check_alive()?;
        let file = match self.sel {
            FileSel::Pages => &inner.pages,
            FileSel::Wal => &inner.wal,
        };
        Ok(file.current.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
        let sel = self.sel;
        let mut inner = self.state.lock();
        inner.mutate(|state, _op, mode, crash_now| {
            if !crash_now || !matches!(mode, CrashMode::DropUnsynced) {
                state.file_mut(sel).current.resize(len as usize, 0);
            }
        })
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let sel = self.sel;
        let mut inner = self.state.lock();
        inner.mutate(|state, _op, mode, crash_now| {
            if !crash_now || !matches!(mode, CrashMode::DropUnsynced) {
                let file = state.file_mut(sel);
                file.durable = file.current.clone();
            }
        })
    }
}

/// In-memory [`StorageEnv`] with crash and bit-flip injection.
#[derive(Debug)]
pub struct FaultEnv {
    pages_port: FaultPort,
    wal_port: FaultPort,
    state: Arc<Mutex<FaultState>>,
}

impl FaultEnv {
    /// Empty environment with the given fault schedule.
    pub fn new(plan: FaultPlan) -> Self {
        Self::from_images(SurvivingImage::empty(), plan)
    }

    /// Environment seeded with pre-existing byte images — the post-crash
    /// reopen path of the harness, and the entry point for corruption-
    /// matrix tests that mutate raw images directly.
    pub fn from_images(image: SurvivingImage, plan: FaultPlan) -> Self {
        let state = Arc::new(Mutex::new(FaultState {
            pages: FaultFile {
                durable: image.pages.clone(),
                current: image.pages,
            },
            wal: FaultFile {
                durable: image.wal.clone(),
                current: image.wal,
            },
            meta: image.meta,
            plan,
            ops: 0,
            crashed: false,
        }));
        FaultEnv {
            pages_port: FaultPort {
                sel: FileSel::Pages,
                state: Arc::clone(&state),
            },
            wal_port: FaultPort {
                sel: FileSel::Wal,
                state: Arc::clone(&state),
            },
            state,
        }
    }

    /// Handle for inspecting the environment after the store under test
    /// has crashed (or finished).
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            state: Arc::clone(&self.state),
        }
    }
}

impl StorageEnv for FaultEnv {
    fn pages(&mut self) -> &mut dyn Backend {
        &mut self.pages_port
    }

    fn pages_shared(&self) -> &dyn Backend {
        &self.pages_port
    }

    fn wal(&mut self) -> &mut dyn Backend {
        &mut self.wal_port
    }

    fn pages_and_wal(&mut self) -> (&mut dyn Backend, &mut dyn Backend) {
        (&mut self.pages_port, &mut self.wal_port)
    }

    fn load_meta(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        let inner = self.state.lock();
        inner.check_alive()?;
        Ok(inner.meta.clone())
    }

    fn store_meta(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.state.lock();
        inner.mutate(|state, _op, mode, crash_now| {
            // Atomic + durable by contract: on the crashing op the rename
            // either happened (Keep/Torn) or it didn't (Drop) — never torn.
            if !crash_now || !matches!(mode, CrashMode::DropUnsynced) {
                state.meta = Some(bytes.to_vec());
            }
        })
    }
}

impl SurvivingImage {
    /// Three empty artefacts (a store that was never created).
    pub fn empty() -> Self {
        SurvivingImage {
            pages: Vec::new(),
            wal: Vec::new(),
            meta: None,
        }
    }
}

/// Post-crash inspector for a [`FaultEnv`].
#[derive(Debug)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultHandle {
    /// Whether the planned crash fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Mutating operations observed so far — run a schedule once with no
    /// crash to learn how many crash points it has.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The byte images a reboot would find, per the plan's [`CrashMode`]:
    /// only `sync`ed bytes survive `DropUnsynced`; everything the process
    /// wrote survives the other modes.
    pub fn surviving(&self) -> SurvivingImage {
        let inner = self.state.lock();
        let (pages, wal) = match inner.plan.mode {
            CrashMode::DropUnsynced => (inner.pages.durable.clone(), inner.wal.durable.clone()),
            CrashMode::KeepUnsynced | CrashMode::TornWrite => {
                (inner.pages.current.clone(), inner.wal.current.clone())
            }
        };
        SurvivingImage {
            pages,
            wal,
            meta: inner.meta.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_fault() -> FaultPlan {
        FaultPlan::default()
    }

    #[test]
    fn fault_env_round_trips_bytes() {
        let mut env = FaultEnv::new(no_fault());
        env.pages().write_at(4, b"hello").unwrap();
        let mut buf = [0u8; 5];
        env.pages().read_at(4, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(env.pages().len().unwrap(), 9);
        // The WAL is a separate file.
        assert_eq!(env.wal().len().unwrap(), 0);
        env.pages().set_len(2).unwrap();
        assert_eq!(env.pages().len().unwrap(), 2);
    }

    #[test]
    fn read_past_end_is_typed_corrupt() {
        let mut env = FaultEnv::new(no_fault());
        let mut buf = [0u8; 8];
        let err = env.pages().read_at(0, &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn drop_unsynced_keeps_only_synced_bytes() {
        let mut env = FaultEnv::new(FaultPlan {
            crash_at: Some(2),
            mode: CrashMode::DropUnsynced,
            flip: None,
        });
        env.pages().write_at(0, b"AAAA").unwrap(); // op 0
        env.pages().sync().unwrap(); // op 1
        let err = env.pages().write_at(0, b"BBBB").unwrap_err(); // op 2: crash
        assert!(matches!(err, StorageError::Io(_)));
        // Everything after the crash fails, including reads.
        assert!(env.pages().len().is_err());
        assert!(env.load_meta().is_err());
        let image = env.handle().surviving();
        assert_eq!(image.pages, b"AAAA");
    }

    #[test]
    fn keep_unsynced_keeps_the_crashing_write() {
        let mut env = FaultEnv::new(FaultPlan {
            crash_at: Some(0),
            mode: CrashMode::KeepUnsynced,
            flip: None,
        });
        assert!(env.pages().write_at(0, b"CCCC").is_err());
        assert_eq!(env.handle().surviving().pages, b"CCCC");
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix_somewhere() {
        // Over many crash points the torn length must actually vary and
        // stay within [0, len].
        let mut seen = std::collections::HashSet::new();
        for op in 0..32u64 {
            let keep = torn_len(op, 100);
            assert!(keep <= 100);
            seen.insert(keep);
        }
        assert!(seen.len() > 4, "torn lengths are not varying: {seen:?}");
    }

    #[test]
    fn torn_write_applies_prefix_of_crashing_write() {
        for op in 0..8u64 {
            let mut env = FaultEnv::new(FaultPlan {
                crash_at: Some(op),
                mode: CrashMode::TornWrite,
                flip: None,
            });
            let mut failed = false;
            for i in 0..=op {
                let data = [i as u8 + 1; 16];
                if env.pages().write_at(i * 16, &data).is_err() {
                    failed = true;
                    break;
                }
            }
            assert!(failed);
            let image = env.handle().surviving();
            let keep = torn_len(op, 16);
            // Full bytes of every earlier write survive; the crashing
            // write contributes exactly its torn prefix.
            assert_eq!(image.pages.len() as u64, op * 16 + keep as u64);
        }
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_byte() {
        let mut env = FaultEnv::new(FaultPlan {
            crash_at: None,
            mode: CrashMode::KeepUnsynced,
            flip: Some(BitFlip {
                op_index: 1,
                byte: 2,
                mask: 0x80,
            }),
        });
        env.pages().write_at(0, &[1, 2, 3, 4]).unwrap(); // op 0: untouched
        env.pages().write_at(4, &[5, 6, 7, 8]).unwrap(); // op 1: flipped
        let mut buf = [0u8; 8];
        env.pages().read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7 ^ 0x80, 8]);
    }

    #[test]
    fn store_meta_is_atomic_under_drop_crash() {
        let mut env = FaultEnv::new(FaultPlan {
            crash_at: Some(1),
            mode: CrashMode::DropUnsynced,
            flip: None,
        });
        env.store_meta(b"old").unwrap(); // op 0
        assert!(env.store_meta(b"new").is_err()); // op 1: crash, dropped
        assert_eq!(env.handle().surviving().meta.as_deref(), Some(&b"old"[..]));

        let mut env = FaultEnv::new(FaultPlan {
            crash_at: Some(1),
            mode: CrashMode::KeepUnsynced,
            flip: None,
        });
        env.store_meta(b"old").unwrap();
        assert!(env.store_meta(b"new").is_err()); // rename landed
        assert_eq!(env.handle().surviving().meta.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn reopen_from_surviving_image_sees_the_bytes() {
        let mut env = FaultEnv::new(FaultPlan {
            crash_at: Some(3),
            mode: CrashMode::DropUnsynced,
            flip: None,
        });
        env.pages().write_at(0, b"page").unwrap();
        env.wal().write_at(0, b"wal!").unwrap();
        env.pages().sync().unwrap();
        let _ = env.wal().sync(); // op 3: crash — wal sync dropped
        let image = env.handle().surviving();
        assert_eq!(image.pages, b"page");
        assert!(image.wal.is_empty(), "unsynced wal bytes must vanish");
        let mut reopened = FaultEnv::from_images(image, FaultPlan::default());
        let mut buf = [0u8; 4];
        reopened.pages().read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"page");
    }

    #[test]
    fn file_env_round_trips_and_meta_is_atomic() {
        let dir = std::env::temp_dir().join(format!("scld-backend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pages");
        {
            let mut env = FileEnv::open(&path).unwrap();
            assert_eq!(env.load_meta().unwrap(), None);
            env.pages().write_at(0, b"abc").unwrap();
            env.wal().write_at(0, b"xyz").unwrap();
            env.pages().sync().unwrap();
            env.store_meta(b"meta-v1").unwrap();
        }
        {
            let mut env = FileEnv::open(&path).unwrap();
            let mut buf = [0u8; 3];
            env.pages().read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"abc");
            env.wal().read_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"xyz");
            assert_eq!(env.load_meta().unwrap().as_deref(), Some(&b"meta-v1"[..]));
            assert_eq!(env.wal().len().unwrap(), 3);
            env.wal().set_len(0).unwrap();
            assert_eq!(env.wal().len().unwrap(), 0);
        }
        FileEnv::remove_sidecars(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
