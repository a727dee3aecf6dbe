//! Fixture tests: each analyzer pass must catch a deliberately seeded
//! violation, and must stay quiet on the compliant twin of the same code.
//! These pin the lexical rules so a matcher regression cannot silently
//! turn the gate green.

use simcloud_analyze::locks::lock_violations;
use simcloud_analyze::panics::{panic_findings, PanicKind};
use simcloud_analyze::scan::SourceFile;
use simcloud_analyze::wire::wire_issues;
use simcloud_analyze::{zone_for, Zone};

// ---- panic-surface pass -------------------------------------------------

/// A panic hidden mid-expression in a server-zone file is found, classified
/// and attributed to its function.
#[test]
fn seeded_hidden_panic_is_found() {
    let src = SourceFile::from_source(
        "crates/transport/src/fixture.rs",
        r#"
fn handle(buf: &[u8]) -> u32 {
    let n = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    n
}
"#,
    );
    let findings = panic_findings(&src);
    assert!(
        findings
            .iter()
            .any(|f| f.kind == PanicKind::Unwrap && f.function.as_deref() == Some("handle")),
        "seeded unwrap not found: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.kind == PanicKind::SliceIndex),
        "seeded slice index not found: {findings:?}"
    );
    assert_eq!(
        zone_for("crates/transport/src/fixture.rs", Some("handle")),
        Zone::Server
    );
}

/// Panics inside `#[cfg(test)]` modules, string literals and comments are
/// not findings.
#[test]
fn masked_panics_are_ignored() {
    let src = SourceFile::from_source(
        "crates/transport/src/fixture.rs",
        r#"
fn fine() -> &'static str {
    // .unwrap() in a comment is not a finding
    "nor .unwrap() in a string, nor panic!(..)"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_may_panic() {
        Option::<u8>::None.unwrap();
    }
}
"#,
    );
    assert!(
        panic_findings(&src).is_empty(),
        "masked sites leaked: {:?}",
        panic_findings(&src)
    );
}

/// A `PANIC-SAFE` annotation with a reason marks the site allowlisted; the
/// finding is still reported but carries the flag.
#[test]
fn panic_safe_annotation_is_honored() {
    let src = SourceFile::from_source(
        "crates/transport/src/fixture.rs",
        r#"
fn guarded(v: &[u8]) -> u8 {
    // PANIC-SAFE: v is checked non-empty by the caller's framing layer.
    *v.first().expect("framed")
}
"#,
    );
    let findings = panic_findings(&src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].annotated,
        "annotation not honored: {findings:?}"
    );
}

/// `as`-narrowing is flagged; widening casts are not.
#[test]
fn narrowing_casts_are_classified() {
    let src = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn narrow(x: usize) -> u32 {
    x as u32
}
fn widen(x: u32) -> usize {
    x as usize
}
"#,
    );
    let findings = panic_findings(&src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, PanicKind::AsNarrowing);
    assert_eq!(findings[0].function.as_deref(), Some("narrow"));
}

/// The telemetry crate and the core telemetry module run inside every
/// request (span drops, snapshot rendering), so they are server zone: a
/// seeded panic there is found and attributed like one in the server
/// itself.
#[test]
fn telemetry_sources_are_server_zone() {
    for file in [
        "crates/telemetry/src/metrics.rs",
        "crates/telemetry/src/registry.rs",
        "crates/telemetry/src/span.rs",
        "crates/telemetry/src/slowlog.rs",
        "crates/core/src/telemetry.rs",
    ] {
        assert_eq!(zone_for(file, Some("record")), Zone::Server, "{file}");
    }
    // Telemetry test code stays inventory-only.
    assert_eq!(
        zone_for("crates/telemetry/tests/primitives.rs", None),
        Zone::Inventory
    );
    let src = SourceFile::from_source(
        "crates/telemetry/src/fixture.rs",
        r#"
fn quantile(buckets: &[u64], q: f64) -> u64 {
    let rank = (q * buckets.len() as f64) as u32;
    buckets[rank as usize]
}
"#,
    );
    let findings = panic_findings(&src);
    assert!(
        findings.iter().any(|f| f.kind == PanicKind::SliceIndex)
            && findings.iter().any(|f| f.kind == PanicKind::AsNarrowing),
        "seeded telemetry-zone panic not found: {findings:?}"
    );
}

/// The storage engine is a hard-enforced zone: its recovery path parses
/// attacker-controllable disk bytes, so every storage source file maps to
/// `Zone::Storage` and a seeded panic there is found like in the server
/// zone.
#[test]
fn storage_sources_are_an_enforced_zone() {
    for file in [
        "crates/storage/src/disk.rs",
        "crates/storage/src/wal.rs",
        "crates/storage/src/pagefmt.rs",
        "crates/storage/src/meta.rs",
        "crates/storage/src/backend.rs",
        "crates/storage/src/record.rs",
    ] {
        assert_eq!(zone_for(file, Some("recover")), Zone::Storage, "{file}");
    }
    // Test code and other crates stay out of the zone.
    assert_eq!(
        zone_for("crates/storage/tests/crash_points.rs", None),
        Zone::Inventory
    );
    let src = SourceFile::from_source(
        "crates/storage/src/wal.rs",
        r#"
fn recover(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[8..16].try_into().unwrap())
}
"#,
    );
    let findings = panic_findings(&src);
    assert!(
        findings.iter().any(|f| f.kind == PanicKind::SliceIndex)
            && findings.iter().any(|f| f.kind == PanicKind::Unwrap),
        "seeded recovery-path panic not found: {findings:?}"
    );
}

// ---- lock-discipline pass ----------------------------------------------

/// Seeded violation: taking the ownership-map lock while a shard write
/// guard is still live (the documented order is map before shard).
#[test]
fn seeded_reversed_lock_order_is_found() {
    let bad = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn insert(&self, id: u64) {
    let guard = self.shards[0].write();
    self.owners.write().insert(id, 0);
    drop(guard);
}
"#,
    );
    let violations = lock_violations(&bad);
    assert!(
        violations
            .iter()
            .any(|v| v.message.contains("ownership map")),
        "reversed order not caught: {violations:?}"
    );

    // Compliant twin: map lock released before the shard lock is taken.
    let good = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn insert(&self, id: u64) {
    {
        let owners = self.owners.write();
    }
    let result = self.shards[0].write().insert(id);
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );
}

/// Seeded violation: two shard write locks held at once (deadlock with a
/// concurrent inserter locking the same pair in the other order).
#[test]
fn seeded_double_shard_write_is_found() {
    let src = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn rebalance(&self) {
    let a = self.shards[0].write();
    let b = self.shards[1].write();
}
"#,
    );
    let violations = lock_violations(&src);
    assert!(!violations.is_empty(), "double shard write lock not caught");
}

/// Seeded violation: calling `stage_candidates` (which takes the staging
/// lock) while an index guard is live.
#[test]
fn seeded_stage_under_guard_is_found() {
    let bad = SourceFile::from_source(
        "crates/core/src/fixture.rs",
        r#"
fn answer(&mut self) {
    let index = self.index.read();
    let token = self.stage_candidates(index.candidates());
}
"#,
    );
    assert!(
        lock_violations(&bad)
            .iter()
            .any(|v| v.message.contains("stage_candidates")),
        "stage-under-guard not caught: {:?}",
        lock_violations(&bad)
    );

    // Compliant twin: the guard's scope closes before staging.
    let good = SourceFile::from_source(
        "crates/core/src/fixture.rs",
        r#"
fn answer(&mut self) {
    let results = {
        let index = self.index.read();
        index.candidates()
    };
    let token = self.stage_candidates(results);
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );
}

/// Seeded violation: a shard write lock taken while a candidate cursor is
/// still live — the stream could observe a half-mutated shard.
#[test]
fn seeded_shard_write_under_live_cursor_is_found() {
    let bad = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn compact(&self, ev: &PromiseEvaluator) {
    let cursor = self.index.knn_cursor(ev, 32);
    let guard = self.shards[1].write();
    drop(cursor);
}
"#,
    );
    assert!(
        lock_violations(&bad)
            .iter()
            .any(|v| v.message.contains("candidate cursor")),
        "write-under-cursor not caught: {:?}",
        lock_violations(&bad)
    );
    // The same with the multi-shard open.
    let bad_over = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn compact(&self, shards: &[Guard], ev: &PromiseEvaluator) {
    let cursor = MIndex::knn_cursor_over(shards, ev, 32);
    let guard = self.shards[1].write();
    drop(cursor);
}
"#,
    );
    assert!(
        lock_violations(&bad_over)
            .iter()
            .any(|v| v.message.contains("candidate cursor")),
        "write-under-cursor_over not caught: {:?}",
        lock_violations(&bad_over)
    );

    // Compliant twin: the cursor is consumed (collect_up_to takes self)
    // before the writer runs.
    let good = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn compact(&self, ev: &PromiseEvaluator) {
    let cursor = self.index.knn_cursor(ev, 32);
    let drained = cursor.collect_up_to(Some(32));
    let guard = self.shards[1].write();
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );

    // Also compliant: explicit drop before the writer.
    let dropped = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn compact(&self, ev: &PromiseEvaluator) {
    let cursor = self.index.range_cursor(ev, 1.5);
    drop(cursor);
    let guard = self.shards[1].write();
}
"#,
    );
    assert!(
        lock_violations(&dropped).is_empty(),
        "false positive after drop: {:?}",
        lock_violations(&dropped)
    );
}

/// Seeded violation: pulling a cursor while two shard guards are held —
/// the coordinator's merge must stay lock-free.
#[test]
fn seeded_cursor_pull_under_guard_pair_is_found() {
    let bad = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn drain(&self, cursor: CandidateCursor) {
    let a = self.shards[0].read();
    let b = self.shards[1].read();
    let head = cursor.views();
}
"#,
    );
    assert!(
        lock_violations(&bad)
            .iter()
            .any(|v| v.message.contains("lock-free")),
        "pull-under-guard-pair not caught: {:?}",
        lock_violations(&bad)
    );

    // Compliant twin: at most one shard guard held across the pull.
    let good = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn drain(&self, cursor: CandidateCursor) {
    let a = self.shards[0].read();
    let head = cursor.views();
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );
}

/// Seeded violation: selecting from a cursor while the sharded open's
/// guard set (every shard's read guard, collected) is still live — the
/// set is two or more shard guards, and a selection must be lock-free.
#[test]
fn seeded_cursor_pull_under_guard_set_is_found() {
    let bad = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn search(&self, ev: &PromiseEvaluator, cap: Option<usize>) -> usize {
    let shards: Vec<_> = self.shards.iter().map(|shard| shard.read()).collect();
    let cursor = MIndex::knn_cursor_over(&shards, ev, 10).unwrap();
    let (views, _) = cursor.select_up_to(cap);
    views.len()
}
"#,
    );
    assert!(
        lock_violations(&bad)
            .iter()
            .any(|v| v.message.contains("guard set") && v.message.contains("lock-free")),
        "pull-under-guard-set not caught: {:?}",
        lock_violations(&bad)
    );

    // Compliant twin: the guard set drops with the open, before the pull.
    let good = SourceFile::from_source(
        "crates/shard/src/fixture.rs",
        r#"
fn search(&self, ev: &PromiseEvaluator, cap: Option<usize>) -> usize {
    let cursor = {
        let shards: Vec<_> = self.shards.iter().map(|shard| shard.read()).collect();
        MIndex::knn_cursor_over(&shards, ev, 10).unwrap()
    };
    let (views, _) = cursor.select_up_to(cap);
    views.len()
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );
}

/// Seeded violation: a backend read issued while the disk store's pool
/// latch is held — every other reader would queue behind this one's I/O.
#[test]
fn seeded_backend_read_under_pool_latch_is_found() {
    let bad = SourceFile::from_source(
        "crates/storage/src/fixture.rs",
        r#"
fn read_page(&self, page: u32, buf: &mut PageBuf) -> Result<(), StorageError> {
    let mut pool = self.pool.lock();
    if pool.lookup(page).is_none() {
        self.env.pages_shared().read_at(offset(page), buf)?;
        pool.install_clean(page, buf, false);
    }
    Ok(())
}
"#,
    );
    assert!(
        lock_violations(&bad)
            .iter()
            .any(|v| v.message.contains("pool latch")),
        "read-under-latch not caught: {:?}",
        lock_violations(&bad)
    );

    // Same through a temporary guard in an `if let` scrutinee.
    let scrutinee = SourceFile::from_source(
        "crates/storage/src/fixture.rs",
        r#"
fn read_page(&self, page: u32, buf: &mut PageBuf) -> Result<(), StorageError> {
    if let None = self.pool.lock().lookup(page) {
        self.env.pages_shared().read_at(offset(page), buf)?;
    }
    Ok(())
}
"#,
    );
    assert!(
        !lock_violations(&scrutinee).is_empty(),
        "read under a scrutinee-lived latch not caught"
    );

    // Compliant twin: look up under the latch, fetch with it released,
    // re-take it to install.
    let good = SourceFile::from_source(
        "crates/storage/src/fixture.rs",
        r#"
fn read_page(&self, page: u32, buf: &mut PageBuf) -> Result<(), StorageError> {
    {
        let mut pool = self.pool.lock();
        if pool.lookup(page).is_some() {
            return Ok(());
        }
    }
    self.env.pages_shared().read_at(offset(page), buf)?;
    self.pool.lock().install_clean(page, buf, false);
    Ok(())
}
"#,
    );
    assert!(
        lock_violations(&good).is_empty(),
        "false positive: {:?}",
        lock_violations(&good)
    );
}

// ---- wire-conformance pass ----------------------------------------------

const FIXTURE_PROTOCOL: &str = r#"
pub enum Request {
    Ping,
    Echo(Vec<u8>),
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(0x01),
            Request::Echo(b) => {
                out.push(0x02);
                out.extend_from_slice(b);
            }
        }
        out
    }

    pub fn decode(buf: &[u8]) -> Option<Request> {
        match buf.first()? {
            0x01 => Some(Request::Ping),
            0x02 => Some(Request::Echo(buf[1..].to_vec())),
            _ => None,
        }
    }
}
"#;

const FIXTURE_README: &str = "\
| `Ping` | 0x01 | empty |
| `Echo` | 0x02 | raw bytes |
";

/// A protocol variant reachable from encode/decode and listed in the README
/// but never exercised by the fuzz suite is flagged; naming it clears the
/// flag.
#[test]
fn seeded_unfuzzed_variant_is_found() {
    let src = SourceFile::from_source("crates/core/src/protocol.rs", FIXTURE_PROTOCOL);
    // Response enum is absent in the fixture; keep only Request issues.
    let request_issues = |fuzz: &str| -> Vec<String> {
        wire_issues(&src, FIXTURE_README, fuzz)
            .into_iter()
            .map(|i| i.message)
            .filter(|m| m.contains("Request::"))
            .collect()
    };

    let partial_fuzz = "fn t() { let _ = Request::Ping; }";
    let issues = request_issues(partial_fuzz);
    assert!(
        issues
            .iter()
            .any(|m| m.contains("Request::Echo") && m.contains("never exercised")),
        "un-fuzzed variant not caught: {issues:?}"
    );

    let full_fuzz = "fn t() { let _ = (Request::Ping, Request::Echo(vec![])); }";
    assert!(
        request_issues(full_fuzz).is_empty(),
        "false positive: {:?}",
        request_issues(full_fuzz)
    );
}

/// A decode arm whose tag disagrees with the encode arm is flagged.
#[test]
fn seeded_tag_mismatch_is_found() {
    let swapped = FIXTURE_PROTOCOL.replace(
        "            0x01 => Some(Request::Ping),\n            0x02 => Some(Request::Echo(buf[1..].to_vec())),",
        "            0x01 => Some(Request::Echo(buf[1..].to_vec())),\n            0x02 => Some(Request::Ping),",
    );
    let src = SourceFile::from_source("crates/core/src/protocol.rs", &swapped);
    let fuzz = "fn t() { let _ = (Request::Ping, Request::Echo(vec![])); }";
    let issues = wire_issues(&src, FIXTURE_README, fuzz);
    assert!(
        issues
            .iter()
            .any(|i| i.message.contains("encodes tag") && i.message.contains("decodes")),
        "tag mismatch not caught: {issues:?}"
    );
}

/// A variant missing from the README wire table is flagged.
#[test]
fn seeded_missing_readme_row_is_found() {
    let src = SourceFile::from_source("crates/core/src/protocol.rs", FIXTURE_PROTOCOL);
    let readme = "| `Ping` | 0x01 | empty |\n";
    let fuzz = "fn t() { let _ = (Request::Ping, Request::Echo(vec![])); }";
    let issues = wire_issues(&src, readme, fuzz);
    assert!(
        issues
            .iter()
            .any(|i| i.message.contains("Echo") && i.message.contains("wire table")),
        "missing README row not caught: {issues:?}"
    );
}

/// Non-contiguous opcodes are flagged.
#[test]
fn seeded_opcode_gap_is_found() {
    let gapped = FIXTURE_PROTOCOL
        .replace("out.push(0x02)", "out.push(0x03)")
        .replace("0x02 => Some(Request::Echo", "0x03 => Some(Request::Echo");
    let src = SourceFile::from_source("crates/core/src/protocol.rs", &gapped);
    let readme = "| `Ping` | 0x01 | empty |\n| `Echo` | 0x03 | raw bytes |\n";
    let fuzz = "fn t() { let _ = (Request::Ping, Request::Echo(vec![])); }";
    let issues = wire_issues(&src, readme, fuzz);
    assert!(
        issues.iter().any(|i| i.message.contains("not contiguous")),
        "opcode gap not caught: {issues:?}"
    );
}

/// A borrowed (in-place) parser declared by the codec must be named in the
/// fuzz suite like any opcode: a second reader of the same hostile bytes
/// without fuzz coverage is flagged, naming it in code clears the flag,
/// and naming it only inside a longer identifier does not.
#[test]
fn seeded_unfuzzed_view_parser_is_found() {
    let with_view = format!(
        "{FIXTURE_PROTOCOL}\npub struct EchoView<'a> {{\n    body: &'a [u8],\n}}\n\
         pub struct Preview;\n"
    );
    let src = SourceFile::from_source("crates/core/src/protocol.rs", &with_view);
    let view_issues = |fuzz: &str| -> Vec<String> {
        wire_issues(&src, FIXTURE_README, fuzz)
            .into_iter()
            .map(|i| i.message)
            .filter(|m| m.contains("borrowed parser"))
            .collect()
    };
    let unfuzzed = "fn t() { let _ = (Request::Ping, Request::Echo(vec![]), MyEchoViewer); }";
    let issues = view_issues(unfuzzed);
    assert_eq!(issues.len(), 1, "{issues:?}");
    assert!(issues[0].contains("EchoView"), "{issues:?}");
    let fuzzed = "fn t() { let _ = EchoView::parse(&[]); }";
    assert!(view_issues(fuzzed).is_empty(), "{:?}", view_issues(fuzzed));
}

// ---- fault-tolerance code stays inside the zero-panic gate ---------------

/// The retry state machine and the fault-injection wrappers live in
/// `crates/transport/src/` — the Server zone, whose panic gate is pinned at
/// zero findings. This fixture is shaped like that code (attempt loop,
/// backoff arithmetic, byte-corruption at an offset) written the panic-free
/// way; the analyzer must stay quiet on it, and must still fire on its
/// careless twin. A regression in either direction would let a future
/// retry/fault patch slip a panic site into the request path.
#[test]
fn retry_state_machine_fixture_is_server_zone_and_panic_free() {
    let clean = SourceFile::from_source(
        "crates/transport/src/fixture_retry.rs",
        r#"
fn round_trip_with(max_attempts: u32, frame: &mut [u8]) -> Result<(), ()> {
    let mut attempt: u32 = 0;
    loop {
        attempt = attempt.saturating_add(1);
        let shift = attempt.saturating_sub(2).min(16);
        let backoff_ms = 10u64.saturating_mul(1u64 << shift);
        if let Some(byte) = frame.get_mut(backoff_ms as usize % frame.len().max(1)) {
            *byte ^= 1;
            return Ok(());
        }
        if attempt >= max_attempts.max(1) {
            return Err(());
        }
    }
}
"#,
    );
    assert_eq!(
        zone_for(
            "crates/transport/src/fixture_retry.rs",
            Some("round_trip_with")
        ),
        Zone::Server,
        "retry/fault code must sit in the zero-panic Server zone"
    );
    assert!(
        panic_findings(&clean).is_empty(),
        "panic-free retry fixture must stay clean: {:?}",
        panic_findings(&clean)
    );

    // The careless twin: indexing and unwrap in the same shapes the real
    // retry loop would be tempted to use.
    let careless = SourceFile::from_source(
        "crates/transport/src/fixture_retry.rs",
        r#"
fn round_trip_with(max_attempts: u32, frame: &mut [u8]) -> Result<(), ()> {
    let at = usize::try_from(max_attempts).unwrap();
    frame[at] ^= 1;
    Ok(())
}
"#,
    );
    let findings = panic_findings(&careless);
    assert!(
        findings.iter().any(|f| f.kind == PanicKind::Unwrap),
        "unwrap in retry fixture not caught: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.kind == PanicKind::SliceIndex),
        "indexing in retry fixture not caught: {findings:?}"
    );
}
