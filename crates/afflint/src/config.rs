//! Path classification: which rule families apply to which files.
//!
//! R2/R3/R4/R6 and waiver validation run on every workspace `.rs`
//! file. R1 (panic-freedom) and R5 (checked length arithmetic) are
//! scoped to the modules that untrusted bytes actually reach — the
//! storage persist/journal/column readers, the statement path (QL
//! parser/planner/session, the coordinator, the sharded merge layer,
//! the shared line reader and both servers), and the model decode
//! paths — where a panic is a remote crash, not a programmer error. To put a new module under
//! R1/R5 protection, add its path here; to add a whole rule, see the
//! "Static analysis" section of ARCHITECTURE.md.

/// Directories walked from the workspace root.
pub const WALK_ROOTS: &[&str] = &["crates", "tests", "examples", "vendor"];

/// Directory names skipped anywhere in the walk. `fixtures` holds the
/// afflint self-test corpus — deliberately-bad snippets that must be
/// lintable on demand but not part of the workspace gate.
pub const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// R1: untrusted-input modules — network bytes (serve/ql) or possibly
/// corrupt disk bytes (storage readers, model decode) flow through
/// these; every reachable panic is a crash an adversary or a bad
/// sector can trigger.
const UNTRUSTED: &[&str] = &[
    "crates/storage/src/snapshot.rs",
    "crates/storage/src/journal.rs",
    "crates/storage/src/store.rs",
    "crates/storage/src/layout.rs",
    "crates/ql/src/parser.rs",
    "crates/ql/src/plan.rs",
    "crates/ql/src/session.rs",
    "crates/ql/src/cancel.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/queue.rs",
    "crates/coord/src/proto.rs",
    "crates/coord/src/backend.rs",
    "crates/coord/src/coordinator.rs",
    "crates/coord/src/lines.rs",
    "crates/coord/src/server.rs",
    "crates/shard/src/model.rs",
    "crates/core/src/persist.rs",
    "crates/scape/src/persist.rs",
    "crates/stream/src/persist.rs",
];

/// R5: reader modules that parse length-prefixed headers — sizes read
/// from bytes must flow through `SizeCheck`/`checked_*`, never raw
/// `*`/`+` that can overflow into a bogus allocation.
const READERS: &[&str] = &[
    "crates/storage/src/store.rs",
    "crates/coord/src/proto.rs",
    "crates/storage/src/snapshot.rs",
    "crates/storage/src/journal.rs",
    "crates/storage/src/layout.rs",
    "crates/core/src/persist.rs",
    "crates/scape/src/persist.rs",
    "crates/stream/src/persist.rs",
];

/// Per-file rule applicability.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// R1 applies (outside `#[cfg(test)]`/`#[test]` regions).
    pub untrusted: bool,
    /// R5 applies (outside test regions).
    pub reader: bool,
    /// File is test code as a whole (`tests/` trees): R3 is exempt —
    /// bit-determinism suites compare exact values by design.
    pub test_file: bool,
}

/// Classify a workspace-relative path (always `/`-separated).
pub fn classify(rel_path: &str) -> FileClass {
    FileClass {
        untrusted: UNTRUSTED.contains(&rel_path),
        reader: READERS.contains(&rel_path),
        test_file: rel_path.starts_with("tests/") || rel_path.contains("/tests/"),
    }
}
