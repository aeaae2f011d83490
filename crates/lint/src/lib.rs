#![forbid(unsafe_code)]
//! `chameleon-lint` — workspace invariant linter.
//!
//! The simulator's two hardest-won properties are enforced here rather
//! than by reviewer vigilance:
//!
//! * the per-reference spine (`Core::step` → `System::access` →
//!   `OsKernel::touch` → `Hierarchy::access` → `HmaPolicy::access`,
//!   plus SRRT remap and the FR-FCFS select) is **allocation-free** —
//!   one stray `format!` silently costs the 12.66M acc/s hot path;
//! * parallel sweeps are **bit-identical** to serial ones — one
//!   wall-clock read or hash-order iteration seeding a simulated
//!   decision silently breaks the content-addressed result store.
//!
//! Four rule families (see `DESIGN.md` §13 for the full table):
//!
//! | rule            | contract                                          |
//! |-----------------|---------------------------------------------------|
//! | `hot-path-alloc`| no alloc/format tokens in annotated hot functions |
//! | `determinism`   | no wall-clock/ambient RNG/hash-order in sim code  |
//! | `panic-policy`  | `unwrap`/`expect`/`panic!` need `// INVARIANT:`   |
//! | `unsafe-forbid` | every crate root carries `#![forbid(unsafe_code)]`|
//!
//! The pass is deliberately dependency-free (the build has no crates.io
//! access): one small tokenizer ([`tok`]) and an item recognizer
//! ([`items`]) rather than a `syn` AST walk. Every rule, local and
//! call-graph, reads the same token stream. That trades a little
//! precision for zero dependencies and sub-second runtime; the fixture
//! tests in `tests/` pin the edge cases the approximation must still get
//! right (raw strings, nested block comments, `#[cfg(test)]` modules,
//! multi-line signatures).

mod baseline;
mod flow;
pub mod graph;
pub mod items;
mod local;
mod metrics;
mod sarif;
pub mod tok;
mod workspace;

pub use baseline::{apply_baseline, load_allowlist, load_baseline, write_baseline, AllowEntry};
pub use local::scan_file;
pub use sarif::to_sarif;
pub use workspace::{classify, scan_workspace, workspace_root_from, Report};

/// The enforced rule families. The first four are local token rules
/// that judge one file at a time; the rest ride on the workspace call
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Allocation/formatting tokens inside `// lint: hot-path` bodies.
    HotPathAlloc,
    /// Wall-clock, ambient RNG, or hash-order iteration in sim crates.
    Determinism,
    /// Unjustified `unwrap()`/`expect()`/`panic!` in library code.
    PanicPolicy,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    UnsafeForbid,
    /// Allocation tokens in any fn *reachable from* a hot root.
    HotPathTransitive,
    /// A sim-crate fn reaches a nondeterministic source outside the
    /// strict crates (invisible to the local determinism rule).
    DeterminismTaint,
    /// A call cycle (over precisely-resolved edges) reachable from a
    /// hot root: unbounded recursion on the per-reference spine.
    HotPathRecursion,
    /// A narrowing `as` cast applied to address-like arithmetic.
    LossyCast,
    /// A metric published in code but absent from the golden fixture,
    /// or present in the golden but never published.
    DeadMetric,
    /// A bare-`pub` library fn that nothing outside tests calls.
    DeadPub,
}

impl Rule {
    /// Stable kebab-case name used in output, baselines and allowlists.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::Determinism => "determinism",
            Rule::PanicPolicy => "panic-policy",
            Rule::UnsafeForbid => "unsafe-forbid",
            Rule::HotPathTransitive => "hot-path-transitive",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::HotPathRecursion => "hot-path-recursion",
            Rule::LossyCast => "lossy-cast",
            Rule::DeadMetric => "dead-metric",
            Rule::DeadPub => "dead-pub",
        }
    }

    /// Rule semantics version, embedded in every baseline key as
    /// `name@vN`. Bump when a rule's matching logic changes so stale
    /// baseline entries die loudly instead of masking new findings.
    pub fn version(self) -> u32 {
        match self {
            // Version 3: the local rules match tokens, not line text, and
            // their key context is the line's token text.
            Rule::HotPathAlloc | Rule::Determinism | Rule::PanicPolicy | Rule::UnsafeForbid => 3,
            Rule::HotPathTransitive
            | Rule::DeterminismTaint
            | Rule::HotPathRecursion
            | Rule::LossyCast
            | Rule::DeadMetric
            | Rule::DeadPub => 1,
        }
    }

    /// `name@vN`, the rule field used in baseline keys.
    pub fn versioned_name(self) -> String {
        format!("{}@v{}", self.name(), self.version())
    }
}

/// What kind of target a source file belongs to, derived from its path
/// inside the crate. Tests, benches, examples and binaries are exempt
/// from `panic-policy`; benches are additionally exempt from
/// `determinism` (measurement code times things by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` library code — all rules apply.
    Lib,
    /// `tests/**` integration tests.
    Test,
    /// `benches/**` benchmark code.
    Bench,
    /// `examples/**`.
    Example,
    /// `src/bin/**`, `src/main.rs`, `build.rs`.
    Bin,
}

/// Determinism-rule scope for a crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetScope {
    /// Simulation crates: findings are hard errors.
    Strict,
    /// `sweep`/`bench`: wall-clock is legitimate in progress/measurement
    /// code, but each use must be listed in the checked-in allowlist.
    Allowlisted,
    /// Non-simulation code (the linter itself).
    Off,
}

/// Per-file scan context.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Target classification (see [`TargetKind`]).
    pub target: TargetKind,
    /// Determinism scope of the owning crate.
    pub determinism: DetScope,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The banned token (or identifier) that matched.
    pub token: String,
    /// Human-readable description.
    pub message: String,
    /// Line-number-independent identity used by the baseline ratchet:
    /// `rule@vN|file|token|context`. For local rules the context is the
    /// line's non-comment token text; for graph rules it is the
    /// enclosing fn's scope (`Type::name`), which survives any edit that
    /// keeps the fn.
    pub key: String,
    /// Call chain from the root to the offending fn (graph rules only;
    /// empty for local rules). Entries are fn FQNs.
    pub blame: Vec<String>,
}

impl Finding {
    /// Builds a local-rule finding, deriving the baseline key from the
    /// line's token text (`code`, whitespace-normalized) so the key
    /// survives unrelated edits above it.
    pub fn new(
        rule: Rule,
        file: &str,
        line: usize,
        token: &str,
        code: &str,
        message: String,
    ) -> Self {
        let norm: String = code.split_whitespace().collect::<Vec<_>>().join(" ");
        Self {
            rule,
            file: file.to_string(),
            line,
            token: token.to_string(),
            message,
            key: format!("{}|{}|{}|{}", rule.versioned_name(), file, token, norm),
            blame: Vec::new(),
        }
    }

    /// Builds a call-graph finding keyed on the enclosing fn's scope
    /// (`file#Type::name` split into its parts) rather than a code line.
    pub fn graph(
        rule: Rule,
        file: &str,
        line: usize,
        token: &str,
        fn_scope: &str,
        message: String,
        blame: Vec<String>,
    ) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            token: token.to_string(),
            message,
            key: format!("{}|{}|{}|{}", rule.versioned_name(), file, token, fn_scope),
            blame,
        }
    }
}
