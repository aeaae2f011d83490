#![forbid(unsafe_code)]
//! `chameleon-lint` — workspace invariant linter.
//!
//! The simulator's two hardest-won properties are enforced here rather
//! than by reviewer vigilance:
//!
//! * the per-reference spine (`Core::step` → `System::access` →
//!   `OsKernel::touch` → `Hierarchy::access_into` → `HmaPolicy::access`,
//!   plus SRRT remap and the FR-FCFS select) is **allocation-free** —
//!   one stray `format!` silently costs every simulated reference;
//! * parallel sweeps are **bit-identical** to serial ones — one
//!   wall-clock read or hash-order iteration seeding a simulated
//!   decision silently breaks the content-addressed result store.
//!
//! Three local rules judge one file at a time (see `DESIGN.md` §13):
//!
//! | rule            | contract                                          |
//! |-----------------|---------------------------------------------------|
//! | `hot-path-alloc`| no alloc/format tokens in annotated hot functions |
//! | `determinism`   | no wall-clock/ambient RNG/hash-order in sim code  |
//! | `panic-policy`  | `unwrap`/`expect`/`panic!` need `// INVARIANT:`   |
//!
//! Five more ride on the workspace call graph (`DESIGN.md` §18):
//! `hot-path-transitive`, `determinism-taint`, `hot-path-recursion`,
//! `lossy-cast` and `dead-pub`. `unsafe` needs no rule: every member
//! inherits `unsafe_code = "forbid"` from `[workspace.lints]`.
//!
//! The pass is deliberately dependency-free (the build has no crates.io
//! access): one small tokenizer ([`tok`]) and an item recognizer
//! ([`items`]) rather than a `syn` AST walk. Every rule, local and
//! call-graph, reads the same token stream. That trades a little
//! precision for zero dependencies and sub-second runtime; the fixture
//! tests in `tests/` pin the edge cases the approximation must still get
//! right (raw strings, nested block comments, `#[cfg(test)]` modules,
//! multi-line signatures).

mod allowlist;
mod flow;
pub mod graph;
pub mod items;
mod local;
pub mod tok;
mod workspace;

pub use allowlist::{load_allowlist, AllowEntry};
pub use local::scan_file;
pub use workspace::{classify, scan_workspace, workspace_root_from, Report};

/// The enforced rule families. The first three are local token rules
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
    /// A bare-`pub` library fn that nothing outside tests calls.
    DeadPub,
}

impl Rule {
    /// Stable kebab-case name used in output and allowlists.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::Determinism => "determinism",
            Rule::PanicPolicy => "panic-policy",
            Rule::HotPathTransitive => "hot-path-transitive",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::HotPathRecursion => "hot-path-recursion",
            Rule::LossyCast => "lossy-cast",
            Rule::DeadPub => "dead-pub",
        }
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
    /// Call chain from the root to the offending fn (graph rules only;
    /// empty for local rules). Entries are fn FQNs.
    pub blame: Vec<String>,
}

impl Finding {
    /// Builds a finding with no blame chain.
    pub fn new(rule: Rule, file: &str, line: usize, token: &str, message: String) -> Self {
        Self::graph(rule, file, line, token, message, Vec::new())
    }

    /// Builds a finding with the call chain that reaches it.
    pub fn graph(
        rule: Rule,
        file: &str,
        line: usize,
        token: &str,
        message: String,
        blame: Vec<String>,
    ) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            token: token.to_string(),
            message,
            blame,
        }
    }
}
