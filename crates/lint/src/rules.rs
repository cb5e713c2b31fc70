//! The rule catalogue.
//!
//! Every rule has a stable ID, fires span-accurate findings, and can be
//! silenced with an allow-comment (see the crate docs for the syntax; the
//! marker never appears verbatim in lint's own comments so the self-scan
//! stays clean) on, or directly above, the offending line — except the
//! meta rules S1/S2/B0, which police the suppression and baseline
//! machinery itself and are therefore not suppressible.
//!
//! | ID | Invariant |
//! |----|-----------|
//! | D1 | no `HashMap`/`HashSet` in deterministic-pipeline crates |
//! | D2 | no `Instant`/`SystemTime` outside bench and the obs clock seam |
//! | D3 | no ad-hoc `thread::spawn`/`scope`/`Builder` outside the pool |
//! | D4 | no OS-entropy RNG construction outside test code |
//! | P1 | no `.unwrap()`/`.expect()`/`panic!`/indexing in server+store |
//! | F1 | no direct `fs::` syscalls in the store — all I/O routes the Vfs |
//! | P2 | no `unsafe` outside the committed whitelist |
//! | X1 | every server wire op is exposed by both clients and the docs |
//! | X2 | every scheme name is wired through persist/oracle/battery/CI/docs |
//! | S1 | suppression comments must parse and carry a reason |
//! | S2 | suppressions must match a finding (no stale allows) |
//! | B0 | baseline entries must match a finding (may only shrink) |

use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Suppression};
use std::collections::BTreeSet;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The stable rule ID (`D1` ... `B0`).
    pub rule: &'static str,
    /// Root-relative path of the offending file.
    pub path: String,
    /// 1-based line (0 for file-level findings such as X2 site gaps).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human diagnostic.
    pub message: String,
    /// A short stable fragment identifying the match (the offending token
    /// or name) — the baseline keys on `(rule, path, snippet)` so entries
    /// survive unrelated edits that shift line numbers.
    pub snippet: String,
}

/// Rule IDs that `allow(...)` may name. S1/S2/B0 police the suppression
/// machinery itself and cannot be suppressed with it.
pub const SUPPRESSIBLE: &[&str] = &["D1", "D2", "D3", "D4", "P1", "P2", "F1", "X1", "X2"];

/// Crates whose output must be bit-identical across runs and thread
/// counts: hash-order iteration (D1) is banned outright in them.
const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/hilbert/",
    "crates/baselines/",
    "crates/metrics/",
    "crates/query/",
    "crates/conformance/",
    "crates/store/",
    "crates/microdata/",
    "crates/attacks/",
    "crates/faults/",
    "crates/obs/",
];

/// Files allowed to read wall clocks (D2): the bench/perf crate, plus the
/// one file in the observability crate that implements the `Clock` trait
/// over `Instant` — everything else in `crates/obs/` takes the clock as
/// an injected trait object and stays replayable.
const CLOCK_PREFIXES: &[&str] = &["crates/bench/", "crates/obs/src/clock.rs"];

/// Files allowed to create threads (D3): the vendored pool and the server
/// acceptor/worker module.
const THREAD_FILES: &[&str] = &[
    "vendor/mini-rayon/src/lib.rs",
    "crates/server/src/server.rs",
];

/// Crates whose non-test code must never panic on a request or decode
/// path (P1): the TCP service and the snapshot store.
const PANIC_FREE_PREFIXES: &[&str] = &["crates/server/src/", "crates/store/src/"];

/// Crates whose non-test code must never touch the filesystem directly
/// (F1): every syscall in the store routes through the injectable `Vfs`
/// so the crash-point torture suite sees it. A bare `fs::` call here is a
/// durability hole the fault harness cannot reach.
const VFS_ONLY_PREFIXES: &[&str] = &["crates/store/src/"];

/// The committed whitelist of files allowed to contain `unsafe` (P2).
pub const UNSAFE_WHITELIST_PATH: &str = "crates/lint/unsafe_allow.txt";

/// Where the canonical wire-op dispatch lives (X1).
const SERVER_DISPATCH: &str = "crates/server/src/server.rs";
/// Surfaces every wire op must reach (X1): both clients as code, the
/// design document as a backtick-quoted name.
const OP_CODE_SURFACES: &[&str] = &[
    "crates/server/src/client.rs",
    "crates/server/src/bin/betalike_client.rs",
];
/// Documentation surfaces every wire op must be named in (X1, as a
/// backtick-quoted name): the design rationale and the normative wire
/// reference.
const OP_DOC_SURFACES: &[&str] = &["DESIGN.md", "docs/WIRE.md"];

/// Where the canonical scheme list lives (X2): the wire `Algo` enum.
const SCHEME_SOURCE: &str = "crates/server/src/wire.rs";
/// Every file that must name every scheme (X2) — adding a sixth scheme
/// without wiring it through persistence, conformance, the battery, CI
/// and the docs fails the lint.
const SCHEME_SITES: &[&str] = &[
    "crates/server/src/persist.rs",
    "crates/conformance/src/publish.rs",
    "crates/conformance/src/oracle.rs",
    "crates/conformance/src/battery.rs",
    ".github/workflows/ci.yml",
    "DESIGN.md",
    "docs/WIRE.md",
];

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

fn finding(rule: &'static str, file: &SourceFile, t: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: t.text.clone(),
    }
}

/// Runs every per-file token rule over one Rust file.
pub fn check_file(file: &SourceFile, unsafe_whitelist: &BTreeSet<String>) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    let deterministic = starts_with_any(&file.path, DETERMINISTIC_PREFIXES);
    let clock_free = !starts_with_any(&file.path, CLOCK_PREFIXES);
    let thread_free = !THREAD_FILES.contains(&file.path.as_str());
    let panic_free = starts_with_any(&file.path, PANIC_FREE_PREFIXES);
    let vfs_only = starts_with_any(&file.path, VFS_ONLY_PREFIXES);
    let unsafe_free = !unsafe_whitelist.contains(&file.path);

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident && !(t.kind == TokenKind::Punct && t.text == "[") {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if deterministic && t.kind == TokenKind::Ident => {
                out.push(finding(
                    "D1",
                    file,
                    t,
                    format!(
                        "`{}` iterates in hash order; deterministic-pipeline crates must use \
                         BTreeMap/BTreeSet or sorted iteration",
                        t.text
                    ),
                ));
            }
            "Instant" | "SystemTime" if clock_free && t.kind == TokenKind::Ident => {
                out.push(finding(
                    "D2",
                    file,
                    t,
                    format!(
                        "`{}` reads the wall clock; only the bench crate may time things \
                         (published artifacts must not depend on when they were computed)",
                        t.text
                    ),
                ));
            }
            "thread" if thread_free && !t.in_test && t.kind == TokenKind::Ident => {
                if let Some(target) = path_member(toks, i) {
                    if matches!(target.as_str(), "spawn" | "scope" | "Builder") {
                        out.push(finding(
                            "D3",
                            file,
                            t,
                            format!(
                                "ad-hoc `thread::{target}`; all parallelism goes through \
                                 vendor/mini-rayon (or the server acceptor) so thread counts \
                                 stay centrally controlled"
                            ),
                        ));
                    }
                }
            }
            "from_entropy" | "thread_rng" | "OsRng" | "getrandom" | "SystemRandom"
                if !t.in_test && t.kind == TokenKind::Ident =>
            {
                out.push(finding(
                    "D4",
                    file,
                    t,
                    format!(
                        "`{}` draws OS entropy; non-test code must construct seeded ChaCha \
                         RNGs so every publication is reproducible",
                        t.text
                    ),
                ));
            }
            "unwrap" | "expect"
                if panic_free
                    && !t.in_test
                    && t.kind == TokenKind::Ident
                    && prev_is(toks, i, ".")
                    && next_is(toks, i, "(") =>
            {
                out.push(finding(
                    "P1",
                    file,
                    t,
                    format!(
                        "`.{}()` can panic on a request/decode path; return a typed error \
                         instead (the BTBL reader models this)",
                        t.text
                    ),
                ));
            }
            "panic"
                if panic_free
                    && !t.in_test
                    && t.kind == TokenKind::Ident
                    && next_is(toks, i, "!") =>
            {
                out.push(finding(
                    "P1",
                    file,
                    t,
                    "`panic!` on a request/decode path; return a typed error instead".into(),
                ));
            }
            "[" if panic_free && !t.in_test && is_index_expression(toks, i) => {
                out.push(Finding {
                    rule: "P1",
                    path: file.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "slice/array indexing can panic on a request/decode path; use \
                              `.get(..)` or prove the bound and suppress with a reason"
                        .into(),
                    snippet: index_snippet(toks, i),
                });
            }
            "fs" if vfs_only && !t.in_test && t.kind == TokenKind::Ident => {
                if let Some(target) = path_member(toks, i) {
                    out.push(finding(
                        "F1",
                        file,
                        t,
                        format!(
                            "direct `fs::{target}` in the store; route the syscall through the \
                             injectable Vfs (a named `site::` constant) so the crash-point \
                             torture suite can reach it"
                        ),
                    ));
                }
            }
            "unsafe" if unsafe_free && t.kind == TokenKind::Ident => {
                out.push(finding(
                    "P2",
                    file,
                    t,
                    format!(
                        "`unsafe` outside the whitelist ({UNSAFE_WHITELIST_PATH}); add the file \
                         there with a justification or rewrite safely"
                    ),
                ));
            }
            _ => {}
        }
    }
    out
}

/// For an ident at `i` followed by `::`, the path member after it.
fn path_member(toks: &[Token], i: usize) -> Option<String> {
    let colon = |j: usize| {
        toks.get(j)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ":")
    };
    if colon(i + 1) && colon(i + 2) {
        let t = toks.get(i + 3)?;
        (t.kind == TokenKind::Ident).then(|| t.text.clone())
    } else {
        None
    }
}

fn prev_is(toks: &[Token], i: usize, ch: &str) -> bool {
    i > 0 && toks[i - 1].kind == TokenKind::Punct && toks[i - 1].text == ch
}

fn next_is(toks: &[Token], i: usize, ch: &str) -> bool {
    toks.get(i + 1)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ch)
}

/// Keywords that may directly precede a `[` without making it an index
/// expression (slice patterns, array expressions after `return`/`=` etc.).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break", "continue",
    "loop", "while", "for", "where", "impl", "dyn", "fn", "pub", "use", "static", "const", "type",
    "struct", "enum", "unsafe", "box", "yield", "await", "async",
];

/// A `[` is an index expression when it directly follows a value-ending
/// token: a non-keyword identifier, a closing `)`/`]`, or a `?` (as in
/// `take(1)?[0]`). Full-range slices `x[..]` are exempt — they cannot
/// panic.
fn is_index_expression(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    let indexable = match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.text == ")" || prev.text == "]" || prev.text == "?",
        _ => false,
    };
    if !indexable {
        return false;
    }
    // `x[..]` — RangeFull never panics.
    let dot = |j: usize| {
        toks.get(j)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ".")
    };
    let close = |j: usize| {
        toks.get(j)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "]")
    };
    !(dot(i + 1) && dot(i + 2) && close(i + 3))
}

/// A stable snippet for an indexing finding: `base[`.
fn index_snippet(toks: &[Token], i: usize) -> String {
    let base = i
        .checked_sub(1)
        .map(|p| toks[p].text.as_str())
        .unwrap_or("");
    format!("{base}[")
}

/// Extracts the canonical wire-op set from the server dispatch: string
/// literals used as match-arm patterns (`"op" =>`) plus literals compared
/// with `==`, in non-test code.
pub fn dispatch_ops(server: &SourceFile) -> Vec<(String, u32, u32)> {
    let toks = &server.tokens;
    let mut ops = Vec::new();
    let punct = |j: usize, ch: &str| {
        toks.get(j)
            .is_some_and(|t: &Token| t.kind == TokenKind::Punct && t.text == ch)
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Str || t.in_test {
            continue;
        }
        if !t.text.chars().all(|c| c.is_ascii_lowercase()) || t.text.is_empty() {
            continue;
        }
        let arm = punct(i + 1, "=") && punct(i + 2, ">");
        // `op == "shutdown"`: the two preceding tokens are `=` `=` (a `!=`
        // lexes as `!` `=`, so it cannot satisfy this).
        let eq = i >= 2 && punct(i - 1, "=") && punct(i - 2, "=");
        if (arm || eq) && !ops.iter().any(|(o, _, _)| o == &t.text) {
            ops.push((t.text.clone(), t.line, t.col));
        }
    }
    ops
}

/// Extracts the canonical scheme names from the wire `Algo` enum: string
/// literals adjacent to a `=>` on either side (`Algo::Burel => "burel"` in
/// `as_str`, `"burel" => Ok(..)` in `parse`), in non-test code.
pub fn wire_schemes(wire: &SourceFile) -> Vec<String> {
    let toks = &wire.tokens;
    let punct = |j: usize, ch: &str| {
        toks.get(j)
            .is_some_and(|t: &Token| t.kind == TokenKind::Punct && t.text == ch)
    };
    let mut schemes = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Str || t.in_test {
            continue;
        }
        if !t.text.chars().all(|c| c.is_ascii_lowercase()) || t.text.is_empty() {
            continue;
        }
        let before_arrow = punct(i + 1, "=") && punct(i + 2, ">");
        let after_arrow = i >= 2 && punct(i - 1, ">") && punct(i - 2, "=");
        if (before_arrow || after_arrow) && !schemes.contains(&t.text) {
            schemes.push(t.text.clone());
        }
    }
    schemes
}

/// X1: every op the server dispatches must be reachable from both client
/// surfaces and documented in DESIGN.md §8 and docs/WIRE.md.
pub fn check_wire_ops(files: &[SourceFile]) -> Vec<Finding> {
    let Some(server) = files.iter().find(|f| f.path == SERVER_DISPATCH) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (op, line, col) in dispatch_ops(server) {
        for surface in OP_CODE_SURFACES {
            let Some(f) = files.iter().find(|f| &f.path == surface) else {
                continue;
            };
            if !f.has_code_word(&op) {
                out.push(Finding {
                    rule: "X1",
                    path: SERVER_DISPATCH.into(),
                    line,
                    col,
                    message: format!(
                        "wire op `{op}` is dispatched by the server but not exposed in \
                         `{surface}`; every op must be reachable from both clients"
                    ),
                    snippet: format!("{op}@{surface}"),
                });
            }
        }
        for surface in OP_DOC_SURFACES {
            let Some(doc) = files.iter().find(|f| &f.path == surface) else {
                continue;
            };
            if !doc.text.contains(&format!("`{op}`")) {
                out.push(Finding {
                    rule: "X1",
                    path: SERVER_DISPATCH.into(),
                    line,
                    col,
                    message: format!(
                        "wire op `{op}` is dispatched by the server but never named (as \
                         `{op}` in backticks) in {surface}"
                    ),
                    snippet: format!("{op}@{surface}"),
                });
            }
        }
    }
    out
}

/// X2: every scheme the wire `Algo` enum names must appear in every
/// dispatch/verification site — adding a scheme without wiring it through
/// the whole stack fails the lint.
pub fn check_schemes(files: &[SourceFile]) -> Vec<Finding> {
    let Some(wire) = files.iter().find(|f| f.path == SCHEME_SOURCE) else {
        return Vec::new();
    };
    let schemes = wire_schemes(wire);
    let mut out = Vec::new();
    for site in SCHEME_SITES {
        let Some(f) = files.iter().find(|f| &f.path == site) else {
            continue;
        };
        for scheme in &schemes {
            let present = if site.ends_with(".rs") {
                f.has_code_word(scheme)
            } else {
                f.has_text_word(scheme)
            };
            if !present {
                out.push(Finding {
                    rule: "X2",
                    path: (*site).into(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "scheme `{scheme}` (from the wire `Algo` enum) is not named anywhere \
                         in `{site}`; every scheme must be wired through dispatch, persistence, \
                         the conformance oracle, the attack battery, CI and the docs"
                    ),
                    snippet: format!("{scheme}@{site}"),
                });
            }
        }
    }
    out
}

/// S1: a suppression comment that fails to parse, names an unknown or
/// unsuppressible rule, or omits the mandatory reason.
pub fn check_suppression_syntax(file: &SourceFile) -> Vec<Finding> {
    file.suppressions
        .iter()
        .filter_map(|s| {
            let problem = if let Some(why) = &s.malformed {
                format!("malformed suppression: {why}")
            } else if !SUPPRESSIBLE.contains(&s.rule.as_str()) {
                format!(
                    "suppression names `{}`, which is not a suppressible rule ({})",
                    s.rule,
                    SUPPRESSIBLE.join(", ")
                )
            } else if s.reason.is_none() {
                format!(
                    "suppression of `{}` without a reason; write \
                     allow({}, reason = \"why this is safe\")",
                    s.rule, s.rule
                )
            } else {
                return None;
            };
            Some(Finding {
                rule: "S1",
                path: file.path.clone(),
                line: s.line,
                col: s.col,
                message: problem,
                snippet: format!("allow({})", s.rule),
            })
        })
        .collect()
}

/// S2: a well-formed suppression that matched no finding — stale allows
/// must be deleted, keeping the suppression surface minimal.
pub fn stale_suppression(file: &SourceFile, s: &Suppression) -> Finding {
    Finding {
        rule: "S2",
        path: file.path.clone(),
        line: s.line,
        col: s.col,
        message: format!(
            "stale suppression: no `{}` finding on line {} (or {}); delete it",
            s.rule, s.line, s.target_line
        ),
        snippet: format!("allow({})", s.rule),
    }
}
