//! The analysis driver: walks the workspace, runs every rule, applies
//! suppressions and the baseline, and returns the surviving findings.

use crate::rules::{self, Finding};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Non-Rust files that participate in the workspace rules (X1/X2 check
/// them as prose/config surfaces).
const EXTRA_FILES: &[&str] = &["DESIGN.md", "docs/WIRE.md", ".github/workflows/ci.yml"];

/// The loaded workspace: every file the rules look at, with root-relative
/// forward-slash paths.
pub struct Workspace {
    /// All scanned files, sorted by path for deterministic output.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `crates/*/src` and `vendor/mini-rayon/src` under `root` for
    /// Rust sources, plus the prose/config surfaces the workspace rules
    /// need. Paths are stored root-relative with `/` separators so
    /// findings and baselines are stable across machines.
    pub fn scan_root(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut src_roots: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                src_roots.push(src);
            }
        }
        src_roots.push(root.join("vendor/mini-rayon/src"));
        src_roots.sort();
        for src in src_roots {
            collect_rs(&src, &mut |path| {
                let text = fs::read_to_string(path)?;
                files.push(SourceFile::new(rel_path(root, path), text));
                Ok(())
            })?;
        }
        for extra in EXTRA_FILES {
            let path = root.join(extra);
            if path.is_file() {
                files.push(SourceFile::new((*extra).into(), fs::read_to_string(&path)?));
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory `(path, text)` pairs — the test
    /// fixtures use this to exercise rules without touching the disk.
    pub fn from_files(files: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = files
            .into_iter()
            .map(|(path, text)| SourceFile::new(path, text))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Runs every rule and resolves suppressions. The result is sorted by
    /// `(path, line, col, rule)` and includes S1/S2 meta findings; the
    /// baseline has not been applied yet (see [`Baseline::apply`]).
    pub fn run(&mut self, unsafe_whitelist: &BTreeSet<String>) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &self.files {
            findings.extend(rules::check_file(file, unsafe_whitelist));
            findings.extend(rules::check_suppression_syntax(file));
        }
        findings.extend(rules::check_wire_ops(&self.files));
        findings.extend(rules::check_schemes(&self.files));

        // A well-formed suppression absorbs every finding of its rule on
        // its own line or the next code-bearing line. Malformed ones
        // already produced S1 above and absorb nothing.
        for file in &mut self.files {
            for s in &mut file.suppressions {
                if s.malformed.is_some()
                    || s.reason.is_none()
                    || !rules::SUPPRESSIBLE.contains(&s.rule.as_str())
                {
                    continue;
                }
                let before = findings.len();
                findings.retain(|f| {
                    !(f.rule == s.rule
                        && f.path == file.path
                        && (f.line == s.line || f.line == s.target_line))
                });
                s.used = findings.len() < before;
            }
        }
        for file in &self.files {
            for s in &file.suppressions {
                let well_formed = s.malformed.is_none()
                    && s.reason.is_some()
                    && rules::SUPPRESSIBLE.contains(&s.rule.as_str());
                if well_formed && !s.used {
                    findings.push(rules::stale_suppression(file, s));
                }
            }
        }
        findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
        findings
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(dir: &Path, visit: &mut dyn FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path)?;
        }
    }
    Ok(())
}

/// Loads the `unsafe` whitelist (P2): one root-relative path per line,
/// `#` comments and blank lines ignored. A missing file means an empty
/// whitelist.
pub fn load_unsafe_whitelist(root: &Path) -> io::Result<BTreeSet<String>> {
    let path = root.join(rules::UNSAFE_WHITELIST_PATH);
    if !path.is_file() {
        return Ok(BTreeSet::new());
    }
    Ok(fs::read_to_string(&path)?
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect())
}

/// The grandfathered-findings allowlist. Entries are keyed by
/// `(rule, path, snippet)` with a count, so they survive unrelated edits
/// that shift line numbers but die with the code they describe. The file
/// is a ratchet: an entry that no longer matches a finding is itself a
/// finding (B0), so the baseline can only shrink.
#[derive(Default)]
pub struct Baseline {
    entries: BTreeMap<(String, String, String), u32>,
}

impl Baseline {
    /// Parses the tab-separated baseline format:
    /// `rule<TAB>path<TAB>count<TAB>snippet`, `#` comments allowed.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '\t');
            let (rule, path, count, snippet) =
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(r), Some(p), Some(c), Some(s)) => (r, p, c, s),
                    _ => {
                        return Err(format!(
                            "baseline line {}: expected rule<TAB>path<TAB>count<TAB>snippet",
                            i + 1
                        ))
                    }
                };
            let count: u32 = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", i + 1))?;
            *entries
                .entry((rule.to_string(), path.to_string(), snippet.to_string()))
                .or_insert(0) += count;
        }
        Ok(Baseline { entries })
    }

    /// Loads the baseline from `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.is_file() {
            return Ok(Baseline::default());
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Baseline::parse(&text)
    }

    /// Renders findings into baseline file format (used by
    /// `--write-baseline`).
    pub fn serialize(findings: &[Finding]) -> String {
        let mut counts: BTreeMap<(&str, &str, &str), u32> = BTreeMap::new();
        for f in findings {
            *counts.entry((f.rule, &f.path, &f.snippet)).or_insert(0) += 1;
        }
        let mut out = String::from(
            "# betalike-lint baseline: grandfathered findings, keyed by rule/path/snippet.\n\
             # This file may only shrink — a stale entry is itself a finding (B0).\n",
        );
        for ((rule, path, snippet), count) in counts {
            out.push_str(&format!("{rule}\t{path}\t{count}\t{snippet}\n"));
        }
        out
    }

    /// Subtracts baselined findings and converts stale entries into B0
    /// findings. S1/S2 meta findings are never baselined — suppression
    /// hygiene cannot be grandfathered.
    pub fn apply(&self, findings: Vec<Finding>) -> Vec<Finding> {
        let mut budget = self.entries.clone();
        let mut out = Vec::new();
        for f in findings {
            if f.rule != "S1" && f.rule != "S2" {
                let key = (f.rule.to_string(), f.path.clone(), f.snippet.clone());
                if let Some(n) = budget.get_mut(&key) {
                    if *n > 0 {
                        *n -= 1;
                        continue;
                    }
                }
            }
            out.push(f);
        }
        for ((rule, path, snippet), n) in budget {
            if n > 0 {
                out.push(Finding {
                    rule: "B0",
                    path: path.clone(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "stale baseline entry: {n} grandfathered `{rule}` finding(s) for \
                         `{snippet}` in `{path}` no longer occur; shrink the baseline"
                    ),
                    snippet,
                });
            }
        }
        out.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
        out
    }

    /// Number of distinct grandfathered fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is grandfathered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
