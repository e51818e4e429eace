//! # sim-lint — workspace determinism & unit-discipline analyzer
//!
//! A workspace-aware, two-pass semantic analyzer enforcing the conventions
//! that make this simulator trustworthy. **Pass 1** builds a per-file
//! symbol table ([`symbols::FileSymbols`]: `use`-declaration resolution,
//! local function definitions) and a workspace-wide `pub fn` index
//! ([`symbols::WorkspaceIndex`]); **pass 2** runs the rules over the token
//! stream with that context, so a bare `var(…)` or `spawn(…)` is judged by
//! what it *resolves to*, not by its spelling:
//!
//! * **R1** — no wall clocks (`Instant`, `SystemTime`), `thread::sleep`, or
//!   OS entropy inside simulation crates;
//! * **R2** — no iteration over `HashMap`/`HashSet` in simulation crates
//!   (order-nondeterministic); use `BTreeMap`/`BTreeSet` or sorted access;
//! * **R3** — raw f64↔ns time casts confined to `sim-core`'s blessed
//!   ingest/egress API (`from_ns_f64*`, `from_secs_f64`, `as_*_f64`);
//! * **R4** — no `.unwrap()`/`.expect(…)` in non-test library code;
//! * **R5** — every `pub` item in `sim-core`, `cluster`, `controller`,
//!   `kv-transfer` and `replica-fidelity` is documented;
//! * **R6** — no raw `thread::spawn`/`thread::scope` in simulation crates;
//!   parallelism goes through `sim_core::par`'s ordered, deterministic
//!   scoped-thread helpers;
//! * **R7** — no raw `std::env` access anywhere (libraries, benches,
//!   examples) outside the `sim_core::knobs` registry: environment knobs
//!   are declared once, read once, and recorded in artifact snapshots;
//! * **R8** — no lossy `as` casts (integer narrowing, float→int) in
//!   simulation crates outside `sim_core::cast`'s blessed helpers;
//! * **R9** — no stale waivers: a `simlint: allow(…)` that stops
//!   suppressing anything becomes a diagnostic itself.
//!
//! Diagnostics print as clickable `file:line`; `--json` emits a
//! machine-readable report; `--github` emits GitHub Actions `::error`
//! annotations; `// simlint: allow(<rule>) -- <reason>` waivers are honored
//! and counted; and a committed [`baseline::Baseline`] ratchet freezes
//! pre-existing violations so the exit code flips only on *new* ones. See
//! `DESIGN.md` § "Static analysis & determinism discipline" and
//! § "Configuration discipline & the knob registry".

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod rules;
pub mod scan;
pub mod symbols;

use baseline::Baseline;
use rules::{FileContext, TargetKind, Violation, ALL_RULES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use symbols::{FileSymbols, WorkspaceIndex};

/// Analysis results for one scanned file.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Owning crate name (directory under `crates/`, or `pat` for `src/`).
    pub crate_name: String,
    /// All violations found, waived or not.
    pub violations: Vec<Violation>,
}

/// A full analysis run over the workspace tree.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-file results, in deterministic path order.
    pub files: Vec<FileReport>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Non-waived violation counts per `(file, rule)` baseline key.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.files {
            for v in &f.violations {
                if v.waived.is_none() {
                    *counts.entry(baseline::key(&f.path, v.rule)).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Total waived violations.
    pub fn waived(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.violations)
            .filter(|v| v.waived.is_some())
            .count()
    }
}

/// The ratchet verdict of an analysis against a baseline.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// `(file, rule)` keys whose current count exceeds the frozen count,
    /// with `(current, allowed)`.
    pub regressions: BTreeMap<String, (usize, usize)>,
    /// Total non-waived violations.
    pub total: usize,
    /// Violations covered by the baseline.
    pub baselined: usize,
    /// Violations covered by inline waivers.
    pub waived: usize,
}

impl Verdict {
    /// True when no `(file, rule)` pair grew beyond the baseline.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Scans every non-vendored workspace crate under `root`, in two passes.
///
/// Scanned targets: `crates/<name>/src/**/*.rs` (kind [`TargetKind::Lib`],
/// full rule set), `crates/<name>/benches/**/*.rs` and both the per-crate
/// and root `examples/**/*.rs` (kinds `Bench`/`Example`, configuration
/// rules R7/R9 only) for every crate whose directory name does not start
/// with `compat-`, plus the root facade crate's `src/**/*.rs` (as crate
/// `pat`). Integration tests and vendored compat stubs are out of scope by
/// construction.
///
/// Pass 1 scans every file and builds its [`FileSymbols`] plus the
/// workspace [`WorkspaceIndex`]; pass 2 runs [`rules::check_target`] with
/// that context.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading the tree.
pub fn analyze_tree(root: &Path) -> io::Result<Analysis> {
    // (crate, kind, dir); sorted for deterministic report order.
    let mut targets: Vec<(String, TargetKind, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("compat-") {
                continue;
            }
            for (sub, kind) in [
                ("src", TargetKind::Lib),
                ("benches", TargetKind::Bench),
                ("examples", TargetKind::Example),
            ] {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    targets.push((name.clone(), kind, dir));
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        targets.push(("pat".to_string(), TargetKind::Lib, root_src));
    }
    let root_examples = root.join("examples");
    if root_examples.is_dir() {
        targets.push(("pat".to_string(), TargetKind::Example, root_examples));
    }
    targets.sort_by(|a, b| (&a.0, &a.2).cmp(&(&b.0, &b.2)));

    // Pass 1: scan every file, build its symbol table, and fold library
    // files into the workspace function index.
    struct Scanned {
        crate_name: String,
        kind: TargetKind,
        rel: String,
        lines: Vec<scan::Line>,
        symbols: FileSymbols,
    }
    let mut scanned_files: Vec<Scanned> = Vec::new();
    let mut index = WorkspaceIndex::default();
    for (crate_name, kind, dir) in targets {
        let mut paths = Vec::new();
        collect_rs(&dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let source = std::fs::read_to_string(&path)?;
            let lines = scan::scan(&source);
            let symbols = FileSymbols::build(&lines);
            if kind == TargetKind::Lib {
                index.add_file(&crate_name, &symbols);
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            scanned_files.push(Scanned {
                crate_name: crate_name.clone(),
                kind,
                rel,
                lines,
                symbols,
            });
        }
    }

    // Pass 2: run the rules with full context.
    let mut files = Vec::new();
    let scanned = scanned_files.len();
    for f in &scanned_files {
        let violations = rules::check_target(&FileContext {
            crate_name: &f.crate_name,
            path: &f.rel,
            kind: f.kind,
            lines: &f.lines,
            symbols: &f.symbols,
            index: &index,
        });
        if !violations.is_empty() {
            files.push(FileReport {
                path: f.rel.clone(),
                crate_name: f.crate_name.clone(),
                violations,
            });
        }
    }
    Ok(Analysis {
        files,
        files_scanned: scanned,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Compares an analysis against a baseline, producing the ratchet verdict.
pub fn compare(analysis: &Analysis, baseline: &Baseline) -> Verdict {
    let counts = analysis.counts();
    let mut regressions = BTreeMap::new();
    let mut baselined = 0usize;
    let mut total = 0usize;
    for (k, &c) in &counts {
        total += c;
        let allowed = baseline.counts.get(k).copied().unwrap_or(0);
        if c > allowed {
            regressions.insert(k.clone(), (c, allowed));
            baselined += allowed;
        } else {
            baselined += c;
        }
    }
    Verdict {
        regressions,
        total,
        baselined,
        waived: analysis.waived(),
    }
}

/// Computes the shrunken baseline for `--update-baseline`.
///
/// # Errors
///
/// Returns a human-readable message when any `(file, rule)` count would
/// grow — the ratchet only tightens; fix the code or add a waiver instead.
pub fn updated_baseline(analysis: &Analysis, old: &Baseline) -> Result<Baseline, String> {
    let counts = analysis.counts();
    let grew: Vec<String> = counts
        .iter()
        .filter(|(k, &c)| c > old.counts.get(*k).copied().unwrap_or(0))
        .map(|(k, &c)| {
            format!(
                "  {k}: {c} > {} allowed",
                old.counts.get(k).copied().unwrap_or(0)
            )
        })
        .collect();
    if !grew.is_empty() {
        return Err(format!(
            "--update-baseline can only shrink counts; these grew:\n{}\nfix the code or add `// simlint: allow(<rule>) -- <reason>` waivers",
            grew.join("\n")
        ));
    }
    Ok(Baseline::from_counts(&counts))
}

/// Renders the human-readable report. Regressed `(file, rule)` groups list
/// every current site (the tool cannot know which individual line is new);
/// `show_all` additionally lists baselined and waived sites.
pub fn render_text(analysis: &Analysis, verdict: &Verdict, show_all: bool) -> String {
    let mut out = String::new();
    for f in &analysis.files {
        for v in &f.violations {
            let key = baseline::key(&f.path, v.rule);
            let regressed = verdict.regressions.contains_key(&key);
            if let Some(reason) = &v.waived {
                if show_all {
                    let _ = writeln!(
                        out,
                        "{}:{}: {} [waived: {}] {}",
                        f.path, v.line, v.rule, reason, v.message
                    );
                }
            } else if regressed {
                let _ = writeln!(out, "{}:{}: {} {}", f.path, v.line, v.rule, v.message);
            } else if show_all {
                let _ = writeln!(
                    out,
                    "{}:{}: {} [baselined] {}",
                    f.path, v.line, v.rule, v.message
                );
            }
        }
    }
    for (k, (current, allowed)) in &verdict.regressions {
        let _ = writeln!(
            out,
            "ratchet: {k} has {current} violation(s), baseline allows {allowed}"
        );
    }
    let per_rule = per_rule_counts(analysis);
    let rule_summary: Vec<String> = ALL_RULES
        .iter()
        .map(|r| format!("{r}:{}", per_rule.get(*r).copied().unwrap_or(0)))
        .collect();
    let _ = writeln!(
        out,
        "sim-lint: {} files scanned; {} violation(s) ({} baselined, {} new), {} waived [{}]",
        analysis.files_scanned,
        verdict.total,
        verdict.baselined,
        verdict.total - verdict.baselined,
        verdict.waived,
        rule_summary.join(" ")
    );
    out
}

fn per_rule_counts(analysis: &Analysis) -> BTreeMap<&'static str, usize> {
    let mut per_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    for f in &analysis.files {
        for v in &f.violations {
            if v.waived.is_none() {
                *per_rule.entry(v.rule).or_insert(0) += 1;
            }
        }
    }
    per_rule
}

/// Renders the machine-readable JSON report.
pub fn render_json(analysis: &Analysis, verdict: &Verdict) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    let _ = writeln!(out, "  \"files_scanned\": {},", analysis.files_scanned);
    out.push_str("  \"violations\": [");
    let mut first = true;
    for f in &analysis.files {
        for v in &f.violations {
            let key = baseline::key(&f.path, v.rule);
            let status = if v.waived.is_some() {
                "waived"
            } else if verdict.regressions.contains_key(&key) {
                "new"
            } else {
                "baselined"
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"status\": \"{}\", \"message\": \"{}\"",
                json_escape(&f.path),
                v.line,
                v.rule,
                status,
                json_escape(&v.message)
            );
            if let Some(reason) = &v.waived {
                let _ = write!(out, ", \"waive_reason\": \"{}\"", json_escape(reason));
            }
            out.push('}');
        }
    }
    if !first {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("],\n");
    out.push_str("  \"regressions\": [");
    let mut first = true;
    for (k, (current, allowed)) in &verdict.regressions {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"key\": \"{}\", \"current\": {current}, \"allowed\": {allowed}}}",
            json_escape(k)
        );
    }
    if !verdict.regressions.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str("],\n");
    let _ = writeln!(
        out,
        "  \"summary\": {{\"total\": {}, \"new\": {}, \"baselined\": {}, \"waived\": {}}}",
        verdict.total,
        verdict.total - verdict.baselined,
        verdict.baselined,
        verdict.waived
    );
    out.push_str("}\n");
    out
}

/// Renders GitHub Actions workflow annotations (`::error file=…`) for
/// every *new* (non-baselined, non-waived) violation, followed by the
/// human-readable summary line. Clean runs emit only the summary, so the
/// output is safe to print unconditionally in CI.
pub fn render_github(analysis: &Analysis, verdict: &Verdict) -> String {
    let mut out = String::new();
    for f in &analysis.files {
        for v in &f.violations {
            let key = baseline::key(&f.path, v.rule);
            if v.waived.is_none() && verdict.regressions.contains_key(&key) {
                let _ = writeln!(
                    out,
                    "::error file={},line={},title=sim-lint {}::{}",
                    github_escape_property(&f.path),
                    v.line,
                    v.rule,
                    github_escape_data(&v.message)
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "sim-lint: {} files scanned; {} new violation(s) beyond baseline",
        analysis.files_scanned,
        verdict.total - verdict.baselined
    );
    out
}

/// Escapes the data (message) part of a workflow command.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a property (file/title) of a workflow command.
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Locates the workspace root: walks up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
