//! Pass 2 of the semantic analyzer: the rule set R1–R9, plus waiver
//! parsing and stale-waiver detection.
//!
//! | Rule | Scope                         | What it flags                              |
//! |------|-------------------------------|--------------------------------------------|
//! | R1   | simulation crates, all code   | wall clocks, sleeps, OS entropy            |
//! | R2   | simulation crates, all code   | iteration over `HashMap`/`HashSet` (and `Fx` variants) |
//! | R3   | sim crates minus `sim-core`, non-test | raw casts of time-named values     |
//! | R4   | every scanned crate, non-test | `.unwrap()` / `.expect(` in library code   |
//! | R5   | `sim-core` + `cluster`, non-test | undocumented `pub` items                |
//! | R6   | sim crates minus `sim-core`, non-test | raw `thread::spawn`/`thread::scope` |
//! | R7   | every target (libs, benches, examples), all code | raw `std::env` access outside `sim_core::knobs` |
//! | R8   | sim crates minus `sim-core`, non-test | lossy `as` casts outside `sim_core::cast` |
//! | R9   | every target, all code        | `simlint: allow(…)` waivers that no longer suppress anything |
//!
//! Rules run over a [`FileContext`]: the scanned lines plus the file's
//! symbol table ([`FileSymbols`]) and the workspace function index from
//! pass 1, so a bare `var(…)` call is judged by what it *resolves to* —
//! `use std::env::var` makes it an R7 violation, a local `fn var` does
//! not. Benches and examples are scanned too, but only for the rules that
//! are about configuration honesty (R7) and waiver hygiene (R9): panics
//! and wall clocks are legitimate in a bench harness.
//!
//! Waiver syntax, honored on the violating line or the standalone comment
//! line directly above it:
//!
//! ```text
//! // simlint: allow(R2) -- usize sum is order-independent
//! ```
//!
//! A waiver is a *claim* that the rule fires on its line. R9 audits that
//! claim: when the code is fixed (or moves) and the waiver stops
//! suppressing anything, the waiver itself becomes the diagnostic, so the
//! waiver set can only shrink.

use crate::scan::Line;
use crate::symbols::{FileSymbols, Resolution, WorkspaceIndex};
use std::collections::BTreeSet;

/// Crates whose code runs inside the simulation and must be deterministic.
pub const SIM_CRATES: &[&str] = &[
    "sim-core",
    "sim-gpu",
    "serving",
    "cluster",
    "controller",
    "kv-cache",
    "kv-transfer",
    "pat-core",
    "baselines",
    "attn-kernel",
    "replica-fidelity",
];

/// Crates whose entire `pub` surface must carry doc comments (R5).
pub const DOC_CRATES: &[&str] = &["sim-core", "cluster", "kv-transfer", "replica-fidelity"];

/// All rule names, in report order.
pub const ALL_RULES: &[&str] = &["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"];

/// The one file allowed to touch `std::env` directly: the knob registry.
pub const R7_SANCTIONED_FILE: &str = "crates/sim-core/src/knobs.rs";

/// What kind of compilation target a scanned file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` of a workspace crate — full rule set.
    Lib,
    /// `benches/**` — configuration rules only (R7, R9).
    Bench,
    /// `examples/**` — configuration rules only (R7, R9).
    Example,
}

/// Everything pass 2 knows about one file.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Owning crate name (directory under `crates/`, or `pat` for `src/`).
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes (empty in unit tests).
    pub path: &'a str,
    /// Which target tree the file came from.
    pub kind: TargetKind,
    /// Scanned lines.
    pub lines: &'a [Line],
    /// Pass-1 symbol table for this file.
    pub symbols: &'a FileSymbols,
    /// Pass-1 workspace function index.
    pub index: &'a WorkspaceIndex,
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (`"R1"` … `"R9"`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the hazard.
    pub message: String,
    /// `Some(reason)` when an inline waiver covers this violation.
    pub waived: Option<String>,
}

/// A parsed `simlint: allow(...)` waiver comment.
#[derive(Debug, Clone)]
struct Waiver {
    rules: Vec<String>,
    reason: String,
    /// True when the waiver's line carries no code (applies to next line).
    standalone: bool,
}

/// Checks one library file belonging to `crate_name`, with a symbol table
/// built on the fly and no workspace index — the single-file entry point
/// (unit tests, ad-hoc checks). Workspace runs go through [`check_target`].
pub fn check_file(crate_name: &str, lines: &[Line]) -> Vec<Violation> {
    let symbols = FileSymbols::build(lines);
    let index = WorkspaceIndex::default();
    check_target(&FileContext {
        crate_name,
        path: "",
        kind: TargetKind::Lib,
        lines,
        symbols: &symbols,
        index: &index,
    })
}

/// Checks one scanned target file with full pass-1 context, returning all
/// violations (waived or not), including R9 stale-waiver diagnostics.
pub fn check_target(ctx: &FileContext) -> Vec<Violation> {
    let lines = ctx.lines;
    let sim = SIM_CRATES.contains(&ctx.crate_name);
    let doc = DOC_CRATES.contains(&ctx.crate_name);
    let waivers = parse_waivers(lines);

    // One token stream for the whole file, each token tagged with its
    // 0-based line: method chains split across lines (`map\n.values()`)
    // must not escape detection.
    let stream: Vec<(usize, &str)> = lines
        .iter()
        .enumerate()
        .flat_map(|(i, l)| tokens(&l.code).into_iter().map(move |t| (i, t)))
        .collect();
    let in_test = |idx: usize| lines[idx].in_test;

    let mut out = Vec::new();
    if ctx.kind == TargetKind::Lib {
        let hash_idents = collect_hash_idents(&stream);
        if sim {
            check_r1(&stream, ctx.symbols, &mut out);
            check_r2(&stream, &hash_idents, &mut out);
            if ctx.crate_name != "sim-core" {
                check_r3(&stream, &in_test, &mut out);
                check_r6(&stream, ctx.symbols, &in_test, &mut out);
                check_r8(&stream, &in_test, &mut out);
            }
        }
        check_r4(&stream, &in_test, &mut out);
        if doc {
            for (idx, line) in lines.iter().enumerate() {
                if !line.in_test {
                    check_r5(&tokens(&line.code), lines, idx, &mut out);
                }
            }
        }
    }
    if ctx.path != R7_SANCTIONED_FILE {
        check_r7(&stream, ctx, &mut out);
    }

    let used = apply_waivers(&waivers, &mut out);
    let mut stale = Vec::new();
    check_r9(&waivers, &used, &mut stale);
    apply_waivers(&waivers, &mut stale);
    out.extend(stale);
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

// ------------------------------------------------------------------ R1

const R1_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "OsRng",
    "RandomState",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

fn check_r1(stream: &[(usize, &str)], sym: &FileSymbols, out: &mut Vec<Violation>) {
    for (i, &(idx, t)) in stream.iter().enumerate() {
        let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
        if R1_IDENTS.contains(&t) {
            out.push(Violation {
                rule: "R1",
                line: idx + 1,
                message: format!(
                    "`{t}` inside a simulation crate: wall clocks and OS entropy \
                     break reproducibility; use the sim-core time spine / seeded rng"
                ),
                waived: None,
            });
        }
        if t == "sleep" && is_thread_call(stream, i, sym, "sleep") {
            out.push(Violation {
                rule: "R1",
                line: idx + 1,
                message: "`thread::sleep` inside a simulation crate: simulated time \
                          never sleeps; advance the event queue instead"
                    .to_string(),
                waived: None,
            });
        }
        let _ = tok;
    }
}

/// Is token `i` part of a `use` declaration? (`use std::thread::sleep;`
/// mentions the path without calling it — declarations are not hazards.)
fn in_use_decl(stream: &[(usize, &str)], i: usize) -> bool {
    let start = stream[..i]
        .iter()
        .rposition(|&(_, t)| matches!(t, ";" | "{" | "}"))
        .map(|p| p + 1)
        .unwrap_or(0);
    stream[start..i].iter().any(|&(_, t)| t == "use")
}

/// Does token `i` (named `name`) denote a call to `std::thread::<name>`?
/// Matches the qualified form `thread::<name>(` and — via the pass-1
/// symbol table — a bare `<name>(` the file imported with
/// `use std::thread::<name>`. A local `fn <name>` is never flagged.
fn is_thread_call(stream: &[(usize, &str)], i: usize, sym: &FileSymbols, name: &str) -> bool {
    let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
    if in_use_decl(stream, i) {
        return false;
    }
    if i >= 3 && tok(i - 1) == Some(":") && tok(i - 2) == Some(":") && tok(i - 3) == Some("thread")
    {
        return true;
    }
    // Bare call: `<name>(` neither path-qualified nor a method receiver.
    if tok(i + 1) == Some("(")
        && (i == 0 || !matches!(tok(i - 1), Some(".") | Some(":")))
        && sym.resolves_to(name, &format!("std::thread::{name}"))
    {
        return true;
    }
    false
}

// ------------------------------------------------------------------ R2

/// Hash container type names whose iteration order is unspecified: std's,
/// and the deterministic-hasher aliases (`attn_kernel::fxhash`), whose order
/// is fixed per build but still an artifact of bucket layout.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Identifiers the file binds to a [`HASH_TYPES`] container (fields, lets,
/// params).
fn collect_hash_idents(stream: &[(usize, &str)]) -> Vec<String> {
    let mut idents = Vec::new();
    for i in 0..stream.len() {
        let (line, t) = stream[i];
        if !HASH_TYPES.contains(&t) {
            continue;
        }
        let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
        // `name: HashMap<...>` or `name: std::collections::HashMap<...>`
        // — scan left over a possible path prefix to the `:` and its
        // identifier. A `::` path separator is two `:` tokens.
        let mut j = i;
        while j >= 3 && tok(j - 1) == Some(":") && tok(j - 2) == Some(":") {
            j -= 3; // skip `seg ::`
        }
        // Skip reference/mutability sigils: `name: &mut HashMap<...>`.
        while j >= 1 && matches!(tok(j - 1), Some("&") | Some("mut")) {
            j -= 1;
        }
        if j >= 2 && tok(j - 1) == Some(":") && tok(j - 2) != Some(":") && is_ident(stream[j - 2].1)
        {
            push_unique(&mut idents, stream[j - 2].1);
        }
        let _ = line;
        // `let (mut) name = ... HashMap::...` — look back for a `let` in
        // the same statement (no `;` in between) with an `=` before the
        // type name.
        if let Some(let_pos) = stream[..i].iter().rposition(|&(_, t)| t == "let") {
            if stream[let_pos..i].iter().any(|&(_, t)| t == ";") {
                continue;
            }
            let mut k = let_pos + 1;
            if tok(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = tok(k) {
                if is_ident(name) && stream[let_pos..i].iter().any(|&(_, t)| t == "=") {
                    push_unique(&mut idents, name);
                }
            }
        }
    }
    idents
}

const R2_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn check_r2(stream: &[(usize, &str)], hash_idents: &[String], out: &mut Vec<Violation>) {
    for i in 0..stream.len() {
        let (idx, t) = stream[i];
        let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
        // `ident.iter()` and friends (chains may span lines).
        if i >= 2
            && R2_ITER_METHODS.contains(&t)
            && tok(i - 1) == Some(".")
            && hash_idents.iter().any(|h| h == stream[i - 2].1)
        {
            out.push(Violation {
                rule: "R2",
                line: idx + 1,
                message: format!(
                    "iteration over hash container `{}` (`.{}()`): order is \
                     nondeterministic; use BTreeMap/BTreeSet or sorted traversal",
                    stream[i - 2].1,
                    t
                ),
                waived: None,
            });
        }
        // `for pat in &mut? ident {`.
        if t == "in" {
            let mut j = i + 1;
            while matches!(tok(j), Some("&") | Some("mut")) {
                j += 1;
            }
            if let Some(name) = tok(j) {
                if hash_idents.iter().any(|h| h == name) && tok(j + 1) == Some("{") {
                    out.push(Violation {
                        rule: "R2",
                        line: stream[j].0 + 1,
                        message: format!(
                            "`for … in` over hash container `{name}`: order is \
                             nondeterministic; use BTreeMap/BTreeSet or sorted traversal"
                        ),
                        waived: None,
                    });
                }
            }
        }
    }
}

// ------------------------------------------------------------------ R3

const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

fn is_time_named(ident: &str) -> bool {
    ident == "ns"
        || ident == "us"
        || ident == "ms"
        || ident == "secs"
        || ident.ends_with("_ns")
        || ident.ends_with("_us")
        || ident.ends_with("_ms")
        || ident.ends_with("_s")
        || ident.ends_with("_secs")
}

fn check_r3(stream: &[(usize, &str)], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Violation>) {
    for i in 1..stream.len() {
        let (idx, t) = stream[i];
        if t == "as"
            && i + 1 < stream.len()
            && NUMERIC_TYPES.contains(&stream[i + 1].1)
            && is_time_named(stream[i - 1].1)
            && !in_test(idx)
        {
            out.push(Violation {
                rule: "R3",
                line: idx + 1,
                message: format!(
                    "raw time cast `{} as {}` outside sim-core: route conversions \
                     through SimTime/SimDuration (`from_ns_f64*`, `from_secs_f64`, `as_*_f64`)",
                    stream[i - 1].1,
                    stream[i + 1].1
                ),
                waived: None,
            });
        }
    }
}

// ------------------------------------------------------------------ R6

/// Thread entry points that ad-hoc parallelism reaches for. `sleep` is R1's.
const R6_ENTRY_POINTS: &[&str] = &["spawn", "scope"];

fn check_r6(
    stream: &[(usize, &str)],
    sym: &FileSymbols,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    for i in 0..stream.len() {
        let (idx, t) = stream[i];
        if R6_ENTRY_POINTS.contains(&t) && !in_test(idx) && is_thread_call(stream, i, sym, t) {
            out.push(Violation {
                rule: "R6",
                line: idx + 1,
                message: format!(
                    "raw `thread::{t}` inside a simulation crate: ad-hoc threading \
                     risks order-dependent merges; route parallelism through \
                     `sim_core::par` (ordered_map / for_each_mut)"
                ),
                waived: None,
            });
        }
    }
}

// ------------------------------------------------------------------ R4

fn check_r4(stream: &[(usize, &str)], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Violation>) {
    for i in 1..stream.len() {
        let (idx, t) = stream[i];
        let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
        if (t == "unwrap" || t == "expect") && tok(i - 1) == Some(".") && tok(i + 1) == Some("(") {
            // `.unwrap()` must close immediately; `.unwrap_or` etc. are
            // different tokens and never reach here. `.expect(` must take a
            // string argument: a call passing a non-literal first token is
            // a user-defined method (e.g. a parser's `expect(char)`), which
            // this token-level pass cannot see the receiver type of.
            if t == "unwrap" && tok(i + 2) != Some(")") {
                continue;
            }
            if t == "expect" && tok(i + 2) != Some("\"") {
                continue;
            }
            if in_test(idx) {
                continue;
            }
            out.push(Violation {
                rule: "R4",
                line: idx + 1,
                message: format!(
                    "`.{t}(…)` in non-test library code: propagate the error or \
                     restructure so the invariant is expressed without a panic"
                ),
                waived: None,
            });
        }
    }
}

// ------------------------------------------------------------------ R5

const R5_ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

fn check_r5(toks: &[&str], lines: &[Line], idx: usize, out: &mut Vec<Violation>) {
    // A `pub` item keyword pair anywhere on the line (covers `pub fn` after
    // indentation inside impl blocks). `pub(crate)`/`pub(super)` are not a
    // public surface and are skipped.
    let Some(p) = toks.iter().position(|&t| t == "pub") else {
        return;
    };
    let Some(kw) = toks.get(p + 1) else { return };
    if !R5_ITEM_KEYWORDS.contains(kw) {
        return;
    }
    // Out-of-line module declarations (`pub mod x;`) document themselves
    // with `//!` inner docs in their own file.
    if *kw == "mod" && toks.contains(&";") {
        return;
    }
    let name = toks.get(p + 2).copied().unwrap_or("?");
    if is_documented(lines, idx) {
        return;
    }
    out.push(Violation {
        rule: "R5",
        line: idx + 1,
        message: format!("public item `{kw} {name}` has no doc comment"),
        waived: None,
    });
}

/// Walks upward from the item line, skipping attribute lines, until a doc
/// comment or anything else is found.
fn is_documented(lines: &[Line], item_idx: usize) -> bool {
    let mut i = item_idx;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        let comment = line.comment.trim();
        if comment.starts_with("///") || comment.starts_with("//!") || comment.starts_with("/**") {
            return true;
        }
        if code.starts_with("#[")
            || code.starts_with("#![")
            || code.ends_with("]") && !code.is_empty()
        {
            // Attribute (possibly multi-line); keep walking.
            continue;
        }
        if code.is_empty() && comment.is_empty() {
            return false; // blank line: docs must be adjacent
        }
        if code.is_empty() && comment.starts_with("//") {
            return false; // plain comment is not documentation
        }
        return false;
    }
    false
}

// ------------------------------------------------------------------ R7

/// The `std::env` functions that constitute hidden configuration inputs.
const R7_ENV_FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

fn check_r7(stream: &[(usize, &str)], ctx: &FileContext, out: &mut Vec<Violation>) {
    let sym = ctx.symbols;
    for i in 0..stream.len() {
        let (idx, t) = stream[i];
        if !R7_ENV_FNS.contains(&t) {
            continue;
        }
        let tok = |j: usize| stream.get(j).map(|&(_, t)| t);
        if tok(i + 1) != Some("(") {
            continue; // not a call
        }
        let path_qualified = i >= 2 && tok(i - 1) == Some(":") && tok(i - 2) == Some(":");
        let hit = if path_qualified {
            // `env::<fn>(` — the qualifier must be std's env module, either
            // fully spelled (`std::env::<fn>`) or imported (`use std::env`).
            if i >= 3 && tok(i - 3) == Some("env") {
                let env_is_qualified = i >= 5 && tok(i - 4) == Some(":") && tok(i - 5) == Some(":");
                if env_is_qualified {
                    i >= 6 && tok(i - 6) == Some("std")
                } else {
                    sym.resolves_to("env", "std::env")
                }
            } else {
                false
            }
        } else if i >= 1 && tok(i - 1) == Some(".") {
            false // method call on some receiver, not std::env
        } else {
            // Bare call: flagged when the symbol table says it was imported
            // from std::env, or when a `use std::env::*` glob could supply
            // it and neither this file nor the workspace index defines a
            // function by that name.
            sym.resolves_to(t, &format!("std::env::{t}"))
                || (sym.globs.iter().any(|g| g == "std::env")
                    && sym.resolve(t) == Resolution::Unknown
                    && ctx.index.defining_crates(t).is_none())
        };
        if hit {
            out.push(Violation {
                rule: "R7",
                line: idx + 1,
                message: format!(
                    "raw `std::env::{t}` outside the knob registry: environment \
                     knobs are hidden inputs; declare them in `sim_core::knobs::KNOBS` \
                     and read through `knobs::raw`/`usize_knob`/`flag`/`choice`"
                ),
                waived: None,
            });
        }
    }
}

// ------------------------------------------------------------------ R8

/// Integer targets an `as` cast can silently truncate into.
const R8_NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "isize"];

/// All integer targets (for the float→int pattern, where even a wide
/// target hides NaN/saturation semantics).
const R8_ALL_INTS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float methods whose result is conventionally cast straight to an int.
const R8_FLOAT_METHODS: &[&str] = &["ceil", "floor", "round", "trunc"];

fn check_r8(stream: &[(usize, &str)], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Violation>) {
    for i in 0..stream.len() {
        let (idx, t) = stream[i];
        if t != "as" || in_test(idx) {
            continue;
        }
        let Some(&(_, target)) = stream.get(i + 1) else {
            continue;
        };
        let narrowing = R8_NARROW_INTS.contains(&target);
        let float_to_int = R8_ALL_INTS.contains(&target)
            && i >= 3
            && stream[i - 1].1 == ")"
            && stream[i - 2].1 == "("
            && R8_FLOAT_METHODS.contains(&stream[i - 3].1);
        if narrowing {
            out.push(Violation {
                rule: "R8",
                line: idx + 1,
                message: format!(
                    "narrowing `as {target}` cast in a simulation crate: silent \
                     truncation hides overflow; use `sim_core::cast` helpers \
                     (or `{target}::from`/`try_from` where lossless)"
                ),
                waived: None,
            });
        } else if float_to_int {
            out.push(Violation {
                rule: "R8",
                line: idx + 1,
                message: format!(
                    "float→`{target}` cast (`.{}() as {target}`) in a simulation \
                     crate: NaN/saturation semantics are implicit; use \
                     `sim_core::cast::f64_to_*` helpers",
                    stream[i - 3].1
                ),
                waived: None,
            });
        }
    }
}

// ------------------------------------------------------------------ R9

/// Reports every waiver rule name that suppressed nothing. `used` holds
/// `(waiver line index, rule token)` pairs recorded while waiving.
fn check_r9(
    waivers: &[Option<Waiver>],
    used: &BTreeSet<(usize, String)>,
    out: &mut Vec<Violation>,
) {
    for (i, w) in waivers.iter().enumerate() {
        let Some(w) = w else { continue };
        for r in &w.rules {
            // `allow(R9)` exists only to silence this rule itself; auditing
            // it for staleness would recurse.
            if r == "R9" {
                continue;
            }
            if !used.contains(&(i, r.clone())) {
                out.push(Violation {
                    rule: "R9",
                    line: i + 1,
                    message: format!(
                        "stale waiver: `allow({r})` no longer suppresses any {r} \
                         violation on its line; delete it so the waiver set only shrinks"
                    ),
                    waived: None,
                });
            }
        }
    }
}

// ------------------------------------------------------------------ waivers

fn parse_waivers(lines: &[Line]) -> Vec<Option<Waiver>> {
    lines
        .iter()
        .map(|line| {
            let c = line.comment.trim_start();
            // Waivers live in plain `//` comments only: doc text (`///`,
            // `//!`) quoting the syntax — as this file does — is prose,
            // not a waiver.
            let body = c.strip_prefix("//")?;
            if body.starts_with('/') || body.starts_with('!') {
                return None;
            }
            let start = c.find("simlint:")?;
            let rest = &c[start + "simlint:".len()..];
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("allow")?.trim_start();
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| {
                    r == "*"
                        || (r.len() >= 2
                            && r.starts_with('R')
                            && r[1..].chars().all(|c| c.is_ascii_digit()))
                })
                .collect();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix("--")?.trim();
            if rules.is_empty() || reason.is_empty() {
                return None; // malformed waivers are not honored
            }
            Some(Waiver {
                rules,
                reason: reason.to_string(),
                standalone: line.code.trim().is_empty(),
            })
        })
        .collect()
}

/// Assigns waivers to violations, mutating `waived`, and returns the set of
/// `(waiver line index, rule token)` pairs that actually suppressed
/// something — the ground truth R9 audits against.
fn apply_waivers(waivers: &[Option<Waiver>], out: &mut [Violation]) -> BTreeSet<(usize, String)> {
    let mut used = BTreeSet::new();
    for v in out.iter_mut() {
        if let Some((widx, token, reason)) = waiver_match(waivers, v.line, v.rule) {
            v.waived = Some(reason);
            used.insert((widx, token));
        }
    }
    used
}

/// Finds the waiver covering (`line`, `rule`), returning its line index,
/// the rule token that matched (the rule name or `"*"`), and the reason.
/// Inline waivers take precedence over a standalone line above.
fn waiver_match(
    waivers: &[Option<Waiver>],
    line: usize,
    rule: &str,
) -> Option<(usize, String, String)> {
    let covers = |w: &Waiver| {
        w.rules
            .iter()
            .find(|r| r.as_str() == rule || r.as_str() == "*")
            .cloned()
    };
    // Inline on the violating line (1-based -> 0-based).
    if let Some(Some(w)) = waivers.get(line - 1) {
        if let Some(token) = covers(w) {
            return Some((line - 1, token, w.reason.clone()));
        }
    }
    // Standalone comment on the line directly above.
    if line >= 2 {
        if let Some(Some(w)) = waivers.get(line - 2) {
            if w.standalone {
                if let Some(token) = covers(w) {
                    return Some((line - 2, token, w.reason.clone()));
                }
            }
        }
    }
    None
}

// ------------------------------------------------------------------ tokens

/// Splits a code line into identifier tokens and single-char punctuation.
fn tokens(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            let start = i;
            while i < bytes.len() && {
                let c = bytes[i] as char;
                c.is_ascii_alphanumeric() || c == '_'
            } {
                i += 1;
            }
            out.push(&code[start..i]);
        } else if c.is_whitespace() {
            i += 1;
        } else {
            out.push(&code[i..i + 1]);
            i += 1;
        }
    }
    out
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .map(|c| c.is_ascii_alphabetic() || c == '_')
        .unwrap_or(false)
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn check(crate_name: &str, src: &str) -> Vec<Violation> {
        check_file(crate_name, &scan(src))
    }

    fn check_kind(crate_name: &str, kind: TargetKind, src: &str) -> Vec<Violation> {
        let lines = scan(src);
        let symbols = FileSymbols::build(&lines);
        let index = WorkspaceIndex::default();
        check_target(&FileContext {
            crate_name,
            path: "",
            kind,
            lines: &lines,
            symbols: &symbols,
            index: &index,
        })
    }

    #[test]
    fn r1_flags_wall_clock_and_entropy() {
        let v = check(
            "serving",
            "use std::time::Instant;\nlet t = SystemTime::now();\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R1").count(), 2);
        let v = check("serving", "std::thread::sleep(d);\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R1").count(), 1);
        // Non-sim crates may use wall clocks.
        assert!(check("workloads", "use std::time::Instant;\n").is_empty());
    }

    #[test]
    fn r1_resolves_imported_bare_sleep() {
        let v = check("serving", "use std::thread::sleep;\nfn f() { sleep(d); }\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R1").count(), 1);
        // A local fn named sleep is not std::thread::sleep.
        let v = check("serving", "fn sleep() {}\nfn f() { sleep(); }\n");
        assert!(v.iter().all(|v| v.rule != "R1"));
    }

    #[test]
    fn r2_flags_hash_iteration_not_lookup() {
        let src = "struct S { m: HashMap<u64, u32> }\nimpl S { fn f(&self) -> usize { self.m.values().count() } }\n";
        let v = check("kv-cache", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R2").count(), 1);
        // Pure lookups are fine.
        let src = "struct S { m: HashMap<u64, u32> }\nimpl S { fn f(&self) -> bool { self.m.contains_key(&1) } }\n";
        assert!(check("kv-cache", src).iter().all(|v| v.rule != "R2"));
        // BTreeMap iteration is fine.
        let src = "struct S { m: BTreeMap<u64, u32> }\nimpl S { fn f(&self) -> usize { self.m.values().count() } }\n";
        assert!(check("kv-cache", src).iter().all(|v| v.rule != "R2"));
    }

    #[test]
    fn r2_covers_fx_hash_containers() {
        let src = "struct S { m: FxHashMap<u64, u64> }\nimpl S { fn f(&self) -> usize { self.m.iter().count() } }\n";
        let v = check("replica-fidelity", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R2").count(), 1);
        let src = "struct S { m: FxHashMap<u64, u64> }\nimpl S { fn f(&self) -> bool { self.m.contains_key(&1) } }\n";
        assert!(check("replica-fidelity", src)
            .iter()
            .all(|v| v.rule != "R2"));
        let src = "let seen = FxHashSet::default();\nfor h in &seen {\n}\n";
        let v = check("attn-kernel", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R2").count(), 1);
    }

    #[test]
    fn r2_sees_let_bindings_and_for_loops() {
        let src =
            "let mut counts = std::collections::HashMap::new();\nfor (k, v) in &counts {\n}\n";
        let v = check("cluster", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R2").count(), 1);
    }

    #[test]
    fn r2_ignores_vec_of_hashmap_outer_ident() {
        let src =
            "let covered: Vec<HashMap<u32, u32>> = Vec::new();\nlet n = covered.iter().count();\n";
        assert!(check("pat-core", src).iter().all(|v| v.rule != "R2"));
    }

    #[test]
    fn r3_flags_raw_time_casts_outside_sim_core() {
        let v = check("controller", "let x = event.t_ns as f64 / 1000.0;\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R3").count(), 1);
        assert!(check("sim-core", "let x = t_ns as f64;\n")
            .iter()
            .all(|v| v.rule != "R3"));
        // Non-time casts are untouched.
        assert!(check("controller", "let x = tokens as f64;\n")
            .iter()
            .all(|v| v.rule != "R3"));
    }

    #[test]
    fn r4_flags_unwrap_and_expect_outside_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); z.unwrap_or(3); }\n#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\n";
        let v = check("anything", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R4").count(), 2);
    }

    #[test]
    fn r5_requires_docs_on_pub_items() {
        let src = "/// Documented.\npub fn good() {}\n\npub fn bad() {}\n";
        let v = check("sim-core", src);
        let r5: Vec<_> = v.iter().filter(|v| v.rule == "R5").collect();
        assert_eq!(r5.len(), 1);
        assert_eq!(r5[0].line, 4);
        // Attributes between doc and item are fine.
        let src = "/// Doc.\n#[derive(Debug)]\npub struct S;\n";
        assert!(check("cluster", src).iter().all(|v| v.rule != "R5"));
        // Other crates are out of scope.
        assert!(check("serving", "pub fn bad() {}\n")
            .iter()
            .all(|v| v.rule != "R5"));
    }

    #[test]
    fn r6_flags_raw_thread_spawn_and_scope() {
        let v = check("cluster", "std::thread::spawn(|| {});\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R6").count(), 1);
        let v = check("controller", "std::thread::scope(|s| {});\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R6").count(), 1);
        // The blessed implementation itself lives in sim-core.
        assert!(check("sim-core", "std::thread::scope(|s| {});\n")
            .iter()
            .all(|v| v.rule != "R6"));
        // Non-sim crates may thread freely.
        assert!(check("workloads", "std::thread::spawn(|| {});\n")
            .iter()
            .all(|v| v.rule != "R6"));
        // Test code is exempt.
        let src = "#[cfg(test)]\nmod t { fn g() { std::thread::spawn(|| {}); } }\n";
        assert!(check("cluster", src).iter().all(|v| v.rule != "R6"));
        // `thread::sleep` is R1's, not R6's.
        let v = check("cluster", "std::thread::sleep(d);\n");
        assert!(v.iter().all(|v| v.rule != "R6"));
    }

    #[test]
    fn r6_resolves_imported_bare_spawn() {
        let v = check(
            "cluster",
            "use std::thread::spawn;\nfn f() { spawn(|| {}); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R6").count(), 1);
        // `sim_core::par`'s own entry points are not thread::spawn.
        let v = check(
            "cluster",
            "use sim_core::par::spawn;\nfn f() { spawn(|| {}); }\n",
        );
        assert!(v.iter().all(|v| v.rule != "R6"));
    }

    #[test]
    fn r7_flags_all_env_access_forms() {
        // Fully qualified.
        let v = check("bench", "fn f() { let x = std::env::var(\"PAT_X\"); }\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
        // Module import.
        let v = check(
            "workloads",
            "use std::env;\nfn f() { let x = env::var(\"PAT_X\"); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
        // Function import, including renames.
        let v = check(
            "serving",
            "use std::env::var;\nfn f() { let x = var(\"PAT_X\"); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
        // set_var / remove_var mutate hidden state and are equally banned.
        let v = check("bench", "fn f() { std::env::set_var(\"A\", \"1\"); }\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
    }

    #[test]
    fn r7_spares_unrelated_identifiers() {
        // A local fn named `var` is not std::env::var.
        let v = check("serving", "fn var() {}\nfn f() { var(); }\n");
        assert!(v.iter().all(|v| v.rule != "R7"));
        // A method call named `.vars(...)` has a receiver.
        let v = check("serving", "fn f(m: M) { m.vars(); }\n");
        assert!(v.iter().all(|v| v.rule != "R7"));
        // Another crate's env module is not std's.
        let v = check(
            "serving",
            "use config::env;\nfn f() { let x = env::var(\"A\"); }\n",
        );
        assert!(v.iter().all(|v| v.rule != "R7"));
        // env! / option_env! compile-time macros tokenize with a `!` and
        // never match the call pattern.
        let v = check(
            "serving",
            "fn f() { let d = env!(\"CARGO_MANIFEST_DIR\"); }\n",
        );
        assert!(v.iter().all(|v| v.rule != "R7"));
    }

    #[test]
    fn r7_applies_to_benches_and_test_code() {
        let v = check_kind(
            "bench",
            TargetKind::Bench,
            "fn main() { let s = std::env::var(\"PAT_BENCH_SMOKE\"); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
        // Test code gets no exemption: knobs have a set_override hook.
        let src = "#[cfg(test)]\nmod t { fn g() { std::env::var(\"X\").ok(); } }\n";
        let v = check("serving", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R7").count(), 1);
    }

    #[test]
    fn benches_skip_lib_only_rules() {
        let src = "fn main() { x.unwrap(); let t = std::time::Instant::now(); }\n";
        let v = check_kind("bench", TargetKind::Bench, src);
        assert!(v.is_empty(), "benches may panic and use wall clocks: {v:?}");
    }

    #[test]
    fn r8_flags_narrowing_and_float_casts() {
        let v = check("sim-gpu", "fn f(x: usize) -> u32 { x as u32 }\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R8").count(), 1);
        let v = check("pat-core", "fn f(x: usize) -> isize { x as isize }\n");
        assert_eq!(v.iter().filter(|v| v.rule == "R8").count(), 1);
        let v = check(
            "serving",
            "fn f(x: f64) -> usize { (x / 2.0).ceil() as usize }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "R8").count(), 1);
    }

    #[test]
    fn r8_spares_widening_sim_core_and_tests() {
        // Widening to u64/usize without a float method is fine.
        let v = check("sim-gpu", "fn f(x: u32) -> u64 { x as u64 }\n");
        assert!(v.iter().all(|v| v.rule != "R8"));
        // sim-core owns the blessed helpers.
        let v = check("sim-core", "fn f(x: usize) -> u32 { x as u32 }\n");
        assert!(v.iter().all(|v| v.rule != "R8"));
        // Test code is exempt.
        let src = "#[cfg(test)]\nmod t { fn g(x: usize) -> u32 { x as u32 } }\n";
        let v = check("sim-gpu", src);
        assert!(v.iter().all(|v| v.rule != "R8"));
        // Non-sim crates are out of scope.
        let v = check("workloads", "fn f(x: usize) -> u32 { x as u32 }\n");
        assert!(v.iter().all(|v| v.rule != "R8"));
    }

    #[test]
    fn r9_flags_stale_waivers_and_spares_live_ones() {
        // Live waiver: suppresses a real R3 hit — no R9.
        let src = "let x = t_ns as f64; // simlint: allow(R3) -- metric egress\n";
        let v = check("controller", src);
        assert!(v.iter().all(|v| v.rule != "R9"));
        // Stale waiver: nothing fires on the line.
        let src = "let x = tokens + 1; // simlint: allow(R3) -- metric egress\n";
        let v = check("controller", src);
        let r9: Vec<_> = v.iter().filter(|v| v.rule == "R9").collect();
        assert_eq!(r9.len(), 1);
        assert_eq!(r9[0].line, 1);
        // Standalone stale waiver above a clean line.
        let src = "// simlint: allow(R2) -- old reason\nlet x = 1;\n";
        let v = check("cluster", src);
        assert_eq!(v.iter().filter(|v| v.rule == "R9").count(), 1);
    }

    #[test]
    fn r9_audits_each_rule_in_a_multi_rule_waiver() {
        // R3 fires, R2 does not: exactly the R2 token is stale.
        let src = "let x = t_ns as f64; // simlint: allow(R2, R3) -- mixed\n";
        let v = check("controller", src);
        let r9: Vec<_> = v.iter().filter(|v| v.rule == "R9").collect();
        assert_eq!(r9.len(), 1);
        assert!(r9[0].message.contains("allow(R2)"));
    }

    #[test]
    fn waivers_cover_same_line_and_line_above() {
        let src = "let x = t_ns as f64; // simlint: allow(R3) -- metric egress\n";
        let v = check("controller", src);
        assert!(v[0].waived.is_some());
        let src = "// simlint: allow(R3) -- metric egress\nlet x = t_ns as f64;\n";
        let v = check("controller", src);
        assert!(v[0].waived.is_some());
        // A waiver for a different rule does not apply (and is itself stale).
        let src = "let x = t_ns as f64; // simlint: allow(R2) -- wrong rule\n";
        let v = check("controller", src);
        let r3 = v.iter().find(|v| v.rule == "R3").expect("R3 fires");
        assert!(r3.waived.is_none());
        assert!(v.iter().any(|v| v.rule == "R9"));
        // Missing reason: not honored.
        let src = "let x = t_ns as f64; // simlint: allow(R3)\n";
        let v = check("controller", src);
        assert!(v[0].waived.is_none());
    }
}
