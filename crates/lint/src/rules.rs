//! The repo-specific rule families.
//!
//! Every rule operates on the token stream produced by [`crate::lexer`], so
//! occurrences inside strings, comments, and doc text never count. Rules are
//! deliberately approximate — they are tripwires for policy drift, not a
//! type checker — and each documents its approximation. Findings can be
//! suppressed per line with `// lint:allow(rule-name) -- reason`
//! (see [`crate::allow`]); the justification text is mandatory.

use crate::lexer::{Lexed, Token, TokenKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Rule name (kebab-case, as used in `lint:allow`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Every rule name, for `--list-rules` and `lint:allow` validation. The
/// single-file token rules come first, the cross-file flow rules
/// ([`crate::flow`]) last.
pub const ALL_RULES: &[&str] = &[
    "thread-rng",
    "entropy-source",
    "std-sync-lock",
    "sleep-in-async",
    "hash-iter-ordered",
    "raw-atomic-stats",
    "snapshot-clone",
    "pii-escape",
    "panic-in-hot-path",
    "alloc-in-hot-path",
    "determinism-flow",
];

/// Crates whose output must be a pure function of their inputs: the
/// simulation and analysis layers. The wire crates (`dns`, `dhcp`, `scan`,
/// `bench`) may seed from entropy *by default* as real resolvers do, but
/// must remain seedable.
const SIM_CRATES: &[&str] = &["model", "netsim", "data", "core", "ipam", "lab"];

/// Crates whose snapshot/report output must not depend on hash iteration
/// order.
const ORDERED_OUTPUT_CRATES: &[&str] = &["data", "core", "lab"];

/// Macros whose arguments end up as formatted text (stdout, strings, panics).
pub(crate) const FORMAT_SINKS: &[&str] = &[
    "println",
    "print",
    "eprintln",
    "eprint",
    "format",
    "format_args",
    "write",
    "writeln",
    "panic",
    "todo",
    "unimplemented",
];

/// Iterator-producing methods on hash containers.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Methods that appear inside a `for` body and preserve encounter order into
/// an output artefact (string or vector under construction).
const ORDERED_BODY_SINKS: &[&str] = &["push", "push_str", "write_str", "insert_str"];

/// Where a file lives, as far as rule scoping is concerned.
#[derive(Debug, Clone)]
pub struct FileOrigin {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// `Some("dns")` for `crates/dns/...`, `None` for shims.
    pub crate_name: Option<String>,
}

impl FileOrigin {
    /// Derive the origin from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileOrigin {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        FileOrigin {
            rel_path: rel_path.to_string(),
            crate_name,
        }
    }

    fn in_crate(&self, names: &[&str]) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| names.contains(&c))
    }

    pub(crate) fn is_crate(&self) -> bool {
        self.crate_name.is_some()
    }
}

/// Run every rule over one lexed file.
pub fn check_file(origin: &FileOrigin, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let test_ranges = test_line_ranges(tokens);
    let sink_spans = format_sink_spans(tokens);
    let mut out = Vec::new();

    rule_thread_rng(origin, tokens, &mut out);
    rule_entropy_source(origin, tokens, &mut out);
    rule_std_sync_lock(origin, tokens, &mut out);
    rule_sleep_in_async(origin, tokens, &mut out);
    rule_hash_iter_ordered(origin, tokens, &test_ranges, &sink_spans, &mut out);
    rule_raw_atomic_stats(origin, tokens, &mut out);
    rule_snapshot_clone(origin, tokens, &test_ranges, &mut out);

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

pub(crate) fn finding(
    origin: &FileOrigin,
    at: &Token,
    rule: &'static str,
    message: String,
) -> Finding {
    Finding {
        file: origin.rel_path.clone(),
        line: at.line,
        col: at.col,
        rule,
        message,
    }
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// `thread_rng` is banned everywhere: it seeds from wall-clock entropy on
/// every call and is the single most common way nondeterminism sneaks into a
/// "deterministic" system. Use a seeded `SmallRng` (constructors take an
/// optional seed; wire-path defaults may use `SmallRng::from_entropy()`).
fn rule_thread_rng(origin: &FileOrigin, tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if t.is_ident("thread_rng") {
            out.push(finding(
                origin,
                t,
                "thread-rng",
                "thread_rng() re-seeds from wall-clock entropy per call; use a per-component \
                 seeded SmallRng (seed knob + SmallRng::from_entropy() default on wire paths)"
                    .to_string(),
            ));
        }
    }
}

/// In the simulation/analysis crates, *any* entropy source breaks
/// reproducibility: same seed must mean same tables and figures.
fn rule_entropy_source(origin: &FileOrigin, tokens: &[Token], out: &mut Vec<Finding>) {
    if !origin.in_crate(SIM_CRATES) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("from_entropy") {
            out.push(finding(
                origin,
                t,
                "entropy-source",
                "from_entropy() in a simulation/analysis crate; thread results through the \
                 component's seed instead"
                    .to_string(),
            ));
        }
        if t.is_ident("SystemTime") && match_path(tokens, i + 1, &["now"]) {
            out.push(finding(
                origin,
                t,
                "entropy-source",
                "SystemTime::now() in a simulation/analysis crate; use the simulation clock \
                 (SimTime) so runs replay identically"
                    .to_string(),
            ));
        }
    }
}

/// Match `:: seg1 :: seg2 …` starting at `i`.
pub(crate) fn match_path(tokens: &[Token], i: usize, segments: &[&str]) -> bool {
    let mut i = i;
    for seg in segments {
        if !(tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident(seg)))
        {
            return false;
        }
        i += 3;
    }
    true
}

// ---------------------------------------------------------------------------
// concurrency hygiene
// ---------------------------------------------------------------------------

/// The workspace lock policy is `parking_lot`: non-poisoning guards, no
/// `.unwrap()` ceremony at every call site, and no way for one panicked
/// worker to wedge every later `lock()`. `std::sync` locks are flagged in
/// all `crates/*` code (shims are exempt — they are the layer the policy
/// primitives are built from).
fn rule_std_sync_lock(origin: &FileOrigin, tokens: &[Token], out: &mut Vec<Finding>) {
    if !origin.is_crate() {
        return;
    }
    const BANNED: &[&str] = &["Mutex", "RwLock", "Condvar"];
    let msg = |what: &str| {
        format!(
            "std::sync::{what} where parking_lot is policy; use parking_lot::{what} \
             (non-poisoning, no .unwrap() on lock)"
        )
    };
    for (i, t) in tokens.iter().enumerate() {
        // `sync :: Mutex` — catches `std::sync::Mutex` and bare `sync::Mutex`
        // after a `use std::sync;`.
        if t.is_ident("sync") {
            for what in BANNED {
                if match_path(tokens, i + 1, &[what]) {
                    out.push(finding(origin, t, "std-sync-lock", msg(what)));
                }
            }
            // `use std::sync::{Arc, Mutex}` — scan the brace group.
            if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 3).is_some_and(|t| t.is_punct('{'))
            {
                if let Some(close) = matching_delim(tokens, i + 3, '{', '}') {
                    for item in &tokens[i + 4..close] {
                        if BANNED.iter().any(|w| item.is_ident(w)) {
                            out.push(finding(
                                origin,
                                item,
                                "std-sync-lock",
                                msg(&item.text),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// `std::thread::sleep` inside `async fn` / `async` blocks stalls the whole
/// executor thread (the shim runtime polls cooperatively); use
/// `tokio::time::sleep` so other futures keep making progress.
fn rule_sleep_in_async(origin: &FileOrigin, tokens: &[Token], out: &mut Vec<Finding>) {
    let mut async_spans: Vec<(usize, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("async") {
            continue;
        }
        // `async fn name(…) … {`, `async {`, `async move {`.
        if let Some(open) = next_body_open(tokens, i + 1) {
            if let Some(close) = matching_delim(tokens, open, '{', '}') {
                async_spans.push((open, close));
            }
        }
    }
    for (open, close) in async_spans {
        for j in open..close {
            if tokens[j].is_ident("thread") && match_path(tokens, j + 1, &["sleep"]) {
                out.push(finding(
                    origin,
                    &tokens[j],
                    "sleep-in-async",
                    "thread::sleep inside async code blocks the executor thread; use \
                     tokio::time::sleep"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hash iteration order
// ---------------------------------------------------------------------------

/// In `rdns-data` / `rdns-core`, snapshot and report output must be
/// byte-identical across runs, so HashMap/HashSet iteration must never feed
/// an order-sensitive artefact. The rule tracks identifiers bound to hash
/// types in the file (let bindings, fn params, struct fields) and flags:
///
/// * iteration chains off such a binding that end in `.collect::<Vec…>` or
///   `.collect::<String…>` (or a `let _: Vec<…> = ….collect()` ascription)
///   **unless** the very next statement sorts the collected binding,
/// * iteration chains placed directly inside a formatting macro,
/// * `for` loops over such a binding whose body pushes into a vector or
///   builds a string.
///
/// Counting, summing, set/map re-insertion and similar order-insensitive
/// consumers pass freely. Genuinely order-free uses the heuristic cannot see
/// (e.g. rayon reductions) take a justified `lint:allow`.
fn rule_hash_iter_ordered(
    origin: &FileOrigin,
    tokens: &[Token],
    test_ranges: &[(u32, u32)],
    sink_spans: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    if !origin.in_crate(ORDERED_OUTPUT_CRATES) {
        return;
    }
    let hash_idents = collect_hash_idents(tokens);
    if hash_idents.is_empty() {
        return;
    }
    let flagged = |line: u32| in_ranges(test_ranges, line);

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_idents.contains(&t.text) || flagged(t.line) {
            continue;
        }
        // Chain form: `x.iter()…`, `x.keys()…`, …
        let is_chain_start = tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|n| HASH_ITER_METHODS.iter().any(|m| n.is_ident(m)))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('));
        if is_chain_start {
            if let Some(f) = check_hash_chain(origin, tokens, i, sink_spans) {
                out.push(f);
            }
            continue;
        }
        // `for pat in …x… {` — x appearing in the loop-head expression.
        // (Handled when scanning the `for` token below.)
    }

    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("for") || flagged(t.line) {
            continue;
        }
        // Find `in` at depth 0 within a short window (skipping the pattern).
        let Some(in_idx) = find_at_depth(tokens, i + 1, i + 40, |tk| tk.is_ident("in")) else {
            continue;
        };
        // Loop head runs to the `{` at depth 0.
        let Some(open) = find_at_depth(tokens, in_idx + 1, in_idx + 60, |tk| tk.is_punct('{'))
        else {
            continue;
        };
        let head_has_hash = tokens[in_idx + 1..open]
            .iter()
            .any(|tk| tk.kind == TokenKind::Ident && hash_idents.contains(&tk.text));
        if !head_has_hash {
            continue;
        }
        let Some(close) = matching_delim(tokens, open, '{', '}') else {
            continue;
        };
        if body_has_ordered_sink(&tokens[open + 1..close]) {
            out.push(finding(
                origin,
                t,
                "hash-iter-ordered",
                "for-loop over a HashMap/HashSet feeds an ordered artefact (push/format); \
                 iterate a BTree container or sort first"
                    .to_string(),
            ));
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: `name: …HashMap<…`
/// ascriptions (params, fields, lets) and `let name = HashMap::…` inits.
fn collect_hash_idents(tokens: &[Token]) -> Vec<String> {
    let mut set: Vec<String> = Vec::new();
    let mut add = |s: &str| {
        if !set.iter().any(|x| x == s) {
            set.push(s.to_string());
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name :` (not `::`) followed shortly by HashMap/HashSet.
        if tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            for tk in tokens.iter().take((i + 10).min(tokens.len())).skip(i + 2) {
                let filler = tk.is_punct('&')
                    || tk.is_punct(':')
                    || tk.kind == TokenKind::Lifetime
                    || tk.is_ident("mut")
                    || tk.is_ident("std")
                    || tk.is_ident("collections");
                if tk.is_ident("HashMap") || tk.is_ident("HashSet") {
                    add(&t.text);
                    break;
                }
                if !filler {
                    break;
                }
            }
        }
        // `let [mut] name … = [std::collections::]Hash{Map,Set} ::`.
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            // Find `=` at depth 0 in a short window.
            if let Some(eq) = find_at_depth(tokens, j + 1, j + 25, |tk| tk.is_punct('=')) {
                for k in eq + 1..(eq + 6).min(tokens.len()) {
                    if (tokens[k].is_ident("HashMap") || tokens[k].is_ident("HashSet"))
                        && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    {
                        add(&name.text);
                        break;
                    }
                }
            }
        }
    }
    set
}

/// Inspect the statement containing a hash-iteration chain starting at
/// token `i` and decide whether it feeds an ordered artefact.
fn check_hash_chain(
    origin: &FileOrigin,
    tokens: &[Token],
    i: usize,
    sink_spans: &[(usize, usize)],
) -> Option<Finding> {
    // Inside a formatting macro: always ordered output.
    if sink_spans.iter().any(|&(s, e)| i > s && i < e) {
        return Some(finding(
            origin,
            &tokens[i],
            "hash-iter-ordered",
            format!(
                "`{}` (a hash container) iterated directly inside a formatting macro; \
                 its order changes run to run",
                tokens[i].text
            ),
        ));
    }
    let stmt_end = statement_end(tokens, i);
    let window = &tokens[i..stmt_end];
    // Does the chain collect into an ordered container?
    let mut collects_ordered = false;
    for (k, tk) in window.iter().enumerate() {
        if tk.is_ident("collect") {
            // `.collect::<Vec…>` / `.collect::<String…>`.
            if window.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && window.get(k + 2).is_some_and(|n| n.is_punct(':'))
                && window.get(k + 3).is_some_and(|n| n.is_punct('<'))
                && window
                    .get(k + 4)
                    .is_some_and(|n| n.is_ident("Vec") || n.is_ident("String"))
            {
                collects_ordered = true;
            }
            // Bare `.collect()` with an ordered `let` ascription.
            if window.get(k + 1).is_some_and(|n| n.is_punct('(')) {
                if let Some((_, ty_ordered)) = let_binder(tokens, i) {
                    collects_ordered = collects_ordered || ty_ordered;
                }
            }
        }
        // `.sorted()`-style adapters or an in-chain sort make it fine.
        if tk.kind == TokenKind::Ident && tk.text.starts_with("sort") {
            return None;
        }
    }
    if !collects_ordered {
        return None;
    }
    // Sorted immediately after collection? `let rows … = ….collect…; rows.sort…`
    if let Some((binder, _)) = let_binder(tokens, i) {
        let after = &tokens[stmt_end..(stmt_end + 5).min(tokens.len())];
        if after.len() >= 3
            && after[0].is_punct(';')
            && after[1].is_ident(&binder)
            && after[2].is_punct('.')
            && tokens
                .get(stmt_end + 3)
                .is_some_and(|n| n.text.starts_with("sort"))
        {
            return None;
        }
    }
    Some(finding(
        origin,
        &tokens[i],
        "hash-iter-ordered",
        format!(
            "`{}` (a hash container) is collected into an ordered container without a \
             sort; iteration order changes run to run",
            tokens[i].text
        ),
    ))
}

/// If the statement containing token `i` starts with `let [mut] name`,
/// return the name and whether its ascription names `Vec`/`String`.
fn let_binder(tokens: &[Token], i: usize) -> Option<(String, bool)> {
    // Walk back to the statement start.
    let mut depth = 0i32;
    let mut start = 0usize;
    for j in (0..i).rev() {
        let t = &tokens[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if depth == 0 {
                start = j + 1;
                break;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            start = j + 1;
            break;
        }
    }
    let mut j = start;
    if !tokens.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    j += 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = tokens.get(j).filter(|t| t.kind == TokenKind::Ident)?;
    let ty_ordered = tokens[j..i]
        .iter()
        .any(|t| t.is_ident("Vec") || t.is_ident("String"));
    Some((name.text.clone(), ty_ordered))
}

fn body_has_ordered_sink(body: &[Token]) -> bool {
    for (k, t) in body.iter().enumerate() {
        if ORDERED_BODY_SINKS.iter().any(|m| t.is_ident(m))
            && k > 0
            && body[k - 1].is_punct('.')
            && body.get(k + 1).is_some_and(|n| n.is_punct('('))
        {
            return true;
        }
        if FORMAT_SINKS.iter().any(|m| t.is_ident(m))
            && body.get(k + 1).is_some_and(|n| n.is_punct('!'))
        {
            return true;
        }
    }
    false
}

/// Identifiers interpolated in a format string: `{name}`, `{name:?}`,
/// `{name:width$}`. `{{` escapes and positional `{}` / `{0}` are skipped.
pub(crate) fn interpolated_idents(fmt: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = fmt.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped brace
            continue;
        }
        let mut j = i + 1;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let head = &fmt[i + 1..j];
        if !head.is_empty()
            && head
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !head.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            out.push(head.to_string());
        }
        i = j + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// telemetry
// ---------------------------------------------------------------------------

/// Counters belong in the telemetry registry, not in hand-rolled
/// `AtomicU64` fields: registry-backed cells get naming, exposition, and
/// the determinism contract for free, and stay aggregatable across
/// components. The rule flags the `AtomicU64` type name anywhere in
/// `crates/*` outside `crates/telemetry` (which implements the
/// primitives). Atomics that are genuinely not statistics — sequence
/// numbers, one-shot flags wider than a bool — take a justified
/// `lint:allow(raw-atomic-stats)`.
fn rule_raw_atomic_stats(origin: &FileOrigin, tokens: &[Token], out: &mut Vec<Finding>) {
    if !origin.is_crate() || origin.crate_name.as_deref() == Some("telemetry") {
        return;
    }
    for t in tokens {
        if t.is_ident("AtomicU64") {
            out.push(finding(
                origin,
                t,
                "raw-atomic-stats",
                "hand-rolled AtomicU64 counter outside crates/telemetry; use a registry-backed \
                 rdns_telemetry::Counter (named, rendered, determinism-classified) instead"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot memory discipline
// ---------------------------------------------------------------------------

/// Types whose clones copy a whole day (or window) of PTR records: one day
/// in row form, and the two whole-window layouts in `crates/data`. Analysis
/// code should stream, materialize lazily, or borrow — never duplicate a day
/// or a window.
const SNAPSHOT_TYPES: &[&str] = &["DailySnapshot", "DeltaSeries", "ColumnarSeries"];

/// A cloned `DailySnapshot` copies every record in the day, and a cloned
/// `DeltaSeries`/`ColumnarSeries` every day in the window — exactly the
/// duplication the delta and columnar representations exist to avoid. The
/// rule tracks identifiers bound to those types (ascriptions, `Type::…`
/// inits, and `Snapshotter…take(…)` results) and flags `.clone()` on them
/// outside `crates/data` (the representation layer itself) and outside test
/// code. A clone that genuinely must own a second dataset takes a justified
/// `lint:allow(snapshot-clone)`.
fn rule_snapshot_clone(
    origin: &FileOrigin,
    tokens: &[Token],
    test_ranges: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    if !origin.is_crate() || origin.crate_name.as_deref() == Some("data") {
        return;
    }
    let snapshot_idents = collect_snapshot_idents(tokens);
    if snapshot_idents.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !snapshot_idents.contains(&t.text)
            || in_ranges(test_ranges, t.line)
        {
            continue;
        }
        if tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("clone"))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                origin,
                t,
                "snapshot-clone",
                format!(
                    "`{}` (a snapshot type) is cloned outside crates/data, copying a whole \
                     day/window of records; stream via DeltaSeries/for_each_day, borrow, or \
                     justify with lint:allow(snapshot-clone)",
                    t.text
                ),
            ));
        }
    }
}

/// Identifiers bound to snapshot types in this file: `name: …DailySnapshot`
/// ascriptions (params, fields, lets), `let name = DeltaSeries::…` inits,
/// and `let name = <snapper>.take(…)` where `<snapper>` is itself bound to a
/// [`Snapshotter`].
fn collect_snapshot_idents(tokens: &[Token]) -> Vec<String> {
    let mut set: Vec<String> = Vec::new();
    let mut snappers: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name :` (not `::`) followed shortly by a snapshot(ter) type.
        if tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            for tk in tokens.iter().take((i + 10).min(tokens.len())).skip(i + 2) {
                let filler = tk.is_punct('&')
                    || tk.is_punct(':')
                    || tk.kind == TokenKind::Lifetime
                    || tk.is_ident("mut")
                    || tk.is_ident("rdns_data")
                    || tk.is_ident("snapshot");
                if SNAPSHOT_TYPES.iter().any(|ty| tk.is_ident(ty)) {
                    push_unique(&mut set, &t.text);
                    break;
                }
                if tk.is_ident("Snapshotter") {
                    push_unique(&mut snappers, &t.text);
                    break;
                }
                if !filler {
                    break;
                }
            }
        }
        // `let [mut] name … = [path ::]Type ::` inits.
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|n| n.kind == TokenKind::Ident) else {
                continue;
            };
            let Some(eq) = find_at_depth(tokens, j + 1, j + 25, |tk| tk.is_punct('=')) else {
                continue;
            };
            for k in eq + 1..(eq + 6).min(tokens.len()) {
                let next_is_path = tokens.get(k + 1).is_some_and(|n| n.is_punct(':'));
                if SNAPSHOT_TYPES.iter().any(|ty| tokens[k].is_ident(ty)) && next_is_path {
                    push_unique(&mut set, &name.text);
                    break;
                }
                if tokens[k].is_ident("Snapshotter") && next_is_path {
                    push_unique(&mut snappers, &name.text);
                    break;
                }
                // `let snap = snapper.take(day);` — a Snapshotter's take()
                // returns a DailySnapshot.
                if tokens[k].kind == TokenKind::Ident
                    && snappers.contains(&tokens[k].text)
                    && tokens.get(k + 1).is_some_and(|n| n.is_punct('.'))
                    && tokens.get(k + 2).is_some_and(|n| n.is_ident("take"))
                    && tokens.get(k + 3).is_some_and(|n| n.is_punct('('))
                {
                    push_unique(&mut set, &name.text);
                    break;
                }
            }
        }
    }
    set
}

fn push_unique(set: &mut Vec<String>, s: &str) {
    if !set.iter().any(|x| x == s) {
        set.push(s.to_string());
    }
}

// ---------------------------------------------------------------------------
// shared token-walk helpers
// ---------------------------------------------------------------------------

/// Token-index spans (inclusive of delimiters) of formatting-macro calls.
pub(crate) fn format_sink_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !FORMAT_SINKS.iter().any(|m| t.is_ident(m)) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            continue;
        }
        let Some(open) = tokens.get(i + 2) else {
            continue;
        };
        let close = match open {
            o if o.is_punct('(') => matching_delim(tokens, i + 2, '(', ')'),
            o if o.is_punct('[') => matching_delim(tokens, i + 2, '[', ']'),
            o if o.is_punct('{') => matching_delim(tokens, i + 2, '{', '}'),
            _ => None,
        };
        if let Some(close) = close {
            spans.push((i, close));
        }
    }
    spans
}

/// Line ranges belonging to test code: bodies introduced by attributes
/// containing the `test` ident (`#[test]`, `#[cfg(test)]`,
/// `#[tokio::test]`), excluding `cfg(not(test))`.
pub(crate) fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let Some(close) = matching_delim(tokens, i + 1, '[', ']') else {
            i += 1;
            continue;
        };
        let attr = &tokens[i + 2..close];
        let is_test = attr.iter().any(|t| t.is_ident("test"))
            && !attr.iter().any(|t| t.is_ident("not"));
        if !is_test {
            i = close + 1;
            continue;
        }
        if let Some(open) = next_body_open(tokens, close + 1) {
            if let Some(body_close) = matching_delim(tokens, open, '{', '}') {
                ranges.push((tokens[i].line, tokens[body_close].line));
                i = close + 1;
                continue;
            }
        }
        i = close + 1;
    }
    ranges
}

pub(crate) fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(s, e)| line >= s && line <= e)
}

/// From `start`, find the `{` that opens the next item body, skipping over
/// further attributes and signature tokens. Stops (returning `None`) at a
/// `;` at depth 0 — items like `#[cfg(test)] use foo;` have no body.
pub(crate) fn next_body_open(tokens: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            i = matching_delim(tokens, i + 1, '[', ']')? + 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(i);
        } else if depth == 0 && t.is_punct(';') {
            return None;
        }
        i += 1;
    }
    None
}

/// Index of the closing delimiter matching the opener at `open_idx`.
pub(crate) fn matching_delim(
    tokens: &[Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in tokens[open_idx..].iter().enumerate() {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(open_idx + off);
            }
        }
    }
    None
}

/// First index in `[start, limit)` matching `pred` at bracket depth 0.
pub(crate) fn find_at_depth<F: Fn(&Token) -> bool>(
    tokens: &[Token],
    start: usize,
    limit: usize,
    pred: F,
) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().take(limit).skip(start) {
        if depth == 0 && pred(t) {
            return Some(i);
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        }
    }
    None
}

/// Index just past the statement containing token `i` (the `;` at relative
/// depth 0, or the end of an enclosing delimiter group).
pub(crate) fn statement_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if depth == 0 && t.is_punct(';') {
            return j;
        }
    }
    tokens.len()
}
