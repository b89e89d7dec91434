//! pcmap-analyze: semantic passes over the shallow AST (DESIGN.md §15).
//!
//! Where `pcmap-lint` bans *tokens*, this module checks *contracts*:
//!
//! 1. **missed-wake** — every type exposing a `next_tick()` horizon must
//!    read (directly, or through the cache-refresh methods that write
//!    what `next_tick()` reads) every field its mutator roots
//!    (`step`/`schedule`/`resolve`) both write *and* consult. Readiness
//!    state outside the horizon can change without rescheduling a wake,
//!    and the run loop then skips a cycle where the component had work
//!    (DESIGN.md §14).
//! 2. **merge-completeness** — every snapshot struct with a
//!    `merge(&mut self, other)` must touch every declared field in both
//!    `merge()` and its `to_json()` export; a dropped field loses data
//!    exactly and only at `--jobs > 1` (DESIGN.md §9).
//! 3. **nondet-taint** — within-crate interprocedural propagation from
//!    wall-clock / env / OS-entropy sources, catching values laundered
//!    through helper fns that the token-level `wall-clock` ban cannot
//!    see.
//! 4. **undocumented-unsafe** — every `unsafe` occurrence needs a
//!    `// SAFETY:` comment on the same line or directly above.
//!
//! All passes are *shallow by design*: no type inference, no trait
//! resolution, no control flow. They over-approximate (any textual read
//! counts) and rely on reasoned `pcmap-lint: allow(...)` waivers for
//! the residue — which the dead-allow pass then keeps honest.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::ast::{self, FnDef, Item, StructDef};
use crate::lexer::{self, LineView};
use crate::rules::{self, CrateScope, Diagnostic, Rule};
use crate::suppress::DirectiveSet;
use crate::Report;

/// Method names treated as mutator roots for the missed-wake pass: the
/// entry points through which the run loop drives a component.
const MUTATOR_ROOTS: [&str; 3] = ["step", "schedule", "resolve"];

/// One loaded source file plus everything the passes need from it.
struct SrcFile {
    path: String,
    raw: String,
    lines: Vec<LineView>,
    items: Vec<Item>,
    crate_name: String,
    scope: CrateScope,
    /// Integration-test code (`tests/` dirs): token rules still apply,
    /// but the wake/merge/taint passes skip it.
    is_test: bool,
}

fn crate_of(rel: &str) -> String {
    let mut comps = rel.split('/');
    if comps.next() == Some("crates") {
        if let Some(k) = comps.next() {
            return k.to_owned();
        }
    }
    "pcmap".to_owned()
}

fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

fn load(path: String, raw: String, crate_name: String, scope: CrateScope) -> SrcFile {
    let lines = lexer::strip(&raw);
    let items = ast::parse(&lines);
    let is_test = is_test_path(&path);
    SrcFile {
        path,
        raw,
        lines,
        items,
        crate_name,
        scope,
        is_test,
    }
}

/// Runs the full analysis (token rules + semantic passes + dead-waiver
/// detection) over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            crate::collect_rs(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::new();
    let files_scanned = paths.len();
    for path in &paths {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let scope = crate::scope_for(rel);
        if scope.rules().is_empty() && scope.passes().is_empty() {
            continue;
        }
        let raw = fs::read_to_string(path)?;
        let crate_name = crate_of(&rel_str);
        files.push(load(rel_str, raw, crate_name, scope));
    }
    let diagnostics = analyze_files(files);
    Ok(Report {
        tool: "pcmap-analyze",
        version: 2,
        files_scanned,
        diagnostics,
    })
}

/// Analyzes a set of in-memory sources as one crate (fixture-test entry
/// point). `files` is `(path, source)`; all files get `scope`.
pub fn analyze_sources(
    crate_name: &str,
    files: &[(&str, &str)],
    scope: CrateScope,
) -> Vec<Diagnostic> {
    let loaded = files
        .iter()
        .map(|(p, s)| {
            load(
                (*p).to_owned(),
                (*s).to_owned(),
                crate_name.to_owned(),
                scope,
            )
        })
        .collect();
    analyze_files(loaded)
}

/// The shared pipeline: token rules, the four passes, suppression
/// application, and dead-waiver detection, in that order.
fn analyze_files(files: Vec<SrcFile>) -> Vec<Diagnostic> {
    let mut sets: Vec<DirectiveSet> = files
        .iter()
        .map(|f| DirectiveSet::parse(&f.path, &f.raw, &f.lines))
        .collect();

    let ws = Workspace::build(&files);
    let mut raw_diags: Vec<Diagnostic> = Vec::new();

    for f in &files {
        raw_diags.extend(rules::content_diags(&f.path, &f.raw, &f.lines, f.scope));
        if f.scope.passes().contains(&Rule::UndocumentedUnsafe) {
            raw_diags.extend(undocumented_unsafe(f));
        }
    }
    raw_diags.extend(ws.missed_wake());
    raw_diags.extend(ws.merge_completeness());
    raw_diags.extend(ws.nondet_taint(&mut sets));

    // Per-file: filter through the directives (marking them used), then
    // surface malformed and dead ones. Cross-file passes anchor their
    // diagnostics at declaration sites, so grouping is by the
    // diagnostic's own path, not the pass's entry file.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw_diags {
        by_file.entry(d.path.clone()).or_default().push(d);
    }

    let mut out: Vec<Diagnostic> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let mine = by_file.remove(&f.path).unwrap_or_default();
        let mut kept = sets[i].apply(mine);
        if f.scope.rules().contains(&Rule::BadSuppression) {
            kept.append(&mut sets[i].bad);
        }
        if f.scope.passes().contains(&Rule::DeadAllow) {
            kept.extend(sets[i].dead(&f.path, &f.raw));
        }
        out.extend(kept);
    }
    for (_, mut rest) in by_file {
        out.append(&mut rest);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message) == (&b.path, b.line, b.rule, &b.message)
    });
    out
}

/// A field path relative to some `self` type, e.g. `["core", "wake"]`.
type FieldPath = Vec<String>;

/// Interprocedural read/write summary of one method, as `self`-relative
/// field paths.
#[derive(Debug, Default, Clone)]
struct Summary {
    reads: BTreeSet<FieldPath>,
    writes: BTreeSet<FieldPath>,
}

impl Summary {
    fn merge(&mut self, other: &Summary) {
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
    }
}

fn prefixed(prefix: &[String], rest: &[String]) -> FieldPath {
    prefix.iter().chain(rest.iter()).cloned().collect()
}

/// Whether one path is a prefix of the other (either direction): the
/// two touch overlapping state.
fn intersects(a: &[String], b: &[String]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n]
}

/// Cross-file symbol table plus the summary engine.
struct Workspace<'a> {
    files: &'a [SrcFile],
    /// struct name → occurrences (file idx, item idx), workspace-wide.
    structs: BTreeMap<&'a str, Vec<(usize, usize)>>,
    /// (type, method) → occurrences (file idx, fn ref).
    methods: BTreeMap<(&'a str, &'a str), Vec<(usize, &'a FnDef)>>,
    /// type → its method names (for the cache-writer expansion).
    type_methods: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// (crate, free fn name) → occurrences.
    free_fns: BTreeMap<(&'a str, &'a str), Vec<(usize, &'a FnDef)>>,
}

impl<'a> Workspace<'a> {
    fn build(files: &'a [SrcFile]) -> Self {
        let mut ws = Workspace {
            files,
            structs: BTreeMap::new(),
            methods: BTreeMap::new(),
            type_methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            for (ii, item) in f.items.iter().enumerate() {
                match item {
                    Item::Struct(s) if !s.test_only => {
                        ws.structs.entry(&s.name).or_default().push((fi, ii));
                    }
                    Item::Impl(im) if !im.test_only => {
                        for func in &im.fns {
                            if func.test_only {
                                continue;
                            }
                            ws.methods
                                .entry((&im.ty, &func.name))
                                .or_default()
                                .push((fi, func));
                            ws.type_methods
                                .entry(&im.ty)
                                .or_default()
                                .insert(&func.name);
                        }
                    }
                    Item::Fn(func) if !func.test_only => {
                        ws.free_fns
                            .entry((&f.crate_name, &func.name))
                            .or_default()
                            .push((fi, func));
                    }
                    _ => {}
                }
            }
        }
        ws
    }

    fn struct_def(&self, name: &str) -> Option<(usize, &'a StructDef)> {
        let occ = self.structs.get(name)?.first()?;
        match &self.files[occ.0].items[occ.1] {
            Item::Struct(s) => Some((occ.0, s)),
            _ => None,
        }
    }

    /// Resolves the type of `ty.path[0].path[1]...` through declared
    /// field types; `None` when any hop leaves the workspace (std
    /// types, tuple indices, generics we cannot see through).
    fn field_type(&self, ty: &str, path: &[String]) -> Option<String> {
        let mut cur = ty.to_owned();
        for seg in path {
            let (_, s) = self.struct_def(&cur)?;
            let field = s.fields.iter().find(|f| &f.name == seg)?;
            cur = field
                .ty_idents
                .iter()
                .find(|id| self.structs.contains_key(id.as_str()))?
                .clone();
        }
        Some(cur)
    }

    /// Deepest resolvable field declaration along `ty.path...`:
    /// `(file idx, 1-based line, dotted name)`.
    fn field_decl(&self, ty: &str, path: &[String]) -> Option<(usize, usize, String)> {
        let mut cur = ty.to_owned();
        let mut best = None;
        let mut shown = Vec::new();
        for seg in path {
            let (fi, s) = self.struct_def(&cur)?;
            let field = s.fields.iter().find(|f| &f.name == seg)?;
            shown.push(seg.clone());
            best = Some((fi, field.line + 1, shown.join(".")));
            match field
                .ty_idents
                .iter()
                .find(|id| self.structs.contains_key(id.as_str()))
            {
                Some(next) => cur = next.clone(),
                None => break,
            }
        }
        best
    }

    /// Memoized, recursion-guarded read/write summary of `ty::method`,
    /// following `self.field.helper()` calls through declared field
    /// types across the whole workspace.
    fn summarize(
        &self,
        ty: &str,
        method: &str,
        memo: &mut BTreeMap<(String, String), Summary>,
        stack: &mut Vec<(String, String)>,
    ) -> Summary {
        let key = (ty.to_owned(), method.to_owned());
        if let Some(s) = memo.get(&key) {
            return s.clone();
        }
        if stack.contains(&key) {
            return Summary::default();
        }
        stack.push(key.clone());
        let mut sum = Summary::default();
        for (_, func) in self.methods.get(&(ty, method)).into_iter().flatten() {
            let Some(body) = &func.body else { continue };
            for a in &body.accesses {
                if a.base != "self" || a.path.is_empty() {
                    continue;
                }
                if a.write {
                    sum.writes.insert(a.path.clone());
                } else {
                    sum.reads.insert(a.path.clone());
                }
            }
            for c in &body.calls {
                let Some((base, segs)) = &c.recv else {
                    continue;
                };
                if base != "self" {
                    continue;
                }
                if let Some(callee_ty) = self.field_type(ty, segs) {
                    if self.methods.contains_key(&(callee_ty.as_str(), c.name())) {
                        let inner = self.summarize(&callee_ty, c.name(), memo, stack);
                        for r in &inner.reads {
                            sum.reads.insert(prefixed(segs, r));
                        }
                        for w in &inner.writes {
                            sum.writes.insert(prefixed(segs, w));
                        }
                    }
                }
            }
        }
        stack.pop();
        memo.insert(key, sum.clone());
        sum
    }

    fn summary(
        &self,
        ty: &str,
        method: &str,
        memo: &mut BTreeMap<(String, String), Summary>,
    ) -> Summary {
        self.summarize(ty, method, memo, &mut Vec::new())
    }

    /// Pass 1: missed-wake (see module docs).
    fn missed_wake(&self) -> Vec<Diagnostic> {
        let mut memo = BTreeMap::new();
        let mut out = Vec::new();
        // Types with a non-test `next_tick(&self)` in sim-facing,
        // non-test files.
        let mut horizon_types: BTreeSet<&str> = BTreeSet::new();
        for ((ty, method), occs) in &self.methods {
            if *method != "next_tick" {
                continue;
            }
            for (fi, func) in occs {
                let f = &self.files[*fi];
                if f.scope == CrateScope::SimFacing && !f.is_test && func.takes_self {
                    horizon_types.insert(ty);
                }
            }
        }
        for ty in horizon_types {
            let r0 = self.summary(ty, "next_tick", &mut memo).reads;
            if r0.is_empty() {
                continue;
            }
            // Horizon = next_tick's reads plus one generation of
            // cache-refresh expansion: any non-root method (of the type
            // itself or of a direct field's type) that *writes* into R0
            // contributes its reads — this is how `compute_wake`'s
            // inputs count as part of the horizon.
            let mut horizon = r0.clone();
            let mut expansion_sites: Vec<(String, FieldPath)> = vec![(ty.to_owned(), Vec::new())];
            if let Some((_, sdef)) = self.struct_def(ty) {
                for field in &sdef.fields {
                    if let Some(fty) = self.field_type(ty, std::slice::from_ref(&field.name)) {
                        expansion_sites.push((fty, vec![field.name.clone()]));
                    }
                }
            }
            for (site_ty, prefix) in &expansion_sites {
                let Some(names) = self.type_methods.get(site_ty.as_str()) else {
                    continue;
                };
                for m in names.clone() {
                    if MUTATOR_ROOTS.contains(&m) || m == "next_tick" {
                        continue;
                    }
                    let s = self.summary(site_ty, m, &mut memo);
                    let writes_into_r0 = s
                        .writes
                        .iter()
                        .any(|w| r0.iter().any(|r| intersects(&prefixed(prefix, w), r)));
                    if writes_into_r0 {
                        for r in &s.reads {
                            horizon.insert(prefixed(prefix, r));
                        }
                    }
                }
            }
            // Mutator closure over the roots.
            let mut mutated = Summary::default();
            for root in MUTATOR_ROOTS {
                if self.methods.contains_key(&(ty, root)) {
                    mutated.merge(&self.summary(ty, root, &mut memo));
                }
            }
            if mutated.writes.is_empty() {
                continue;
            }
            // Candidates: state both written and read on the mutator
            // paths (write-only telemetry is horizon-irrelevant),
            // truncated to depth 2 so sub-field noise collapses.
            let mut cands: BTreeSet<FieldPath> = BTreeSet::new();
            for w in &mutated.writes {
                if mutated.reads.iter().any(|r| intersects(r, w)) {
                    cands.insert(w[..w.len().min(2)].to_vec());
                }
            }
            for cand in cands {
                let covered = horizon.iter().any(|r| cand.starts_with(r));
                if covered {
                    continue;
                }
                let Some((fi, line, shown)) = self.field_decl(ty, &cand) else {
                    continue;
                };
                out.push(Diagnostic {
                    rule: Rule::MissedWake,
                    path: self.files[fi].path.clone(),
                    line,
                    message: format!(
                        "`{ty}` mutates and consults `{shown}` on its \
                         step/schedule/resolve paths, but `next_tick()` never reads it \
                         (directly or via a cache-refresh method) — a readiness change \
                         through this field cannot reschedule a wake (DESIGN.md §14)"
                    ),
                    snippet: snippet_at(&self.files[fi], line),
                });
            }
        }
        out
    }

    /// Pass 2: merge completeness (see module docs).
    fn merge_completeness(&self) -> Vec<Diagnostic> {
        let mut memo = BTreeMap::new();
        let mut out = Vec::new();
        for ((ty, method), occs) in &self.methods {
            if *method != "merge" {
                continue;
            }
            for (fi, func) in occs {
                let f = &self.files[*fi];
                if f.scope != CrateScope::SimFacing || f.is_test || !func.takes_mut_self {
                    continue;
                }
                // `merge(&mut self, other: &Self)` — the other side must
                // be (a reference to) the same type.
                let Some((other_name, other_ty)) = func.params.first() else {
                    continue;
                };
                if !other_ty.iter().any(|t| t == ty || t == "Self") {
                    continue;
                }
                let Some((sfi, sdef)) = self.struct_def(ty) else {
                    continue;
                };
                let Some(body) = &func.body else { continue };
                let mut merged: BTreeSet<&str> = BTreeSet::new();
                for a in &body.accesses {
                    if &a.base == other_name && !a.path.is_empty() {
                        merged.insert(a.path[0].as_str());
                    }
                }
                let exporter = self
                    .methods
                    .contains_key(&(ty, "to_json"))
                    .then(|| self.summary(ty, "to_json", &mut memo).reads);
                for field in &sdef.fields {
                    let mut missing = Vec::new();
                    if !merged.contains(field.name.as_str()) {
                        missing.push("merge()");
                    }
                    if let Some(exported) = &exporter {
                        if !exported.iter().any(|r| r[0] == field.name) {
                            missing.push("to_json()");
                        }
                    }
                    if missing.is_empty() {
                        continue;
                    }
                    out.push(Diagnostic {
                        rule: Rule::MergeCompleteness,
                        path: self.files[sfi].path.clone(),
                        line: field.line + 1,
                        message: format!(
                            "snapshot field `{}.{}` never appears in {} — its shard \
                             contribution is silently dropped at --jobs > 1 \
                             (DESIGN.md §9 determinism contract)",
                            ty,
                            field.name,
                            missing.join(" or ")
                        ),
                        snippet: snippet_at(&self.files[sfi], field.line + 1),
                    });
                }
            }
        }
        out
    }

    /// Pass 3: nondeterminism taint (see module docs). Consumes
    /// `allow(nondet-taint)` directives found at *source* lines: a
    /// waived source does not taint its callers.
    fn nondet_taint(&self, sets: &mut [DirectiveSet]) -> Vec<Diagnostic> {
        // Node = (crate, type-or-"", fn name). Owned keys: receiver
        // resolution produces type names on the fly.
        type Node = (String, String, String);
        struct FnInfo<'x> {
            file: usize,
            func: &'x FnDef,
            ty: &'x str,
        }
        let mut fns: BTreeMap<Node, Vec<FnInfo<'a>>> = BTreeMap::new();
        for (fi, f) in self.files.iter().enumerate() {
            if f.scope != CrateScope::SimFacing || f.is_test {
                continue;
            }
            for item in &f.items {
                match item {
                    Item::Fn(func) if !func.test_only => {
                        fns.entry((f.crate_name.clone(), String::new(), func.name.clone()))
                            .or_default()
                            .push(FnInfo {
                                file: fi,
                                func,
                                ty: "",
                            });
                    }
                    Item::Impl(im) if !im.test_only => {
                        for func in &im.fns {
                            if !func.test_only {
                                fns.entry((f.crate_name.clone(), im.ty.clone(), func.name.clone()))
                                    .or_default()
                                    .push(FnInfo {
                                        file: fi,
                                        func,
                                        ty: &im.ty,
                                    });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Direct sources per node (unwaived), and the same-crate call
        // graph. A waived source (`allow(nondet-taint)` at its line) is
        // consumed here and taints nothing.
        let mut tainted: BTreeMap<Node, (String, String, usize)> = BTreeMap::new();
        let mut edges: BTreeMap<Node, Vec<(Node, usize)>> = BTreeMap::new();
        for (node, infos) in &fns {
            for info in infos {
                let Some(body) = &info.func.body else {
                    continue;
                };
                let f = &self.files[info.file];
                for c in &body.calls {
                    let callee: Option<Node> = match &c.recv {
                        None => {
                            if let Some(kind) = source_kind(&c.path) {
                                if sets[info.file].allow(Rule::NondetTaint, c.line) {
                                    continue; // waived at the source
                                }
                                tainted.entry(node.clone()).or_insert((
                                    kind.to_owned(),
                                    f.path.clone(),
                                    c.line + 1,
                                ));
                                continue;
                            }
                            match c.path.len() {
                                1 => Some((node.0.clone(), String::new(), c.path[0].clone())),
                                2 => Some((node.0.clone(), c.path[0].clone(), c.path[1].clone())),
                                _ => None,
                            }
                        }
                        Some((base, segs)) if base == "self" && !info.ty.is_empty() => self
                            .field_type(info.ty, segs)
                            .map(|ty| (node.0.clone(), ty, c.name().to_owned())),
                        _ => None,
                    };
                    // Within-crate only: a callee in another crate is
                    // that crate's responsibility (and its own pass).
                    if let Some(callee) = callee {
                        if fns.contains_key(&callee) {
                            edges
                                .entry(node.clone())
                                .or_default()
                                .push((callee, c.line));
                        }
                    }
                }
            }
        }

        // Fixpoint propagation along call edges.
        loop {
            let mut newly: Vec<(Node, (String, String, usize))> = Vec::new();
            for (caller, outs) in &edges {
                if tainted.contains_key(caller) {
                    continue;
                }
                if let Some((callee, _)) = outs.iter().find(|(c, _)| tainted.contains_key(c)) {
                    newly.push((caller.clone(), tainted[callee].clone()));
                }
            }
            if newly.is_empty() {
                break;
            }
            tainted.extend(newly);
        }

        // Diagnostics: every unwaived direct source, and every call site
        // whose callee is tainted (the laundering edge).
        let mut out = Vec::new();
        for (node, infos) in &fns {
            for info in infos {
                let Some(body) = &info.func.body else {
                    continue;
                };
                let f = &self.files[info.file];
                for c in &body.calls {
                    if c.recv.is_none() {
                        if let Some(kind) = source_kind(&c.path) {
                            if sets[info.file].would_allow(Rule::NondetTaint, c.line) {
                                continue;
                            }
                            out.push(Diagnostic {
                                rule: Rule::NondetTaint,
                                path: f.path.clone(),
                                line: c.line + 1,
                                message: format!(
                                    "`{}` reads {kind}; sim-facing values must be \
                                     deterministic — plumb an explicit seed/config instead",
                                    c.path.join("::")
                                ),
                                snippet: snippet_at(f, c.line + 1),
                            });
                        }
                    }
                }
                for (callee, line) in edges.get(node).into_iter().flatten() {
                    if let Some((kind, src_path, src_line)) = tainted.get(callee) {
                        let shown = if callee.1.is_empty() {
                            callee.2.clone()
                        } else {
                            format!("{}::{}", callee.1, callee.2)
                        };
                        out.push(Diagnostic {
                            rule: Rule::NondetTaint,
                            path: f.path.clone(),
                            line: line + 1,
                            message: format!(
                                "`{shown}` launders {kind} (source at {src_path}:{src_line}) \
                                 into sim-facing code; plumb an explicit seed/config instead"
                            ),
                            snippet: snippet_at(f, line + 1),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Maps a call path onto a nondeterminism source kind.
fn source_kind(path: &[String]) -> Option<&'static str> {
    let last = path.last()?.as_str();
    let has = |s: &str| path.iter().any(|p| p == s);
    match last {
        "now" | "elapsed" if has("Instant") || has("SystemTime") => Some("the wall clock"),
        "duration_since" if has("UNIX_EPOCH") => Some("the wall clock"),
        "thread_rng" | "getrandom" => Some("OS entropy"),
        "new" | "default" if has("RandomState") || has("DefaultHasher") => {
            Some("a randomized hasher")
        }
        "var" | "var_os" | "vars" if has("env") => Some("the process environment"),
        "available_parallelism" => Some("host parallelism"),
        "temp_dir" => Some("the host temp dir"),
        "id" if has("process") => Some("the process id"),
        _ => None,
    }
}

/// Pass 4: undocumented-unsafe. Lexer-level (runs on test code too):
/// every line containing an `unsafe` token must carry a `SAFETY:`
/// comment on the same line or directly above (walking up through
/// comment-only, blank, and attribute lines).
fn undocumented_unsafe(f: &SrcFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, lv) in f.lines.iter().enumerate() {
        if lexer::find_ident(&lv.code, "unsafe").is_none() {
            continue;
        }
        let documented = |lv: &LineView| lv.comments.iter().any(|c| c.contains("SAFETY:"));
        let mut ok = documented(lv);
        let mut j = i;
        while !ok && j > 0 {
            j -= 1;
            let above = &f.lines[j];
            if documented(above) {
                ok = true;
                break;
            }
            let code = above.code.trim();
            // Keep walking through lines that carry no code of their
            // own: blanks, pure comments, attributes.
            if code.is_empty() || code.starts_with("#[") || code.starts_with("#!") {
                continue;
            }
            break;
        }
        if !ok {
            out.push(Diagnostic {
                rule: Rule::UndocumentedUnsafe,
                path: f.path.clone(),
                line: i + 1,
                message: "`unsafe` without a `// SAFETY:` comment — document the \
                          invariant that makes this sound, directly above or on the \
                          same line"
                    .to_owned(),
                snippet: snippet_at(f, i + 1),
            });
        }
    }
    out
}

fn snippet_at(f: &SrcFile, line1: usize) -> String {
    f.raw
        .lines()
        .nth(line1.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_owned()
}
