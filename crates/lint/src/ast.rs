//! A shallow Rust AST: just deep enough for the semantic passes of
//! [`analyze`](crate::analyze), nothing more.
//!
//! The tokenizer runs over the comment-stripped, literal-blanked line
//! views from [`crate::lexer::strip`], so neither comments nor string
//! contents can produce tokens. The parser then recognizes the item
//! shapes the passes need — `struct` definitions with named fields,
//! `impl` blocks (inherent and trait), and `fn` bodies — and reduces
//! every body to a flat stream of *facts*: field-access chains
//! (`self.core.wake`, read or write) and call sites (method calls with
//! their receiver chain, free calls with their `::` path).
//!
//! Everything it does not understand (expressions, generics, traits,
//! macros-by-example definitions) is skipped structurally via brace
//! matching; macro *invocations* in bodies are scanned linearly so the
//! accesses inside `assert_eq!(self.width, other.width)` still count.
//! Items under `#[cfg(test)]` / `#[test]` are parsed but marked
//! test-only, and the semantic passes skip them.

use crate::lexer::LineView;

/// One lexical token, tagged with its 0-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Num(String),
    Op(&'static str),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

/// Two-character operators recognized by the tokenizer. `<<`/`>>` are
/// deliberately absent: splitting shifts into two tokens keeps nested
/// generics (`Vec<Vec<u8>>`) parseable, and no pass needs shift ops.
const OPS2: [&str; 18] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "&&",
    "||", "..",
];

/// Assignment operators: a chain followed by one of these is a write.
const ASSIGN_OPS: [&str; 9] = ["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|="];

/// Tokenizes stripped line views. String/char contents are already
/// blanked, so stray `"` / `'` delimiters tokenize as punctuation and
/// are ignored by the parser.
pub fn tokenize(lines: &[LineView]) -> Vec<Token> {
    let mut out = Vec::new();
    for (ln, lv) in lines.iter().enumerate() {
        let s: Vec<char> = lv.code.chars().collect();
        let mut i = 0usize;
        while i < s.len() {
            let c = s[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(s[start..i].iter().collect()),
                    line: ln,
                });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < s.len() && (s[i].is_alphanumeric() || s[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Num(s[start..i].iter().collect()),
                    line: ln,
                });
                continue;
            }
            // `..=` is the only three-char operator we keep.
            if i + 2 < s.len() && c == '.' && s[i + 1] == '.' && s[i + 2] == '=' {
                out.push(Token {
                    tok: Tok::Op("..="),
                    line: ln,
                });
                i += 3;
                continue;
            }
            if i + 1 < s.len() {
                let pair: String = [c, s[i + 1]].iter().collect();
                if let Some(op) = OPS2.iter().find(|o| **o == pair) {
                    out.push(Token {
                        tok: Tok::Op(op),
                        line: ln,
                    });
                    i += 2;
                    continue;
                }
            }
            const SINGLES: &str = "(){}[]<>,;:.#&|!?*+-/%=@'\"^$~";
            if let Some(pos) = SINGLES.find(c) {
                // Map to 'static str slices of SINGLES.
                out.push(Token {
                    tok: Tok::Op(&SINGLES[pos..pos + c.len_utf8()]),
                    line: ln,
                });
            }
            i += 1;
        }
    }
    out
}

/// A named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    /// Every identifier appearing in the field's type, in order
    /// (`Option<FaultPlan>` → `["Option", "FaultPlan"]`). Type
    /// resolution tries each against the struct table.
    pub ty_idents: Vec<String>,
    /// 0-based declaration line.
    pub line: usize,
}

/// A `struct` with named fields (tuple and unit structs parse to an
/// empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
    pub line: usize,
    pub test_only: bool,
}

/// One field-access chain in a body: `base.seg1.seg2` with a read/write
/// classification. Tuple-index segments are kept as their digits.
#[derive(Debug, Clone)]
pub struct Access {
    pub base: String,
    pub path: Vec<String>,
    pub line: usize,
    pub write: bool,
}

/// One call site in a body.
#[derive(Debug, Clone)]
pub struct Call {
    /// `Some((base, path))` for method calls (`base.path.name(..)`),
    /// `None` for free/path calls.
    pub recv: Option<(String, Vec<String>)>,
    /// `::`-separated path for free calls (`["std","env","var"]`,
    /// `["Pool","new"]`); single-element for bare calls. For
    /// method calls, just the method name.
    pub path: Vec<String>,
    pub line: usize,
}

impl Call {
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or_default()
    }
}

/// The reduced body of one function.
#[derive(Debug, Clone, Default)]
pub struct FnBody {
    pub accesses: Vec<Access>,
    pub calls: Vec<Call>,
    /// 0-based inclusive line range the body spans (for text-level
    /// source-pattern scans).
    pub lines: (usize, usize),
}

/// A function: free, or associated via [`ImplDef`].
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: usize,
    pub is_unsafe: bool,
    pub takes_self: bool,
    pub takes_mut_self: bool,
    /// Non-self parameters as `(name, type idents)`.
    pub params: Vec<(String, Vec<String>)>,
    pub body: Option<FnBody>,
    pub test_only: bool,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Head identifier of the implementing type (generics stripped).
    pub ty: String,
    /// Head identifier of the trait, for trait impls.
    pub trait_name: Option<String>,
    pub fns: Vec<FnDef>,
    pub line: usize,
    pub is_unsafe: bool,
    pub test_only: bool,
}

/// A top-level (or inline-module) item the analyzer cares about.
#[derive(Debug, Clone)]
pub enum Item {
    Struct(StructDef),
    Impl(ImplDef),
    Fn(FnDef),
}

/// Parses one stripped file into items. Never fails: unrecognized
/// constructs are skipped.
pub fn parse(lines: &[LineView]) -> Vec<Item> {
    let tokens = tokenize(lines);
    let mut p = Parser {
        t: &tokens,
        i: 0,
        items: Vec::new(),
    };
    p.items(usize::MAX, false);
    p.items
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    items: Vec<Item>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.t.get(self.i).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.t.get(self.i).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn is_op(&self, op: &str) -> bool {
        matches!(self.peek(), Some(Tok::Op(o)) if *o == op)
    }

    fn is_ident(&self, id: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == id)
    }

    fn take_ident(&mut self) -> Option<String> {
        if let Some(Tok::Ident(s)) = self.peek() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Skips a balanced `open`…`close` group, assuming the cursor sits
    /// on `open`. Returns the token range skipped (exclusive of the
    /// delimiters).
    fn skip_group(&mut self, open: &str, close: &str) -> (usize, usize) {
        debug_assert!(self.is_op(open));
        self.bump();
        let start = self.i;
        let mut depth = 1usize;
        while self.i < self.t.len() && depth > 0 {
            if self.is_op(open) {
                depth += 1;
            } else if self.is_op(close) {
                depth -= 1;
            }
            self.bump();
        }
        (start, self.i.saturating_sub(1))
    }

    /// Skips `<...>` generics with angle-depth counting (shifts are
    /// split into single `<`/`>` tokens by the tokenizer).
    fn skip_generics(&mut self) {
        if !self.is_op("<") {
            return;
        }
        let mut depth = 0usize;
        while self.i < self.t.len() {
            if self.is_op("<") {
                depth += 1;
            } else if self.is_op(">") {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            } else if self.is_op("(") {
                self.skip_group("(", ")");
                continue;
            } else if self.is_op(";") || self.is_op("{") {
                return; // malformed; bail without consuming
            }
            self.bump();
        }
    }

    /// Consumes leading attributes; returns `true` if any marks the item
    /// test-only (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`).
    fn consume_attrs(&mut self) -> bool {
        let mut test_only = false;
        while self.is_op("#") {
            self.bump();
            if self.is_op("!") {
                self.bump();
            }
            if self.is_op("[") {
                let (start, end) = self.skip_group("[", "]");
                let toks = &self.t[start..end];
                let has = |w: &str| {
                    toks.iter()
                        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == w))
                };
                if has("test") && (has("cfg") || toks.len() == 1) {
                    test_only = true;
                }
            } else {
                break;
            }
        }
        test_only
    }

    /// Consumes visibility/qualifier idents before an item keyword.
    /// Returns whether `unsafe` was among them.
    fn consume_qualifiers(&mut self) -> bool {
        let mut is_unsafe = false;
        loop {
            if self.is_ident("pub") {
                self.bump();
                if self.is_op("(") {
                    self.skip_group("(", ")");
                }
            } else if self.is_ident("const") || self.is_ident("async") || self.is_ident("default") {
                // `const` here is only consumed when followed by `fn` —
                // a `const NAME: ...` item is handled by the caller.
                if self.is_ident("const")
                    && !matches!(self.t.get(self.i + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "fn")
                {
                    return is_unsafe;
                }
                self.bump();
            } else if self.is_ident("unsafe") {
                is_unsafe = true;
                self.bump();
            } else if self.is_ident("extern") {
                self.bump();
                if self.is_op("\"") {
                    // blanked ABI string: `"` blank `"`
                    self.bump();
                    if self.is_op("\"") {
                        self.bump();
                    }
                }
            } else {
                return is_unsafe;
            }
        }
    }

    /// Skips to the end of a `;`-terminated item, honouring nested
    /// groups (a `{` body also terminates, brace-matched).
    fn skip_semi_item(&mut self) {
        while self.i < self.t.len() {
            if self.is_op(";") {
                self.bump();
                return;
            }
            if self.is_op("{") {
                self.skip_group("{", "}");
                return;
            }
            if self.is_op("(") {
                self.skip_group("(", ")");
                continue;
            }
            if self.is_op("[") {
                self.skip_group("[", "]");
                continue;
            }
            self.bump();
        }
    }

    /// Parses items until `end` (token index) or a closing `}` at this
    /// nesting level. `test_ctx` marks everything test-only.
    fn items(&mut self, end: usize, test_ctx: bool) {
        while self.i < self.t.len() && self.i < end {
            if self.is_op("}") {
                self.bump();
                return;
            }
            let test_only = self.consume_attrs() || test_ctx;
            let is_unsafe = self.consume_qualifiers();
            match self.peek() {
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    "struct" => self.parse_struct(test_only),
                    "impl" => self.parse_impl(is_unsafe, test_only),
                    "fn" => {
                        if let Some(f) = self.parse_fn(is_unsafe, test_only) {
                            self.items.push(Item::Fn(f));
                        }
                    }
                    "mod" => {
                        self.bump();
                        self.take_ident();
                        if self.is_op("{") {
                            // Inline module: recurse (flattened), keeping
                            // the test-only marking for `mod tests`.
                            self.bump();
                            self.items(usize::MAX, test_only);
                        } else {
                            self.skip_semi_item();
                        }
                    }
                    "enum" | "union" | "trait" => {
                        self.bump();
                        self.skip_semi_item();
                    }
                    "use" | "static" | "const" | "type" => {
                        self.bump();
                        self.skip_semi_item();
                    }
                    "macro_rules" => {
                        self.bump();
                        self.skip_semi_item();
                    }
                    _ => self.bump(),
                },
                Some(Tok::Op("{")) => {
                    self.skip_group("{", "}");
                }
                Some(_) => self.bump(),
                None => return,
            }
        }
    }

    fn parse_struct(&mut self, test_only: bool) {
        let line = self.line();
        self.bump(); // struct
        let Some(name) = self.take_ident() else {
            return;
        };
        self.skip_generics();
        // `where` clauses before the body.
        while self.i < self.t.len() && !self.is_op("{") && !self.is_op(";") && !self.is_op("(") {
            if self.is_op("<") {
                self.skip_generics();
            } else {
                self.bump();
            }
        }
        let mut fields = Vec::new();
        if self.is_op("(") {
            // Tuple struct: no named fields.
            self.skip_group("(", ")");
            if self.is_op(";") {
                self.bump();
            }
        } else if self.is_op("{") {
            let (start, end) = self.skip_group("{", "}");
            fields = parse_fields(&self.t[start..end]);
        } else if self.is_op(";") {
            self.bump();
        }
        self.items.push(Item::Struct(StructDef {
            name,
            fields,
            line,
            test_only,
        }));
    }

    fn parse_impl(&mut self, is_unsafe: bool, test_only: bool) {
        let line = self.line();
        self.bump(); // impl
        self.skip_generics();
        let first = self.parse_type_path();
        let (ty, trait_name) = if self.is_ident("for") {
            self.bump();
            (self.parse_type_path(), first)
        } else {
            (first, None)
        };
        // Skip `where` clause up to the body.
        while self.i < self.t.len() && !self.is_op("{") {
            if self.is_op("<") {
                self.skip_generics();
            } else if self.is_op("(") {
                self.skip_group("(", ")");
            } else {
                self.bump();
            }
        }
        let Some(ty) = ty else {
            self.skip_semi_item();
            return;
        };
        if !self.is_op("{") {
            return;
        }
        let (start, end) = self.skip_group("{", "}");
        let mut sub = Parser {
            t: &self.t[..end],
            i: start,
            items: Vec::new(),
        };
        let mut fns = Vec::new();
        while sub.i < sub.t.len() {
            let fn_test = sub.consume_attrs() || test_only;
            let fn_unsafe = sub.consume_qualifiers();
            if sub.is_ident("fn") {
                if let Some(f) = sub.parse_fn(fn_unsafe, fn_test) {
                    fns.push(f);
                }
            } else if sub.is_ident("type") || sub.is_ident("const") {
                sub.bump();
                sub.skip_semi_item();
            } else if sub.peek().is_none() {
                break;
            } else {
                sub.bump();
            }
        }
        self.items.push(Item::Impl(ImplDef {
            ty,
            trait_name,
            fns,
            line,
            is_unsafe,
            test_only,
        }));
    }

    /// Parses a type path in an impl header, returning the head
    /// identifier of its last segment (`pcmap_obs::LifecycleTracer` →
    /// `LifecycleTracer`, `Scope<'_, '_>` → `Scope`).
    fn parse_type_path(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            if self.is_op("&") || self.is_op("'") {
                self.bump();
                continue;
            }
            match self.peek() {
                Some(Tok::Ident(s)) if s != "for" && s != "where" => {
                    last = Some(s.clone());
                    self.bump();
                    if self.is_op("<") {
                        self.skip_generics();
                    }
                    if self.is_op("::") {
                        self.bump();
                        continue;
                    }
                    return last;
                }
                _ => return last,
            }
        }
    }

    fn parse_fn(&mut self, is_unsafe: bool, test_only: bool) -> Option<FnDef> {
        let line = self.line();
        self.bump(); // fn
        let name = self.take_ident()?;
        self.skip_generics();
        if !self.is_op("(") {
            return None;
        }
        let (pstart, pend) = self.skip_group("(", ")");
        let (takes_self, takes_mut_self, params) = parse_params(&self.t[pstart..pend]);
        // Return type / where clause up to `{` or `;`.
        while self.i < self.t.len() && !self.is_op("{") && !self.is_op(";") {
            if self.is_op("<") {
                self.skip_generics();
            } else if self.is_op("(") {
                self.skip_group("(", ")");
            } else {
                self.bump();
            }
        }
        let body = if self.is_op("{") {
            let open_line = self.line();
            let (bstart, bend) = self.skip_group("{", "}");
            let toks = &self.t[bstart..bend];
            let close_line = self.t.get(bend).map(|t| t.line).unwrap_or(open_line);
            let mut facts = extract_facts(toks);
            facts.lines = (open_line, close_line);
            Some(facts)
        } else {
            if self.is_op(";") {
                self.bump();
            }
            None
        };
        Some(FnDef {
            name,
            line,
            is_unsafe,
            takes_self,
            takes_mut_self,
            params,
            body,
            test_only,
        })
    }
}

/// Parses the token slice inside a struct body into named fields.
fn parse_fields(toks: &[Token]) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Skip attributes.
        while matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op("#"))) {
            i += 1;
            if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op("["))) {
                i = skip_balanced(toks, i, "[", "]");
            }
        }
        if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "pub") {
            i += 1;
            if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op("("))) {
                i = skip_balanced(toks, i, "(", ")");
            }
        }
        let Some(Token {
            tok: Tok::Ident(name),
            line,
        }) = toks.get(i)
        else {
            i += 1;
            continue;
        };
        let name = name.clone();
        let line = *line;
        i += 1;
        if !matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op(":"))) {
            continue;
        }
        i += 1;
        // Type tokens until a top-level comma.
        let mut ty_idents = Vec::new();
        let mut depth = 0isize;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Op("<") | Tok::Op("(") | Tok::Op("[") => depth += 1,
                Tok::Op(">") | Tok::Op(")") | Tok::Op("]") => depth -= 1,
                Tok::Op(",") if depth <= 0 => {
                    i += 1;
                    break;
                }
                Tok::Ident(s) => ty_idents.push(s.clone()),
                _ => {}
            }
            i += 1;
        }
        fields.push(FieldDef {
            name,
            ty_idents,
            line,
        });
    }
    fields
}

/// Parses a parameter-list token slice.
fn parse_params(toks: &[Token]) -> (bool, bool, Vec<(String, Vec<String>)>) {
    let mut takes_self = false;
    let mut takes_mut_self = false;
    let mut params = Vec::new();
    for part in split_top_level(toks, ",") {
        let idents: Vec<&str> = part
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        if idents.first() == Some(&"self")
            || (idents.first() == Some(&"mut") && idents.get(1) == Some(&"self"))
        {
            takes_self = true;
            takes_mut_self = part.iter().any(|t| matches!(&t.tok, Tok::Op("&")))
                && idents.contains(&"mut")
                || (idents.first() == Some(&"mut") && idents.get(1) == Some(&"self"));
            continue;
        }
        // `name: Type` — name is the first ident before `:` (skipping a
        // leading `mut`); type idents follow the colon.
        let colon = part
            .iter()
            .position(|t| matches!(&t.tok, Tok::Op(":")))
            .unwrap_or(part.len());
        let name = part[..colon]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) if s != "mut" => Some(s.clone()),
                _ => None,
            })
            .next_back();
        let ty_idents: Vec<String> = part
            .get(colon..)
            .unwrap_or_default()
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        if let Some(name) = name {
            params.push((name, ty_idents));
        }
    }
    (takes_self, takes_mut_self, params)
}

/// Splits a token slice at top-level occurrences of `sep`.
fn split_top_level<'a>(toks: &'a [Token], sep: &str) -> Vec<&'a [Token]> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Op("<") | Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(">") | Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op(o) if *o == sep && depth <= 0 => {
                out.push(&toks[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

fn skip_balanced(toks: &[Token], open_at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open_at;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op(o) if *o == open => depth += 1,
            Tok::Op(o) if *o == close => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Method-name fragments that mutate their receiver even when the
/// callee cannot be resolved in the workspace (std collections etc.).
const MUT_METHODS: [&str; 22] = [
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "entry",
    "take",
    "replace",
    "drain",
    "extend",
    "append",
    "truncate",
    "get_or_insert_with",
];

/// Whether a method name mutates its receiver per the heuristic: a
/// known mutating std method, or the workspace `_mut` suffix idiom.
pub fn is_mut_method(name: &str) -> bool {
    name.ends_with("_mut") || MUT_METHODS.contains(&name)
}

/// Reduces a body token slice to its access/call facts via one linear
/// scan. Nested expressions need no recursion: every identifier chain
/// is classified in place and arguments are scanned as they stream by.
fn extract_facts(toks: &[Token]) -> FnBody {
    let mut body = FnBody::default();
    let mut i = 0usize;
    while i < toks.len() {
        let Tok::Ident(first) = &toks[i].tok else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        // `&mut chain` marks the chain written (mutable borrow handed out).
        let mut_borrow = i >= 2
            && matches!(&toks[i - 1].tok, Tok::Ident(s) if s == "mut")
            && matches!(&toks[i - 2].tok, Tok::Op("&"));
        // `::`-path (free call / associated item)?
        if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op("::"))) {
            let mut path = vec![first.clone()];
            let mut j = i + 1;
            while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Op("::"))) {
                match toks.get(j + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(s)) => {
                        path.push(s.clone());
                        j += 2;
                    }
                    Some(Tok::Op("<")) => {
                        // Turbofish: skip the generic args.
                        let mut depth = 0isize;
                        let mut k = j + 1;
                        while k < toks.len() {
                            match &toks[k].tok {
                                Tok::Op("<") => depth += 1,
                                Tok::Op(">") => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        j = k + 1;
                    }
                    _ => break,
                }
            }
            if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Op("("))) {
                body.calls.push(Call {
                    recv: None,
                    path,
                    line,
                });
            }
            i = j;
            continue;
        }
        // Dot chain.
        let mut segs: Vec<String> = Vec::new();
        let mut j = i + 1;
        while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Op("."))) {
            match toks.get(j + 1).map(|t| &t.tok) {
                Some(Tok::Ident(s)) => {
                    segs.push(s.clone());
                    j += 2;
                }
                Some(Tok::Num(n)) => {
                    segs.push(n.clone());
                    j += 2;
                }
                _ => break,
            }
        }
        let next = toks.get(j).map(|t| &t.tok);
        match next {
            Some(Tok::Op("(")) if !segs.is_empty() => {
                // Method call: receiver = chain minus the method name.
                // Calling *any* method observes the receiver (a read);
                // mutating methods additionally count as a write.
                let method = segs.pop().expect("non-empty");
                body.accesses.push(Access {
                    base: first.clone(),
                    path: segs.clone(),
                    line,
                    write: false,
                });
                if mut_borrow || is_mut_method(&method) {
                    body.accesses.push(Access {
                        base: first.clone(),
                        path: segs.clone(),
                        line,
                        write: true,
                    });
                }
                body.calls.push(Call {
                    recv: Some((first.clone(), segs)),
                    path: vec![method],
                    line,
                });
            }
            Some(Tok::Op("(")) => {
                // Bare call `name(...)`.
                body.calls.push(Call {
                    recv: None,
                    path: vec![first.clone()],
                    line,
                });
            }
            Some(Tok::Op("!")) => {
                // Macro invocation: contents stream through the scanner.
            }
            Some(Tok::Op(op)) if ASSIGN_OPS.contains(op) => {
                body.accesses.push(Access {
                    base: first.clone(),
                    path: segs,
                    line,
                    write: true,
                });
                j += 1; // consume the operator so `=`'s RHS scans fresh
            }
            _ => {
                body.accesses.push(Access {
                    base: first.clone(),
                    path: segs,
                    line,
                    write: mut_borrow,
                });
            }
        }
        i = j.max(i + 1);
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> Vec<Item> {
        parse(&lexer::strip(src))
    }

    fn the_struct(items: &[Item], name: &str) -> StructDef {
        items
            .iter()
            .find_map(|i| match i {
                Item::Struct(s) if s.name == name => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no struct {name}"))
    }

    fn the_impl(items: &[Item], ty: &str) -> ImplDef {
        items
            .iter()
            .find_map(|i| match i {
                Item::Impl(im) if im.ty == ty => Some(im.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no impl {ty}"))
    }

    #[test]
    fn struct_fields_and_types_parse() {
        let items = parse_src(
            "pub struct Core {\n\
                 /// doc\n\
                 pub wake: Option<Cycle>,\n\
                 qs: Vec<RequestQueue>,\n\
                 #[allow(dead_code)]\n\
                 n: u64,\n\
             }\n",
        );
        let s = the_struct(&items, "Core");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["wake", "qs", "n"]);
        assert_eq!(s.fields[0].ty_idents, ["Option", "Cycle"]);
        assert_eq!(s.fields[1].ty_idents, ["Vec", "RequestQueue"]);
        assert_eq!(s.fields[0].line, 2);
    }

    #[test]
    fn impl_blocks_carry_trait_and_fns() {
        let items = parse_src(
            "impl Controller for Baseline {\n\
                 fn next_tick(&self) -> Option<Cycle> { self.core.wake }\n\
             }\n\
             impl Baseline {\n\
                 pub fn new() -> Self { Self { core: Core::new() } }\n\
             }\n",
        );
        let tr = the_impl(&items, "Baseline");
        assert_eq!(tr.trait_name.as_deref(), Some("Controller"));
        assert_eq!(tr.fns[0].name, "next_tick");
        assert!(tr.fns[0].takes_self);
        assert!(!tr.fns[0].takes_mut_self);
    }

    #[test]
    fn body_facts_classify_reads_writes_and_calls() {
        let items = parse_src(
            "impl C {\n\
                 fn step(&mut self, now: Cycle) {\n\
                     self.core.wake = Some(now);\n\
                     self.stats.count += 1;\n\
                     if self.read_q.is_empty() { self.drains.push(1); }\n\
                     helper(&mut self.inflight);\n\
                     let x = self.last_read;\n\
                 }\n\
             }\n",
        );
        let im = the_impl(&items, "C");
        let b = im.fns[0].body.as_ref().expect("body");
        let writes = |path: &[&str]| {
            b.accesses
                .iter()
                .filter(|a| a.base == "self" && a.path == path)
                .map(|a| a.write)
                .collect::<Vec<_>>()
        };
        assert!(writes(&["core", "wake"]).contains(&true));
        assert!(writes(&["stats", "count"]).contains(&true));
        assert_eq!(writes(&["read_q"]), [false], "is_empty only reads");
        assert!(
            writes(&["drains"]).contains(&true),
            "push marks the receiver written"
        );
        assert!(
            writes(&["drains"]).contains(&false),
            "...but calling it still observes it"
        );
        assert!(
            writes(&["inflight"]).contains(&true),
            "&mut borrow marks written"
        );
        assert_eq!(writes(&["last_read"]), [false]);
        assert!(b.calls.iter().any(|c| {
            matches!(&c.recv, Some((base, segs)) if base == "self" && segs == &["read_q"])
                && c.name() == "is_empty"
        }));
    }

    #[test]
    fn path_calls_and_macros_are_seen() {
        let items = parse_src(
            "fn f(other: &S) {\n\
                 let v = std::env::var(\"X\");\n\
                 let p = Pool::new(4);\n\
                 assert_eq!(self_like.width, other.width);\n\
             }\n",
        );
        let Item::Fn(f) = &items[0] else {
            panic!("expected fn")
        };
        let b = f.body.as_ref().expect("body");
        assert!(b.calls.iter().any(|c| c.path == ["std", "env", "var"]));
        assert!(b.calls.iter().any(|c| c.path == ["Pool", "new"]));
        assert!(b
            .accesses
            .iter()
            .any(|a| a.base == "other" && a.path == ["width"] && !a.write));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let items = parse_src(
            "#[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { std::env::var(\"X\"); }\n\
             }\n\
             fn live() {}\n",
        );
        let test_fns: Vec<(&str, bool)> = items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some((f.name.as_str(), f.test_only)),
                _ => None,
            })
            .collect();
        assert!(test_fns.contains(&("helper", true)));
        assert!(test_fns.contains(&("live", false)));
    }

    #[test]
    fn tuple_and_unit_structs_parse_empty() {
        let items = parse_src("struct A(u32, u64);\nstruct B;\nstruct C<T: Ord>(T);\n");
        assert!(the_struct(&items, "A").fields.is_empty());
        assert!(the_struct(&items, "B").fields.is_empty());
        assert!(the_struct(&items, "C").fields.is_empty());
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let items = parse_src(
            "impl<'a, T: Clone> Holder<'a, T> where T: Send {\n\
                 fn get(&self) -> &T { &self.value }\n\
             }\n",
        );
        let im = the_impl(&items, "Holder");
        assert_eq!(im.fns[0].name, "get");
    }
}
