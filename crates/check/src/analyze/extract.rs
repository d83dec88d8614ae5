//! Item extraction: every `fn` in a source file, with its qualified
//! name, visibility, enclosing `impl`/`trait` type, and body token span.
//!
//! This is a recursive-descent walk over the token stream from
//! [`lexer::lex`](super::lexer::lex) — it understands just enough item
//! structure (`mod`/`impl`/`trait`/`fn` plus brace balance) to attribute
//! each body to a function. Nested functions are recorded as their own
//! items, and their tokens deliberately *also* remain inside the parent's
//! body span: facts in a nested helper are attributed to both, which
//! over-approximates reachability — the safe direction for a checker.

use super::lexer::{Tok, TokKind};

/// One extracted function.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`decode`).
    pub name: String,
    /// Qualified display name (`proto::wire::Frame::decode`).
    pub qual: String,
    /// Crate directory name (`proto`, `diff`, `runtime`, …).
    pub krate: String,
    /// Repo-relative file label.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `pub` without a restriction (`pub(crate)` does not count).
    pub is_pub: bool,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// First parameter is a `self` receiver — only such functions can
    /// be targets of `.name(...)` method-call syntax.
    pub has_self: bool,
    /// Token index range of the body, `[open_brace, close_brace]`
    /// inclusive; `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
}

/// Parsed view of one source file: its tokens plus the functions found.
#[derive(Debug)]
pub struct FileItems {
    /// Crate directory name.
    pub krate: String,
    /// Repo-relative file label (`crates/proto/src/wire.rs`).
    pub file: String,
    /// Stripped source the token spans index into.
    pub src: String,
    /// Token stream for the whole file.
    pub toks: Vec<Tok>,
    /// Every function item, in source order.
    pub fns: Vec<FnItem>,
}

/// Keywords that can never be call or function names; used by both the
/// extractor and the call-site scanner.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

/// Is this identifier a Rust keyword?
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

struct Walker<'a> {
    src: &'a str,
    toks: &'a [Tok],
    krate: String,
    file: String,
    /// `crate::module` path segments derived from the file path plus
    /// inline `mod` blocks.
    mods: Vec<String>,
    out: Vec<FnItem>,
}

/// Derives the module path from a crate-relative source path:
/// `src/wire.rs` → `["wire"]`, `src/lib.rs`/`src/main.rs` → `[]`,
/// `src/analyze/mod.rs` → `["analyze"]`.
fn module_path_of(rel_in_crate: &str) -> Vec<String> {
    let no_src = rel_in_crate.strip_prefix("src/").unwrap_or(rel_in_crate);
    let no_ext = no_src.strip_suffix(".rs").unwrap_or(no_src);
    no_ext
        .split('/')
        .filter(|s| !matches!(*s, "lib" | "main" | "mod"))
        .map(str::to_string)
        .collect()
}

/// Extracts all functions from one stripped source file.
///
/// `krate` is the crate directory name, `file` the repo-relative label,
/// `rel_in_crate` the path inside the crate (for the module prefix).
pub fn extract_file(stripped: String, krate: &str, file: &str, rel_in_crate: &str) -> FileItems {
    let toks = super::lexer::lex(&stripped);
    let mut w = Walker {
        src: &stripped,
        toks: &toks,
        krate: krate.to_string(),
        file: file.to_string(),
        mods: module_path_of(rel_in_crate),
        out: Vec::new(),
    };
    w.items(0, toks.len(), None);
    let fns = w.out;
    FileItems {
        krate: krate.to_string(),
        file: file.to_string(),
        src: stripped,
        toks,
        fns,
    }
}

impl Walker<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokKind::Ident && self.text(i) == s
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokKind::Punct(c)
    }

    /// Skips a balanced `<...>` group starting at `i` (which must be a
    /// `<`), returning the index just past the matching `>`.
    fn skip_angles(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
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

    /// Skips a balanced group opened by the delimiter at `i`.
    fn skip_group(&self, mut i: usize, open: char, close: char) -> usize {
        let mut depth = 0i32;
        while i < self.toks.len() {
            if self.is_punct(i, open) {
                depth += 1;
            } else if self.is_punct(i, close) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Walks items in `[start, end)`, attributing functions to `owner`
    /// (the enclosing impl/trait type). Recurses into `mod`, `impl`,
    /// `trait`, and function bodies.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.toks[i].kind != TokKind::Ident {
                // A brace not owned by a recognized item (const
                // initializer, match arm, …): recurse so balance holds.
                if self.is_punct(i, '{') {
                    let close = self.skip_group(i, '{', '}');
                    self.items(i + 1, close.saturating_sub(1), owner);
                    i = close;
                } else {
                    i += 1;
                }
                continue;
            }
            match self.text(i) {
                "mod" if i + 1 < end && self.toks[i + 1].kind == TokKind::Ident => {
                    let name = self.text(i + 1).to_string();
                    if self.is_punct(i + 2, '{') {
                        let close = self.skip_group(i + 2, '{', '}');
                        self.mods.push(name);
                        self.items(i + 3, close.saturating_sub(1), None);
                        self.mods.pop();
                        i = close;
                    } else {
                        i += 2; // `mod name;` — out-of-line, own file
                    }
                }
                "impl" => {
                    let (ty, body_open) = self.impl_header(i + 1, end);
                    match body_open {
                        Some(open) => {
                            let close = self.skip_group(open, '{', '}');
                            self.items(open + 1, close.saturating_sub(1), ty.as_deref());
                            i = close;
                        }
                        None => i += 1,
                    }
                }
                "trait" if i + 1 < end && self.toks[i + 1].kind == TokKind::Ident => {
                    let name = self.text(i + 1).to_string();
                    // Find the trait body `{` (skipping generics/bounds)
                    // or a terminating `;` (trait alias).
                    let mut j = i + 2;
                    let mut open = None;
                    while j < end {
                        if self.is_punct(j, '<') {
                            j = self.skip_angles(j);
                        } else if self.is_punct(j, '{') {
                            open = Some(j);
                            break;
                        } else if self.is_punct(j, ';') {
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    match open {
                        Some(open) => {
                            let close = self.skip_group(open, '{', '}');
                            self.items(open + 1, close.saturating_sub(1), Some(&name));
                            i = close;
                        }
                        None => i = j + 1,
                    }
                }
                "fn" if i + 1 < end && self.toks[i + 1].kind == TokKind::Ident => {
                    i = self.fn_item(i, end, owner);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses an `impl` header starting just past the keyword: returns
    /// the implemented type name (last path ident; the one after `for`
    /// when present) and the index of the body `{`.
    fn impl_header(&self, mut i: usize, end: usize) -> (Option<String>, Option<usize>) {
        if self.is_punct(i, '<') {
            i = self.skip_angles(i);
        }
        let mut last_ident: Option<String> = None;
        while i < end {
            if self.is_punct(i, '{') {
                return (last_ident, Some(i));
            }
            if self.is_punct(i, ';') {
                return (last_ident, None);
            }
            if self.is_ident(i, "for") {
                last_ident = None; // `impl Trait for Type`: type follows
                i += 1;
                continue;
            }
            if self.is_ident(i, "where") {
                // Bounds until the body; the type is already known.
                while i < end && !self.is_punct(i, '{') {
                    if self.is_punct(i, '<') {
                        i = self.skip_angles(i);
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
            if self.toks[i].kind == TokKind::Ident && !is_keyword(self.text(i)) {
                last_ident = Some(self.text(i).to_string());
                i += 1;
                // Generic args on the type never rename it.
                if self.is_punct(i, '<') {
                    i = self.skip_angles(i);
                }
                continue;
            }
            i += 1;
        }
        (last_ident, None)
    }

    /// Records the function whose `fn` keyword is at `i`; recurses into
    /// the body for nested items; returns the index just past the item.
    fn fn_item(&mut self, i: usize, end: usize, owner: Option<&str>) -> usize {
        let name = self.text(i + 1).to_string();
        let line = self.toks[i].line;
        let is_pub = self.leading_pub(i);

        // Signature: optional generics, the `(params)`, then everything
        // (return type, where clause) up to the body `{` or a `;`.
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j);
        }
        let mut has_self = false;
        if self.is_punct(j, '(') {
            // Receiver forms: `self`, `&self`, `&'a self`, `&mut self`,
            // `mut self` — skip the decorations, look for `self`.
            let mut k = j + 1;
            while k < end
                && (self.is_punct(k, '&')
                    || self.toks[k].kind == TokKind::Lifetime
                    || self.is_ident(k, "mut"))
            {
                k += 1;
            }
            has_self = self.is_ident(k, "self");
            j = self.skip_group(j, '(', ')');
        }
        let mut body = None;
        while j < end {
            if self.is_punct(j, '<') {
                j = self.skip_angles(j);
            } else if self.is_punct(j, '{') {
                let close = self.skip_group(j, '{', '}');
                body = Some((j, close.saturating_sub(1)));
                j = close;
                break;
            } else if self.is_punct(j, ';') {
                j += 1;
                break;
            } else {
                j += 1;
            }
        }

        let mut qual = self.krate.clone();
        for m in &self.mods {
            qual.push_str("::");
            qual.push_str(m);
        }
        if let Some(o) = owner {
            qual.push_str("::");
            qual.push_str(o);
        }
        qual.push_str("::");
        qual.push_str(&name);

        self.out.push(FnItem {
            name,
            qual,
            krate: self.krate.clone(),
            file: self.file.clone(),
            line,
            is_pub,
            owner: owner.map(str::to_string),
            has_self,
            body,
        });

        // Nested fns inside the body are free functions, not methods.
        if let Some((open, close)) = body {
            self.items(open + 1, close, None);
        }
        j
    }

    /// Was the `fn` at index `i` declared `pub` (unrestricted)?
    /// Scans back over `const`/`async`/`unsafe`/`extern` qualifiers.
    fn leading_pub(&self, mut i: usize) -> bool {
        while i > 0 {
            i -= 1;
            match self.toks[i].kind {
                TokKind::Ident => match self.text(i) {
                    "const" | "async" | "unsafe" | "extern" | "default" => continue,
                    "pub" => {
                        // `pub(crate) fn` has `(` after `pub`; here we
                        // arrived from the right, so a bare `pub` token
                        // directly preceding the qualifiers is
                        // unrestricted visibility.
                        return true;
                    }
                    _ => return false,
                },
                TokKind::Punct(')') => {
                    // Restriction group of `pub(crate)`/`pub(super)`:
                    // restricted visibility is not public API.
                    return false;
                }
                _ => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::strip_code;
    use super::*;

    fn extract(src: &str) -> FileItems {
        extract_file(strip_code(src), "x", "crates/x/src/m.rs", "src/m.rs")
    }

    #[test]
    fn free_and_impl_fns_are_qualified() {
        let src = "
            pub fn top() {}
            struct Frame;
            impl Frame {
                pub fn decode(b: &[u8]) -> u8 { helper(b) }
                fn helper(b: &[u8]) -> u8 { 0 }
            }
        ";
        let items = extract(src);
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec!["x::m::top", "x::m::Frame::decode", "x::m::Frame::helper"]
        );
        assert!(items.fns[0].is_pub);
        assert!(items.fns[1].is_pub);
        assert!(!items.fns[2].is_pub);
        assert_eq!(items.fns[1].owner.as_deref(), Some("Frame"));
    }

    #[test]
    fn trait_impls_attribute_to_the_type_not_the_trait() {
        let src = "
            impl<T: Clone> Display for Wrapper<T> {
                fn fmt(&self) -> u8 { 1 }
            }
        ";
        let items = extract(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(items.fns[0].qual, "x::m::Wrapper::fmt");
    }

    #[test]
    fn trait_default_methods_and_signatures() {
        let src = "
            pub trait Transport {
                fn send(&mut self, b: &[u8]);
                fn try_send(&mut self, b: &[u8]) -> bool { self.send(b); true }
            }
        ";
        let items = extract(src);
        assert_eq!(items.fns.len(), 2);
        assert!(items.fns[0].body.is_none());
        assert!(items.fns[1].body.is_some());
        assert_eq!(items.fns[1].owner.as_deref(), Some("Transport"));
        assert!(items.fns[0].has_self && items.fns[1].has_self);
    }

    #[test]
    fn self_receivers_are_distinguished_from_associated_fns() {
        let src = "
            impl S {
                pub fn parse(text: &[u8]) -> u8 { 0 }
                fn by_ref(&self) {}
                fn by_mut_ref(&mut self) {}
                fn by_value(mut self) {}
                fn with_lifetime<'a>(&'a self) {}
            }
        ";
        let items = extract(src);
        let selfs: Vec<bool> = items.fns.iter().map(|f| f.has_self).collect();
        assert_eq!(selfs, vec![false, true, true, true, true]);
    }

    #[test]
    fn nested_generics_and_fn_pointer_types_do_not_confuse_spans() {
        let src = "
            fn outer<F: Fn(u8) -> Vec<Vec<u8>>>(f: F) -> Option<Box<dyn Fn() -> u8>> {
                let g: fn(u8) -> u8 = inner;
                inner(1)
            }
            fn inner(x: u8) -> u8 { x }
        ";
        let items = extract(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        // outer's body span covers the call to inner.
        let (open, close) = items.fns[0].body.unwrap();
        let body_text: Vec<&str> = items.toks[open..=close]
            .iter()
            .map(|t| t.text(&items.src))
            .collect();
        assert!(body_text.contains(&"inner"));
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let src = "
            mod inner {
                pub fn f() {}
                mod deeper { fn g() {} }
            }
            fn after() {}
        ";
        let items = extract(src);
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec!["x::m::inner::f", "x::m::inner::deeper::g", "x::m::after"]
        );
    }

    #[test]
    fn nested_fns_are_items_and_stay_in_parent_body() {
        let src = "fn parent() { fn child() { other() } child() }";
        let items = extract(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["parent", "child"]);
        let (po, pc) = items.fns[0].body.unwrap();
        let (co, cc) = items.fns[1].body.unwrap();
        assert!(po < co && cc <= pc, "child body nested in parent span");
    }

    #[test]
    fn pub_crate_is_not_public_api() {
        let src = "
            pub(crate) fn internal() {}
            pub fn api() {}
            pub const unsafe fn gnarly() {}
        ";
        let items = extract(src);
        assert!(!items.fns[0].is_pub);
        assert!(items.fns[1].is_pub);
        assert!(items.fns[2].is_pub);
    }

    #[test]
    fn lib_and_mod_rs_have_no_module_segment() {
        let items = extract_file(
            strip_code("fn root() {}"),
            "proto",
            "crates/proto/src/lib.rs",
            "src/lib.rs",
        );
        assert_eq!(items.fns[0].qual, "proto::root");
        let items = extract_file(
            strip_code("fn m() {}"),
            "check",
            "crates/check/src/analyze/mod.rs",
            "src/analyze/mod.rs",
        );
        assert_eq!(items.fns[0].qual, "check::analyze::m");
    }
}
