//! Item-level parse of one source file: functions (with body token
//! ranges, owners, annotations), struct field types, `use` imports, and
//! inline module paths. Built on [`crate::tok`]; deliberately a
//! recognizer, not a grammar — anything it does not understand it skips
//! by token-tree matching, so new syntax degrades to missing edges, not
//! parse failures.

use crate::tok::{Tok, TokKind};

/// What owns a method: the `impl` (or `trait`) block it sits in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Owner {
    /// The implementing type's last path segment (`SetAssocCache`), or
    /// the trait name itself for trait-block items.
    pub type_name: String,
    /// For `impl Trait for Type` and `trait Trait` items, the trait.
    pub trait_name: Option<String>,
    /// True for items declared directly in a `trait` block (defaults and
    /// signatures), as opposed to an `impl` block.
    pub in_trait_decl: bool,
}

/// One parsed function (free fn, impl method, or trait item).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Inline-module path within the file (e.g. `["imp"]`), not
    /// including the file-derived module.
    pub modules: Vec<String>,
    pub owner: Option<Owner>,
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Last line of the body (equals `line` for bodyless trait sigs).
    pub end_line: usize,
    /// Token index range of the body, excluding the outer braces.
    /// Empty for bodyless declarations.
    pub body: std::ops::Range<usize>,
    /// Annotated `// lint: hot-path`.
    pub is_hot: bool,
    /// Inside a `#[cfg(test)]` item or carries `#[test]`.
    pub in_test: bool,
    /// The parameter list starts with a `self` receiver. Associated
    /// functions (`has_self == false`) can never be the target of a
    /// `.name(…)` method call.
    pub has_self: bool,
}

/// A struct's (or enum variant's named) fields and their type names.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    /// (field name, resolved type hint). The hint is the last ident of
    /// the field's type path with generics stripped — or, for
    /// `Box<dyn Trait>` / `&dyn Trait`, the trait name tagged as dyn.
    pub fields: Vec<(String, TypeHint)>,
}

/// A field/receiver type hint for method resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeHint {
    /// A concrete type name (`SetAssocCache`, `Vec`, `u64`).
    Concrete(String),
    /// `dyn Trait` — resolves to every in-workspace impl of the trait.
    DynTrait(String),
    /// A generic parameter or something the parser gave up on.
    Unknown,
}

/// Everything the graph pass needs from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    /// `use` imports: (local alias, full path segments).
    pub uses: Vec<(String, Vec<String>)>,
    /// Trait names declared in this file.
    pub traits: Vec<String>,
    /// Token spans of the outermost `#[cfg(test)]` / `#[test]` items,
    /// from the attribute's `#` through the item's last token, in
    /// source order. The local rules skip these spans.
    pub test_spans: Vec<std::ops::Range<usize>>,
}

/// Parses one file's tokens into items.
pub fn parse_items(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    let mut p = Parser {
        toks,
        out: &mut out,
    };
    p.items(0, toks.len(), &mut Vec::new(), None, false);
    out
}

struct Parser<'a> {
    toks: &'a [Tok],
    out: &'a mut FileItems,
}

impl Parser<'_> {
    /// Parses items in `[i, end)` at one nesting level. `owner` is the
    /// enclosing impl/trait block, `in_test` whether a `#[cfg(test)]`
    /// span covers this region.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        modules: &mut Vec<String>,
        owner: Option<&Owner>,
        in_test: bool,
    ) {
        let mut pending_hot = false;
        let mut pending_test = false;
        // Start of the first test attribute on the pending item.
        let mut test_attr: Option<usize> = None;

        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Comment => {
                    if t.text.trim() == "lint: hot-path" {
                        pending_hot = true;
                    }
                    i += 1;
                }
                TokKind::Punct if t.is_punct('#') => {
                    // Attribute: #[...] or #![...]. Inspect for cfg(test)
                    // / test, then skip the bracket tree. `cfg(not(test))`
                    // and `cfg_attr(test, …)` are production attributes.
                    let mut j = i + 1;
                    if self.toks.get(j).is_some_and(|t| t.is_punct('!')) {
                        j += 1;
                    }
                    if self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
                        let close = self.match_tree(j, '[', ']', end);
                        let body: Vec<&str> = self.toks[j + 1..close]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect();
                        if body == ["cfg", "(", "test", ")"] || body == ["test"] {
                            pending_test = true;
                            test_attr.get_or_insert(i);
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                TokKind::Ident => {
                    match t.text.as_str() {
                        // Qualifiers before an item keep pending
                        // annotations armed: `pub`, `pub(crate)`,
                        // `default`, `async`, `unsafe`, `extern "C"`,
                        // and `const` when it qualifies a fn.
                        "pub" => {
                            i += 1;
                            if self.toks.get(i).is_some_and(|t| t.is_punct('(')) {
                                i = self.match_tree(i, '(', ')', end) + 1;
                            }
                        }
                        "async" | "unsafe" | "default" => {
                            i += 1;
                        }
                        "extern" => {
                            i += 1;
                            if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Lit) {
                                i += 1;
                            }
                        }
                        "const" if self.toks.get(i + 1).is_some_and(|t| t.is_ident("fn")) => {
                            i += 1;
                        }
                        "fn" => {
                            i = self.function(
                                i,
                                end,
                                modules,
                                owner,
                                in_test || pending_test,
                                pending_hot,
                            );
                            pending_hot = false;
                            pending_test = false;
                        }
                        "mod" => {
                            let name = self
                                .toks
                                .get(i + 1)
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text.clone());
                            // `mod name {` — inline module; `mod name;`
                            // is a file module handled by path mapping.
                            if let (Some(name), Some(open)) =
                                (name, self.find_open_brace(i + 2, end))
                            {
                                let close = self.match_tree(open, '{', '}', end);
                                modules.push(name);
                                self.items(open + 1, close, modules, None, in_test || pending_test);
                                modules.pop();
                                i = close + 1;
                            } else {
                                i += 2; // `mod name;`
                            }
                            pending_test = false;
                            pending_hot = false;
                        }
                        "impl" => {
                            i = self.impl_block(i, end, modules, in_test || pending_test);
                            pending_test = false;
                            pending_hot = false;
                        }
                        "trait" => {
                            i = self.trait_block(i, end, modules, in_test || pending_test);
                            pending_test = false;
                            pending_hot = false;
                        }
                        "struct" => {
                            i = self.struct_def(i, end);
                            pending_test = false;
                            pending_hot = false;
                        }
                        "use" => {
                            i = self.use_decl(i, end);
                            pending_test = false;
                        }
                        _ => {
                            // Any other item (const, static, enum, type,
                            // macro_rules, extern): skip to the end of
                            // its token tree — the next `;` or matched
                            // `{}` at this level.
                            i = self.skip_item(i, end);
                            pending_test = false;
                            pending_hot = false;
                        }
                    }
                }
                _ => {
                    i += 1;
                }
            }
            if !pending_test {
                if let Some(start) = test_attr.take() {
                    if !in_test {
                        self.out.test_spans.push(start..i);
                    }
                }
            }
        }
    }

    /// Parses `fn name …` starting at the `fn` token; returns the index
    /// after the item.
    fn function(
        &mut self,
        fn_idx: usize,
        end: usize,
        modules: &[String],
        owner: Option<&Owner>,
        in_test: bool,
        is_hot: bool,
    ) -> usize {
        let Some(name_tok) = self
            .toks
            .get(fn_idx + 1)
            .filter(|t| t.kind == TokKind::Ident)
        else {
            return fn_idx + 1;
        };
        let name = name_tok.text.clone();
        let line = self.toks[fn_idx].line;

        // Scan forward for the body brace or a terminating `;`, skipping
        // balanced (), [], <> trees (generics, params, array return
        // types). `where` clauses pass through token by token.
        let mut j = fn_idx + 2;
        let mut body = 0..0;
        let mut end_line = line;
        let mut has_self = false;
        let mut saw_params = false;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('(') {
                let close = self.match_tree(j, '(', ')', end);
                // The first paren tree after the name is the parameter
                // list; a leading `self` (behind any `&`, lifetime, or
                // `mut`) marks a method.
                if !saw_params {
                    saw_params = true;
                    has_self = self.toks[j + 1..close.min(end)]
                        .iter()
                        .find(|t| {
                            !(t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
                        })
                        .is_some_and(|t| t.is_ident("self"));
                }
                j = close + 1;
            } else if t.is_punct('<') {
                j = self.skip_generics(j, end);
            } else if t.is_punct('{') {
                let close = self.match_tree(j, '{', '}', end);
                body = j + 1..close;
                end_line = self.toks.get(close).map_or(line, |t| t.line);
                j = close + 1;
                break;
            } else if t.is_punct(';') {
                j += 1;
                break;
            } else {
                j += 1;
            }
        }

        self.out.fns.push(FnDef {
            modules: modules.to_vec(),
            owner: owner.cloned(),
            name,
            line,
            end_line,
            body,
            is_hot,
            in_test,
            has_self,
        });
        j
    }

    fn impl_block(
        &mut self,
        impl_idx: usize,
        end: usize,
        modules: &mut Vec<String>,
        in_test: bool,
    ) -> usize {
        // impl [<…>] Path [for Path] [where …] { … }
        let mut j = impl_idx + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_generics(j, end);
        }
        let (first, after_first) = self.type_path(j, end);
        let mut type_name = first;
        let mut trait_name = None;
        j = after_first;
        if self.toks.get(j).is_some_and(|t| t.is_ident("for")) {
            let (ty, after_ty) = self.type_path(j + 1, end);
            trait_name = Some(std::mem::replace(&mut type_name, ty));
            j = after_ty;
        }
        let Some(open) = self.find_open_brace(j, end) else {
            return j + 1;
        };
        let close = self.match_tree(open, '{', '}', end);
        let owner = Owner {
            type_name,
            trait_name,
            in_trait_decl: false,
        };
        self.items(open + 1, close, modules, Some(&owner), in_test);
        close + 1
    }

    fn trait_block(
        &mut self,
        trait_idx: usize,
        end: usize,
        modules: &mut Vec<String>,
        in_test: bool,
    ) -> usize {
        let Some(name_tok) = self
            .toks
            .get(trait_idx + 1)
            .filter(|t| t.kind == TokKind::Ident)
        else {
            return trait_idx + 1;
        };
        let name = name_tok.text.clone();
        self.out.traits.push(name.clone());
        let Some(open) = self.find_open_brace(trait_idx + 2, end) else {
            return trait_idx + 2;
        };
        let close = self.match_tree(open, '{', '}', end);
        let owner = Owner {
            type_name: name.clone(),
            trait_name: Some(name),
            in_trait_decl: true,
        };
        self.items(open + 1, close, modules, Some(&owner), in_test);
        close + 1
    }

    fn struct_def(&mut self, struct_idx: usize, end: usize) -> usize {
        let Some(name_tok) = self
            .toks
            .get(struct_idx + 1)
            .filter(|t| t.kind == TokKind::Ident)
        else {
            return struct_idx + 1;
        };
        let name = name_tok.text.clone();
        let mut j = struct_idx + 2;
        if self.toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_generics(j, end);
        }
        // Tuple struct or unit struct: no named fields to record.
        if !self.toks.get(j).is_some_and(|t| t.is_punct('{')) {
            return self.skip_item(j, end);
        }
        let open = j;
        let close = self.match_tree(open, '{', '}', end);
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            // field pattern: [pub] name : Type ,
            let t = &self.toks[k];
            if t.kind == TokKind::Ident
                && !t.is_ident("pub")
                && self.toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && !self.toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                let (hint, after) = self.type_hint(k + 2, close);
                fields.push((t.text.clone(), hint));
                k = after;
            } else if t.is_punct('#') {
                // field attribute
                if self.toks.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                    k = self.match_tree(k + 1, '[', ']', close) + 1;
                } else {
                    k += 1;
                }
            } else {
                k += 1;
            }
        }
        self.out.structs.push(StructDef { name, fields });
        close + 1
    }

    fn use_decl(&mut self, use_idx: usize, end: usize) -> usize {
        // Collect segments up to `;`, expanding one brace group at the
        // tail (`use a::{b, c as d};`). Nested brace groups are rare and
        // only lose precision, never correctness.
        let mut j = use_idx + 1;
        let mut prefix: Vec<String> = Vec::new();
        while j < end {
            let t = &self.toks[j];
            if t.kind == TokKind::Ident {
                prefix.push(t.text.clone());
                j += 1;
            } else if t.is_punct(':') {
                j += 1;
            } else if t.is_punct('{') {
                let close = self.match_tree(j, '{', '}', end);
                let mut group: Vec<String> = Vec::new();
                for k in j + 1..close {
                    let t = &self.toks[k];
                    if t.kind == TokKind::Ident {
                        group.push(t.text.clone());
                    } else if t.is_punct(',') {
                        self.push_use(&prefix, &group);
                        group.clear();
                    }
                }
                self.push_use(&prefix, &group);
                prefix.clear();
                j = close + 1;
            } else if t.is_punct(';') {
                if let Some((last, init)) = prefix.split_last() {
                    self.push_use(init, std::slice::from_ref(last));
                }
                return j + 1;
            } else if t.is_punct('*') {
                // glob import: nothing to record
                j += 1;
            } else {
                j += 1;
            }
        }
        j
    }

    /// Records one `use` leaf. The segments may contain an `as` rename
    /// (`["d", "as", "e"]`): the alias is the segment after `as`, the
    /// path is everything before it.
    fn push_use(&mut self, prefix: &[String], group: &[String]) {
        if group.is_empty() {
            return;
        }
        let mut full: Vec<String> = prefix.to_vec();
        full.extend(group.iter().cloned());
        let (path, alias) = match full.iter().position(|s| s == "as") {
            Some(pos) if pos + 1 < full.len() => (full[..pos].to_vec(), full[pos + 1].clone()),
            _ => (full.clone(), full.last().cloned().unwrap_or_default()),
        };
        if !path.is_empty() && !alias.is_empty() {
            self.out.uses.push((alias, path));
        }
    }

    /// Extracts a field type hint starting at `i` (after the `:`);
    /// returns (hint, index after the field's `,` or closing position).
    fn type_hint(&mut self, mut i: usize, end: usize) -> (TypeHint, usize) {
        let mut last_ident: Option<String> = None;
        let mut dyn_next = false;
        let mut dyn_trait: Option<String> = None;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(',') {
                i += 1;
                break;
            }
            match t.kind {
                TokKind::Ident if t.is_ident("dyn") => {
                    dyn_next = true;
                    i += 1;
                }
                TokKind::Ident => {
                    if dyn_next {
                        dyn_trait = Some(t.text.clone());
                        dyn_next = false;
                    }
                    last_ident = Some(t.text.clone());
                    i += 1;
                }
                TokKind::Punct if t.is_punct('<') => {
                    // Generic arguments: the outer ident is the type—
                    // except for wrappers like Box/Rc/Arc/Option, where
                    // the payload is what methods dispatch on.
                    let close = self.skip_generics(i, end);
                    if matches!(
                        last_ident.as_deref(),
                        Some("Box") | Some("Rc") | Some("Arc") | Some("Option") | Some("RefCell")
                    ) {
                        // Re-scan the payload for `dyn Trait` / inner type.
                        let mut k = i + 1;
                        let mut inner_dyn = false;
                        while k < close.saturating_sub(1) {
                            let t = &self.toks[k];
                            if t.is_ident("dyn") {
                                inner_dyn = true;
                            } else if t.kind == TokKind::Ident {
                                if inner_dyn {
                                    dyn_trait = Some(t.text.clone());
                                    inner_dyn = false;
                                } else {
                                    last_ident = Some(t.text.clone());
                                }
                            }
                            k += 1;
                        }
                    }
                    i = close;
                }
                _ => {
                    i += 1;
                }
            }
        }
        let hint = if let Some(tr) = dyn_trait {
            TypeHint::DynTrait(tr)
        } else if let Some(ty) = last_ident {
            TypeHint::Concrete(ty)
        } else {
            TypeHint::Unknown
        };
        (hint, i)
    }

    /// Reads a type path (`a::b::Type` with optional generics) starting
    /// at `i`; returns (last segment, index after the path).
    fn type_path(&mut self, mut i: usize, end: usize) -> (String, usize) {
        let mut last = String::new();
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident && !t.is_ident("for") && !t.is_ident("where") {
                last = t.text.clone();
                i += 1;
            } else if t.is_punct(':') {
                i += 1;
            } else if t.is_punct('<') {
                i = self.skip_generics(i, end);
            } else if t.is_punct('&') || t.kind == TokKind::Lifetime {
                i += 1;
            } else {
                break;
            }
        }
        (last, i)
    }

    /// Skips a balanced `<…>` tree starting at `i` (a `<`). Handles
    /// `->` (the `>` after `-` does not close) and shifts are absent in
    /// type position.
    fn skip_generics(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let after_dash = i > 0 && self.toks[i - 1].is_punct('-');
                if !after_dash {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
            } else if t.is_punct('(') {
                i = self.match_tree(i, '(', ')', end);
            } else if t.is_punct('{') {
                // const generics: `{ N }` blocks
                i = self.match_tree(i, '{', '}', end);
            }
            i += 1;
        }
        end
    }

    /// Index of the matching close for the open delimiter at `open`.
    fn match_tree(&self, open: usize, ol: char, cl: char, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(ol) {
                depth += 1;
            } else if t.is_punct(cl) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// First `{` before any `;` from `i` (item-header scan).
    fn find_open_brace(&self, mut i: usize, end: usize) -> Option<usize> {
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') {
                return Some(i);
            }
            if t.is_punct(';') {
                return None;
            }
            i += 1;
        }
        None
    }

    /// Skips a non-fn item: to the next `;` at depth 0 or past a matched
    /// `{}` tree, whichever comes first. After an `=` (a `const` or
    /// `static` initializer) `<` is an operator, not generics: `1 << 53`
    /// must not swallow the rest of the file.
    fn skip_item(&self, mut i: usize, end: usize) -> usize {
        let mut in_expr = false;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(';') {
                return i + 1;
            }
            if t.is_punct('{') {
                return self.match_tree(i, '{', '}', end) + 1;
            }
            if t.is_punct('(') {
                i = self.match_tree(i, '(', ')', end) + 1;
                continue;
            }
            if t.is_punct('[') {
                // `[u8; 4]` array types: the `;` is not the item's end.
                i = self.match_tree(i, '[', ']', end) + 1;
                continue;
            }
            if t.is_punct('<') && !in_expr {
                i = self.skip_generics(i, end);
                continue;
            }
            in_expr |= t.is_punct('=');
            i += 1;
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tok::tokenize;

    fn parse(src: &str) -> FileItems {
        parse_items(&tokenize(src))
    }

    #[test]
    fn free_fns_and_methods() {
        let items = parse(
            "fn free() { helper(); }\n\
             struct S { x: u64 }\n\
             impl S {\n    fn method(&self) -> u64 { self.x }\n}\n",
        );
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "free");
        assert!(items.fns[0].owner.is_none());
        assert_eq!(items.fns[1].name, "method");
        assert_eq!(items.fns[1].owner.as_ref().unwrap().type_name, "S");
    }

    #[test]
    fn trait_impls_carry_both_names() {
        let items = parse(
            "trait Policy { fn access(&mut self) -> u64; fn warm(&self) -> bool { true } }\n\
             struct P;\n\
             impl Policy for P { fn access(&mut self) -> u64 { 1 } }\n",
        );
        let access_impl = items
            .fns
            .iter()
            .find(|f| f.name == "access" && !f.owner.as_ref().unwrap().in_trait_decl)
            .unwrap();
        assert_eq!(access_impl.owner.as_ref().unwrap().type_name, "P");
        assert_eq!(
            access_impl.owner.as_ref().unwrap().trait_name.as_deref(),
            Some("Policy")
        );
        let warm = items.fns.iter().find(|f| f.name == "warm").unwrap();
        assert!(warm.owner.as_ref().unwrap().in_trait_decl);
        assert!(!warm.body.is_empty());
        assert_eq!(items.traits, vec!["Policy"]);
    }

    #[test]
    fn hot_annotation_attaches_through_attributes() {
        let items = parse(
            "impl S {\n    // lint: hot-path\n    #[inline]\n    pub fn step(&mut self) {}\n\
             \n    pub fn cold(&mut self) {}\n}\n",
        );
        assert!(items.fns[0].is_hot);
        assert!(!items.fns[1].is_hot);
    }

    #[test]
    fn cfg_test_marks_fns() {
        let items = parse(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib(); }\n}\n",
        );
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
        assert_eq!(items.fns[1].modules, vec!["tests"]);
        // One span for the whole module, from `#` to its closing brace.
        let toks = tokenize("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }\nfn after() {}\n");
        let spans = parse_items(&toks).test_spans;
        assert_eq!(spans.len(), 1);
        assert!(toks[spans[0].start].is_punct('#'));
        assert!(toks[spans[0].end - 1].is_punct('}'));
        assert!(toks[spans[0].end + 1].is_ident("after"));
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let items = parse(
            "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n\
             #[cfg_attr(test, derive(Debug))]\nstruct S;\n\
             #[test]\nfn t() {}\n",
        );
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
        assert_eq!(items.test_spans.len(), 1);
    }

    #[test]
    fn struct_field_hints() {
        let items = parse(
            "struct H { l1: SetAssocCache, policy: Box<dyn HmaPolicy>, n: u64, buf: Vec<Line>, g: P }\n",
        );
        let s = &items.structs[0];
        assert_eq!(
            s.fields[0],
            ("l1".into(), TypeHint::Concrete("SetAssocCache".into()))
        );
        assert_eq!(
            s.fields[1],
            ("policy".into(), TypeHint::DynTrait("HmaPolicy".into()))
        );
        assert_eq!(
            s.fields[3],
            ("buf".into(), TypeHint::Concrete("Vec".into()))
        );
    }

    #[test]
    fn uses_with_groups_and_aliases() {
        let items = parse("use a::b::{c, d as e};\nuse x::Y;\n");
        assert!(items
            .uses
            .iter()
            .any(|(n, p)| n == "c" && p.join("::") == "a::b::c"));
        assert!(items
            .uses
            .iter()
            .any(|(n, p)| n == "e" && p.join("::") == "a::b::d"));
        assert!(items
            .uses
            .iter()
            .any(|(n, p)| n == "Y" && p.join("::") == "x::Y"));
    }

    #[test]
    fn multiline_signatures_and_where_clauses() {
        let items = parse(
            "pub fn run<M: MemorySystem>(\n    sys: &mut M,\n    n: u64,\n) -> Outcome\nwhere M: Sized {\n    sys.access(n);\n}\n",
        );
        assert_eq!(items.fns.len(), 1);
        assert!(!items.fns[0].body.is_empty());
    }

    #[test]
    fn bodyless_trait_sigs_have_empty_bodies() {
        let items = parse("trait T { fn sig(&self) -> u64; }\n");
        assert!(items.fns[0].body.is_empty());
    }

    #[test]
    fn shifts_in_const_initializers_are_not_generics() {
        let items =
            parse("const FULL: u64 = 1 << 53;\nconst T: [u8; 2] = [1, 2];\nfn after() {}\n");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "after");
    }

    #[test]
    fn nested_mods_scope_fn_paths() {
        let items = parse("mod outer { mod inner { fn deep() {} } fn shallow() {} }\n");
        assert_eq!(items.fns[0].modules, vec!["outer", "inner"]);
        assert_eq!(items.fns[1].modules, vec!["outer"]);
    }
}
