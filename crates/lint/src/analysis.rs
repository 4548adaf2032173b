//! Structural analysis over the token stream.
//!
//! A single forward pass reconstructs just enough structure for the rules: brace-scope
//! nesting with the enclosing `impl` type and function name, `#[cfg(test)]` / `#[test]`
//! spans, `#[derive(...)]` lists per type, which types define `fn validate`, and the
//! `// pliant-lint: allow(rule)` suppression pragmas.

use std::collections::{BTreeMap, BTreeSet};

use crate::tokenizer::{tokenize, Lexed, Token, TokenKind};

/// Context attached to every token by the structural pass.
#[derive(Debug, Clone, Default)]
pub struct TokenContext {
    /// Index into [`FileAnalysis::functions`] of the innermost enclosing function.
    pub function: Option<usize>,
    /// Whether the token is inside `#[cfg(test)]` or a `#[test]` function.
    pub in_test: bool,
}

/// One function item encountered in the file.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    /// Bare function name (`step`).
    pub name: String,
    /// Name qualified by the enclosing `impl` type when there is one
    /// (`ClusterNode::step`), otherwise the bare name.
    pub qualified: String,
}

/// A `#[derive(...)]`-annotated type.
#[derive(Debug, Clone)]
pub struct DeriveInfo {
    /// The struct/enum name.
    pub type_name: String,
    /// 1-based line of the `derive` attribute.
    pub line: u32,
    /// The derived trait names.
    pub traits: Vec<String>,
    /// Whether the item carries a `#[serde(validate = "…")]` hook.
    pub validated: bool,
    /// Whether the item sits inside test code.
    pub in_test: bool,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Path as reported in diagnostics (relative to the scan root).
    pub rel_path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per-token context, parallel to `tokens`.
    pub context: Vec<TokenContext>,
    /// All function items, indexed by [`TokenContext::function`].
    pub functions: Vec<FunctionInfo>,
    /// All derived types.
    pub derives: Vec<DeriveInfo>,
    /// Type names that define `fn validate` in an `impl` block in this file.
    pub validate_types: BTreeSet<String>,
    /// Lines suppressed per rule by `// pliant-lint: allow(rule)` pragmas.
    pub suppressed: BTreeMap<String, BTreeSet<u32>>,
}

impl FileAnalysis {
    /// Whether a finding of `rule` at `line` is suppressed by a pragma.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressed
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    }
}

/// Tokenizes and structurally analyzes one file.
pub fn analyze(rel_path: &str, source: &str) -> FileAnalysis {
    let Lexed { tokens, comments } = tokenize(source);

    let mut analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        context: Vec::with_capacity(tokens.len()),
        functions: Vec::new(),
        derives: Vec::new(),
        validate_types: BTreeSet::new(),
        suppressed: BTreeMap::new(),
        tokens: Vec::new(),
    };

    // --- Suppression pragmas -------------------------------------------------------
    // `// pliant-lint: allow(rule-a, rule-b) <justification>` suppresses findings of the
    // named rules on the pragma's own line (trailing form) or, for a standalone comment
    // line, on the next line that carries a token.
    for comment in &comments {
        let Some(rules) = parse_pragma(&comment.text) else {
            continue;
        };
        let trailing = tokens.iter().any(|t| t.line == comment.line);
        let mut lines = BTreeSet::new();
        lines.insert(comment.line);
        if !trailing {
            if let Some(next) = tokens.iter().map(|t| t.line).find(|&l| l > comment.line) {
                lines.insert(next);
            }
        }
        for rule in rules {
            analysis
                .suppressed
                .entry(rule)
                .or_default()
                .extend(lines.iter().copied());
        }
    }

    // --- Structural pass -----------------------------------------------------------
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::default();
    // Open `(` and `[`: a `;` inside them (`[f64; 3]` in a signature) ends no item.
    let mut nesting = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let tok = &tokens[i];
        let in_test_now =
            |scopes: &[Scope], pending: &Pending| scopes.iter().any(|s| s.test) || pending.test;

        match tok.kind {
            TokenKind::Punct if tok.is_punct('#') => {
                // Attribute: `#[...]` (outer) or `#![...]` (inner, ignored).
                let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
                let open = i + if inner { 2 } else { 1 };
                if tokens.get(open).is_some_and(|t| t.is_punct('[')) {
                    let close = matching_bracket(&tokens, open, '[', ']');
                    if !inner {
                        pending.absorb_attribute(&tokens[open + 1..close], tok.line);
                    }
                    // Tokens of the attribute carry the current context.
                    let ctx = TokenContext {
                        function: scopes.iter().rev().find_map(|s| s.function),
                        in_test: in_test_now(&scopes, &pending),
                    };
                    for _ in i..=close.min(tokens.len().saturating_sub(1)) {
                        analysis.context.push(ctx.clone());
                    }
                    i = close + 1;
                    continue;
                }
            }
            TokenKind::Ident => match tok.text.as_str() {
                "mod" => {
                    pending.item = Some(PendingItem::Mod);
                }
                // `impl Trait` in a signature (`f: impl Fn()`, `-> impl Iterator`)
                // is a type, not an impl block: the pending function keeps its body.
                "impl" if !matches!(pending.item, Some(PendingItem::Fn(_))) => {
                    let (type_name, _) = impl_type_name(&tokens, i);
                    pending.item = Some(PendingItem::Impl(type_name));
                }
                "fn" => {
                    let name = tokens
                        .get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    if name == "validate" {
                        if let Some(ty) = scopes.iter().rev().find_map(|s| s.impl_type.clone()) {
                            analysis.validate_types.insert(ty);
                        }
                    }
                    pending.item = Some(PendingItem::Fn(name));
                }
                "struct" | "enum" | "union" | "trait" => {
                    let name = tokens
                        .get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    let validated = std::mem::take(&mut pending.validated);
                    if let Some((traits, line)) = pending.derives.take() {
                        if !name.is_empty() {
                            analysis.derives.push(DeriveInfo {
                                type_name: name.clone(),
                                line,
                                traits,
                                validated,
                                in_test: in_test_now(&scopes, &pending),
                            });
                        }
                    }
                    pending.item = Some(PendingItem::Other);
                }
                _ => {}
            },
            TokenKind::Punct if tok.is_punct('{') => {
                let test = scopes.iter().any(|s| s.test) || pending.test;
                let scope = match pending.item.take() {
                    Some(PendingItem::Fn(name)) => {
                        let qualified = match scopes.iter().rev().find_map(|s| s.impl_type.clone())
                        {
                            Some(ty) => format!("{ty}::{name}"),
                            None => name.clone(),
                        };
                        analysis.functions.push(FunctionInfo { name, qualified });
                        Scope {
                            function: Some(analysis.functions.len() - 1),
                            impl_type: None,
                            test,
                        }
                    }
                    Some(PendingItem::Impl(ty)) => Scope {
                        function: None,
                        impl_type: Some(ty),
                        test,
                    },
                    Some(PendingItem::Mod) | Some(PendingItem::Other) | None => Scope {
                        function: None,
                        impl_type: None,
                        test,
                    },
                };
                pending.test = false;
                pending.derives = None;
                pending.validated = false;
                scopes.push(scope);
            }
            TokenKind::Punct if tok.is_punct('}') => {
                scopes.pop();
            }
            TokenKind::Punct if tok.is_punct('(') || tok.is_punct('[') => nesting += 1,
            TokenKind::Punct if tok.is_punct(')') || tok.is_punct(']') => {
                nesting = nesting.saturating_sub(1);
            }
            TokenKind::Punct if tok.is_punct(';') && nesting == 0 => {
                // `mod name;`, `use ...;`, trait method declarations: the pending item
                // and attributes never materialize into a scope.
                pending.item = None;
                pending.test = false;
                pending.derives = None;
                pending.validated = false;
            }
            _ => {}
        }

        analysis.context.push(TokenContext {
            function: scopes.iter().rev().find_map(|s| s.function),
            in_test: in_test_now(&scopes, &pending),
        });
        i += 1;
    }

    analysis.tokens = tokens;
    debug_assert_eq!(analysis.tokens.len(), analysis.context.len());
    analysis
}

#[derive(Debug)]
struct Scope {
    function: Option<usize>,
    impl_type: Option<String>,
    test: bool,
}

#[derive(Debug, Default)]
struct Pending {
    item: Option<PendingItem>,
    /// `#[cfg(test)]` or `#[test]` seen and not yet attached to an item.
    test: bool,
    /// `#[derive(...)]` traits and attribute line, not yet attached to a type.
    derives: Option<(Vec<String>, u32)>,
    /// `#[serde(validate = "…")]` seen and not yet attached to a type.
    validated: bool,
}

impl Pending {
    /// Inspects one outer attribute's tokens (the slice between `[` and `]`).
    fn absorb_attribute(&mut self, body: &[Token], line: u32) {
        let idents: Vec<&str> = body
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        match idents.as_slice() {
            // Exactly `#[cfg(test)]` / `#[test]`; `#[cfg(not(test))]` must not match.
            ["cfg", "test"] | ["test"] => self.test = true,
            [first, rest @ ..] if *first == "derive" => {
                let traits = rest.iter().map(|s| s.to_string()).collect();
                self.derives = Some((traits, line));
            }
            ["serde", args @ ..] if args.contains(&"validate") => self.validated = true,
            _ => {}
        }
    }
}

#[derive(Debug)]
enum PendingItem {
    Fn(String),
    Impl(String),
    Mod,
    Other,
}

/// Index of the bracket matching `tokens[open]` (which must be `open_c`), or the last
/// token index if unbalanced.
fn matching_bracket(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Resolves the self type of an `impl` at token index `i` (pointing at `impl`): the last
/// path-segment identifier at angle-depth 0 before the opening brace, taken after `for`
/// when present (`impl<T> Trait<T> for Type<T> { .. }` -> `Type`).
fn impl_type_name(tokens: &[Token], i: usize) -> (String, usize) {
    let mut angle_depth = 0i32;
    let mut last_ident: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut j = i + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct => match t.text.as_bytes() {
                b"<" => angle_depth += 1,
                b">" => angle_depth -= 1,
                b"{" | b";" => break,
                _ => {}
            },
            TokenKind::Ident if angle_depth == 0 => match t.text.as_str() {
                "for" => after_for = None,
                "where" => break,
                name => {
                    last_ident = Some(name);
                    if tokens[i + 1..j]
                        .iter()
                        .any(|t| t.kind == TokenKind::Ident && t.text == "for")
                    {
                        after_for = Some(name);
                    }
                }
            },
            _ => {}
        }
        j += 1;
    }
    let name = after_for.or(last_ident).unwrap_or_default().to_string();
    (name, j)
}

/// Parses `pliant-lint: allow(rule-a, rule-b)` out of a comment, returning the rule
/// names, or `None` if the comment is not a pragma.
fn parse_pragma(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("pliant-lint:")?;
    let rest = comment[idx + "pliant-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let end = rest.find(')')?;
    let rules: Vec<String> = rest[..end]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_context_is_qualified_by_impl_type() {
        let src = "
            impl ClusterNode {
                pub fn step(&mut self) { let x = compute(); }
            }
            fn free_standing() {}
        ";
        let a = analyze("x.rs", src);
        assert_eq!(a.functions.len(), 2);
        assert_eq!(a.functions[0].qualified, "ClusterNode::step");
        assert_eq!(a.functions[1].qualified, "free_standing");
        // The `compute` token sits inside ClusterNode::step.
        let idx = a.tokens.iter().position(|t| t.is_ident("compute")).unwrap();
        assert_eq!(a.context[idx].function, Some(0));
    }

    #[test]
    fn array_types_in_a_signature_keep_the_function() {
        let src = "impl Kernel { fn step(buf: &mut [[f64; 3]], n: [u8; 2]) { work(); } }";
        let a = analyze("x.rs", src);
        assert_eq!(a.functions.len(), 1);
        assert_eq!(a.functions[0].qualified, "Kernel::step");
        let idx = a.tokens.iter().position(|t| t.is_ident("work")).unwrap();
        assert_eq!(a.context[idx].function, Some(0));
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_function() {
        let src = "
            impl Samples {
                fn map(v: &mut [f64], f: impl Fn(f64) -> f64) { work(); }
                fn keys(&self) -> impl Iterator<Item = usize> + '_ { more(); }
            }
            fn after() {}
        ";
        let a = analyze("x.rs", src);
        let qualified: Vec<&str> = a.functions.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(qualified, ["Samples::map", "Samples::keys", "after"]);
        for (body, function) in [("work", 0), ("more", 1)] {
            let idx = a.tokens.iter().position(|t| t.is_ident(body)).unwrap();
            assert_eq!(a.context[idx].function, Some(function), "{body}");
        }
    }

    #[test]
    fn trait_impls_resolve_the_self_type() {
        let src = "impl<T: Clone> serde::Deserialize for Wrapper<T> { fn from_value() {} }";
        let a = analyze("x.rs", src);
        assert_eq!(a.functions[0].qualified, "Wrapper::from_value");
    }

    #[test]
    fn cfg_test_marks_the_whole_module() {
        let src = "
            fn lib_code() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { y.unwrap(); }
            }
        ";
        let a = analyze("x.rs", src);
        let unwraps: Vec<bool> = a
            .tokens
            .iter()
            .zip(&a.context)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, c)| c.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nmod real { fn f() {} }";
        let a = analyze("x.rs", src);
        assert!(a.context.iter().all(|c| !c.in_test));
    }

    #[test]
    fn test_attribute_marks_only_that_function() {
        let src = "
            #[test]
            fn a_test() { x.unwrap(); }
            fn lib_code() { y.unwrap(); }
        ";
        let a = analyze("x.rs", src);
        let unwraps: Vec<bool> = a
            .tokens
            .iter()
            .zip(&a.context)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, c)| c.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn derives_and_validate_types_are_collected() {
        let src = "
            #[derive(Debug, Serialize, Deserialize)]
            pub struct Config { x: f64 }
            impl Config {
                pub fn validate(&self) -> bool { true }
            }
            #[derive(Serialize)]
            struct Plain;
            #[derive(Deserialize)]
            #[serde(validate = \"Checked::validate\")]
            struct Checked { #[serde(default)] y: u32 }
        ";
        let a = analyze("x.rs", src);
        assert_eq!(a.derives.len(), 3);
        assert_eq!(a.derives[0].type_name, "Config");
        assert!(a.derives[0].traits.iter().any(|t| t == "Deserialize"));
        assert_eq!(a.derives[0].line, 2);
        assert!(!a.derives[0].validated);
        assert!(a.derives[2].validated);
        assert!(a.validate_types.contains("Config"));
        assert!(!a.validate_types.contains("Plain"));
    }

    #[test]
    fn pragma_trailing_and_standalone() {
        let src = "
            let a = x.unwrap(); // pliant-lint: allow(panic-hygiene) poisoned lock
            // pliant-lint: allow(nan-unsafe-cmp, panic-hygiene): finite by invariant
            let b = y.unwrap();
            let c = z.unwrap();
        ";
        let a = analyze("x.rs", src);
        assert!(a.is_suppressed("panic-hygiene", 2));
        assert!(a.is_suppressed("panic-hygiene", 4));
        assert!(a.is_suppressed("nan-unsafe-cmp", 4));
        assert!(!a.is_suppressed("panic-hygiene", 5));
    }
}
