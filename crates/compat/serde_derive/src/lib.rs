//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the companion
//! `serde` shim without depending on `syn`/`quote` (crates.io is unreachable in this build
//! environment): the item is parsed with a small hand-rolled token cursor and the impl is
//! generated as a string, which `proc_macro`'s `FromStr` turns back into tokens.
//!
//! Supported shapes: structs with named fields and enums with unit, tuple, or struct
//! variants, generic or not. A generic item's `<…>` parameters are copied into the impl
//! with their bounds and without their defaults, and no bounds are added: the declared
//! bounds must already imply that every field serializes.
//!
//! Field and variant attributes: `#[serde(skip)]`, `#[serde(default)]`,
//! `#[serde(default = "path")]`, `#[serde(rename = "name")]`,
//! `#[serde(skip_serializing_if = "path")]`.
//!
//! Container attribute: `#[serde(validate = "path")]`. After the derived field reads,
//! `Deserialize` calls `path(&value)`, which returns `Result<(), E>` with `E: Display`;
//! an `Err(e)` becomes the error `invalid <noun>: <e>`, where the noun is the type name
//! split into lower-case words (`LoadProfile` reads `load profile`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone, Default)]
struct Attrs {
    skip: bool,
    default: bool,
    default_path: Option<String>,
    rename: Option<String>,
    skip_serializing_if: Option<String>,
    validate: Option<String>,
}

#[derive(Debug, Clone)]
struct Field {
    ident: String,
    attrs: Attrs,
}

impl Field {
    fn wire_name(&self) -> String {
        self.attrs
            .rename
            .clone()
            .unwrap_or_else(|| self.ident.clone())
    }
}

#[derive(Debug, Clone)]
enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug, Clone)]
struct Variant {
    ident: String,
    rename: Option<String>,
    fields: VariantFields,
}

impl Variant {
    fn wire_name(&self) -> String {
        self.rename.clone().unwrap_or_else(|| self.ident.clone())
    }
}

#[derive(Debug)]
enum ItemKind {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    /// The impl's parameter list, bounds kept and defaults dropped (`<S: Bound>`), or
    /// empty for a non-generic item.
    impl_generics: String,
    /// The type's argument list (`<S>`), or empty.
    type_generics: String,
    /// The `#[serde(validate = "path")]` hook.
    validate: Option<String>,
    kind: ItemKind,
}

/// Derives `serde::Serialize` via the value-tree model.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` via the value-tree model.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = parse_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let kind_kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected item name, found {other:?}"),
    };
    i += 1;
    let (impl_generics, type_generics) = parse_generics(&tokens, &mut i);

    // Skip a possible where-clause (none in this workspace) and find the body group.
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis && kind_kw == "struct" =>
            {
                panic!("serde derive shim: tuple structs are not supported (type `{name}`)")
            }
            Some(_) => i += 1,
            None => panic!("serde derive: no body found for `{name}`"),
        }
    };

    let kind = match kind_kw.as_str() {
        "struct" => ItemKind::Struct(parse_named_fields(body)),
        "enum" => ItemKind::Enum(parse_variants(body)),
        other => panic!("serde derive: cannot derive for `{other}` items"),
    };
    Item {
        name,
        impl_generics,
        type_generics,
        validate: attrs.validate,
        kind,
    }
}

/// Advances past `pub` / `pub(crate)` and the like.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Parses the `<…>` after an item name into the impl's parameter list (each parameter
/// with its bounds, without its default) and the type's argument list (the names).
/// Both are empty when the item is not generic.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> (String, String) {
    if !matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return (String::new(), String::new());
    }
    *i += 1;
    // Each parameter's tokens up to its default, split at top-level commas.
    let mut params: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut in_default = false;
    let mut depth = 0usize;
    loop {
        let tok = tokens
            .get(*i)
            .cloned()
            .expect("serde derive: unterminated generic parameter list");
        *i += 1;
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' if depth == 0 => break,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    params.push(Vec::new());
                    in_default = false;
                    continue;
                }
                '=' if depth == 0 => in_default = true,
                _ => {}
            }
        }
        if !in_default {
            params.last_mut().expect("one parameter is open").push(tok);
        }
    }
    params.retain(|p| !p.is_empty());
    let text = |toks: &[TokenTree]| toks.iter().cloned().collect::<TokenStream>().to_string();
    let bounded: Vec<String> = params.iter().map(|p| text(p)).collect();
    let names: Vec<String> = params
        .iter()
        .map(|p| {
            let colon = p
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(c) if c.as_char() == ':'))
                .unwrap_or(p.len());
            let skip_const =
                usize::from(matches!(&p[0], TokenTree::Ident(id) if id.to_string() == "const"));
            text(&p[skip_const..colon])
        })
        .collect();
    (
        format!("<{}>", bounded.join(", ")),
        format!("<{}>", names.join(", ")),
    )
}

/// Parses `#[serde(...)]`-style attributes at the cursor, returning collected attrs and
/// advancing past every attribute (serde or not).
fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(g)) = tokens.get(*i + 1) else {
            panic!("serde derive: malformed attribute");
        };
        *i += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        let is_serde =
            matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
        if !is_serde {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            continue;
        };
        let arg_tokens: Vec<TokenTree> = args.stream().into_iter().collect();
        let mut j = 0;
        while j < arg_tokens.len() {
            let key = match &arg_tokens[j] {
                TokenTree::Ident(id) => id.to_string(),
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    j += 1;
                    continue;
                }
                other => panic!("serde derive: unexpected attribute token {other:?}"),
            };
            j += 1;
            let mut value: Option<String> = None;
            if let Some(TokenTree::Punct(p)) = arg_tokens.get(j) {
                if p.as_char() == '=' {
                    j += 1;
                    match arg_tokens.get(j) {
                        Some(TokenTree::Literal(lit)) => {
                            value = Some(strip_string_literal(&lit.to_string()));
                            j += 1;
                        }
                        other => {
                            panic!("serde derive: expected literal after `=`, found {other:?}")
                        }
                    }
                }
            }
            match (key.as_str(), value) {
                ("skip", None) | ("skip_serializing", None) | ("skip_deserializing", None) => {
                    attrs.skip = true;
                }
                ("default", None) => attrs.default = true,
                ("default", Some(path)) => {
                    attrs.default = true;
                    attrs.default_path = Some(path);
                }
                ("rename", Some(name)) => attrs.rename = Some(name),
                ("skip_serializing_if", Some(path)) => {
                    attrs.skip_serializing_if = Some(path);
                }
                ("validate", Some(path)) => attrs.validate = Some(path),
                (other, _) => {
                    panic!("serde derive shim: unsupported serde attribute `{other}`")
                }
            }
        }
    }
    attrs
}

fn strip_string_literal(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let ident = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde derive: expected field name, found {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde derive: expected `:` after field `{ident}`, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { ident, attrs });
    }
    fields
}

/// Advances the cursor past a type, stopping after the top-level `,` (or at end of input).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth: i64 = 0;
    let mut prev_dash = false;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                '<' => angle_depth += 1,
                '>' if !prev_dash => angle_depth -= 1,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        *i += 1;
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut i);
        let ident = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde derive: expected variant name, found {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantFields::Tuple(count_top_level_elements(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantFields::Named(parse_named_fields(g.stream()))
            }
            _ => VariantFields::Unit,
        };
        // Skip to the comma separating variants (covers explicit discriminants).
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            ident,
            rename: attrs.rename,
            fields,
        });
    }
    variants
}

fn count_top_level_elements(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth: i64 = 0;
    let mut prev_dash = false;
    let mut trailing_comma = false;
    for tok in &tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => {
                    count += 1;
                    trailing_comma = true;
                    prev_dash = false;
                    continue;
                }
                '<' => angle_depth += 1,
                '>' if !prev_dash => angle_depth -= 1,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(fields) => {
            let mut pushes = String::new();
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                let push = format!(
                    "__fields.push((\"{}\".to_string(), ::serde::Serialize::to_value(&self.{})));\n",
                    f.wire_name(),
                    f.ident
                );
                match &f.attrs.skip_serializing_if {
                    Some(path) => {
                        pushes.push_str(&format!("if !{path}(&self.{}) {{\n{push}}}\n", f.ident))
                    }
                    None => pushes.push_str(&push),
                }
            }
            format!(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                 {pushes}\
                 ::serde::Value::Object(__fields)"
            )
        }
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vi = &v.ident;
                let wire = v.wire_name();
                match &v.fields {
                    VariantFields::Unit => arms.push_str(&format!(
                        "{name}::{vi} => ::serde::Value::Str(\"{wire}\".to_string()),\n"
                    )),
                    VariantFields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vi}(__f0) => ::serde::Value::Object(vec![(\"{wire}\".to_string(), ::serde::Serialize::to_value(__f0))]),\n"
                    )),
                    VariantFields::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let items: Vec<String> = binders
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vi}({}) => ::serde::Value::Object(vec![(\"{wire}\".to_string(), ::serde::Value::Array(vec![{}]))]),\n",
                            binders.join(", "),
                            items.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => {
                        let binders: Vec<String> =
                            fields.iter().map(|f| f.ident.clone()).collect();
                        let mut pushes = String::new();
                        for f in fields {
                            if f.attrs.skip {
                                continue;
                            }
                            pushes.push_str(&format!(
                                "__inner.push((\"{}\".to_string(), ::serde::Serialize::to_value({})));\n",
                                f.wire_name(),
                                f.ident
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vi} {{ {} }} => {{\n\
                             let mut __inner: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                             {pushes}\
                             ::serde::Value::Object(vec![(\"{wire}\".to_string(), ::serde::Value::Object(__inner))])\n\
                             }},\n",
                            binders.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let (impl_generics, type_generics) = (&item.impl_generics, &item.type_generics);
    format!(
        "impl{impl_generics} ::serde::Serialize for {name}{type_generics} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

fn gen_field_read(ty_name: &str, f: &Field, source: &str) -> String {
    if f.attrs.skip {
        return match &f.attrs.default_path {
            Some(path) => format!("{}: {path}(),\n", f.ident),
            None => format!("{}: ::std::default::Default::default(),\n", f.ident),
        };
    }
    let wire = f.wire_name();
    let missing = if f.attrs.default {
        match &f.attrs.default_path {
            Some(path) => format!("{path}()"),
            None => "::std::default::Default::default()".to_string(),
        }
    } else {
        format!(
            "match ::serde::Deserialize::absent() {{\n\
             Some(__d) => __d,\n\
             None => return Err(::serde::Error::missing_field(\"{ty_name}\", \"{wire}\")),\n\
             }}"
        )
    };
    format!(
        "{}: match {source}.get(\"{wire}\") {{\n\
         Some(__v) => ::serde::Deserialize::from_value(__v)?,\n\
         None => {missing},\n\
         }},\n",
        f.ident
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    // Binds the decoded value to `__out`; a malformed input returns early.
    let decode = match &item.kind {
        ItemKind::Struct(fields) => {
            let mut reads = String::new();
            for f in fields {
                reads.push_str(&gen_field_read(name, f, "__value"));
            }
            format!(
                "if __value.as_object().is_none() {{\n\
                 return Err(::serde::Error::unexpected(\"{name} (object)\", __value));\n\
                 }}\n\
                 let __out = {name} {{\n{reads}}};\n"
            )
        }
        ItemKind::Enum(variants) => {
            let mut str_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vi = &v.ident;
                let wire = v.wire_name();
                match &v.fields {
                    VariantFields::Unit => {
                        str_arms.push_str(&format!("\"{wire}\" => {name}::{vi},\n"))
                    }
                    VariantFields::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{wire}\" => {name}::{vi}(::serde::Deserialize::from_value(__inner)?),\n"
                    )),
                    VariantFields::Tuple(n) => {
                        let reads: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{wire}\" => {{\n\
                             let __items = __inner.as_array().ok_or_else(|| ::serde::Error::unexpected(\"{name}::{vi} data (array)\", __inner))?;\n\
                             if __items.len() != {n} {{\n\
                             return Err(::serde::Error::custom(\"wrong tuple arity for {name}::{vi}\"));\n\
                             }}\n\
                             {name}::{vi}({})\n\
                             }}\n",
                            reads.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => {
                        let mut reads = String::new();
                        for f in fields {
                            reads.push_str(&gen_field_read(name, f, "__inner"));
                        }
                        tagged_arms
                            .push_str(&format!("\"{wire}\" => {name}::{vi} {{\n{reads}}},\n"));
                    }
                }
            }
            format!(
                "let __out = if let Some(__s) = __value.as_str() {{\n\
                 match __s {{\n{str_arms}_ => return Err(::serde::Error::custom(format!(\"unknown {name} variant `{{__s}}`\"))),\n}}\n\
                 }} else if let Some((__tag, __inner)) = __value.as_single_entry() {{\n\
                 match __tag {{\n{tagged_arms}_ => return Err(::serde::Error::custom(format!(\"unknown {name} variant `{{__tag}}`\"))),\n}}\n\
                 }} else {{\n\
                 return Err(::serde::Error::unexpected(\"{name} (string or single-entry object)\", __value));\n\
                 }};\n"
            )
        }
    };
    let validate = match &item.validate {
        Some(path) => format!(
            "if let Err(__e) = {path}(&__out) {{\n\
             return Err(::serde::Error::custom(format!(\"invalid {}: {{__e}}\")));\n\
             }}\n",
            type_noun(name)
        ),
        None => String::new(),
    };
    let (impl_generics, type_generics) = (&item.impl_generics, &item.type_generics);
    format!(
        "impl{impl_generics} ::serde::Deserialize for {name}{type_generics} {{\n\
         fn from_value(__value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {decode}{validate}Ok(__out)\n}}\n\
         }}\n"
    )
}

/// The type name split into lower-case words (`LoadProfile` → `load profile`): the noun
/// a `validate` rejection names.
fn type_noun(name: &str) -> String {
    let mut noun = String::new();
    for (k, c) in name.chars().enumerate() {
        if c.is_uppercase() && k > 0 {
            noun.push(' ');
        }
        noun.extend(c.to_lowercase());
    }
    noun
}
