//! `#[derive(Serialize, Deserialize)]` for the workspace's serde: a
//! `Serialize` impl writes JSON field by field through `serde::Writer`,
//! and a `Deserialize` impl decodes a parsed `serde::Value`.
//!
//! The item is parsed straight from its token stream. Supported: structs
//! (named, tuple, unit), enums (unit, newtype, tuple and struct variants),
//! lifetime, type and const generics without `where` clauses, and the
//! attributes the workspace uses: `default`, `default = "path"`,
//! `skip_serializing_if`, `rename_all = "snake_case"` (on enums), `tag` (on
//! enums of unit and struct variants) and `untagged` (on enums of unit and
//! newtype variants, to deserialize). Anything else is a compile error
//! naming the attribute or variant, so a gap cannot pass silently.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> Result<String, String>) -> TokenStream {
    let code = parse_item(input).and_then(|item| gen(&item));
    match code {
        Ok(code) => code.parse().expect("generated code parses"),
        Err(msg) => format!("::core::compile_error!({msg:?});")
            .parse()
            .expect("error parses"),
    }
}

// ---------------------------------------------------------------- model

#[derive(Default)]
struct Attrs {
    default: Option<Option<String>>,
    skip_if: Option<String>,
    /// Only `snake_case`, applied to variant names.
    snake_case: bool,
    tag: Option<String>,
    untagged: bool,
}

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    attrs: Attrs,
}

enum Body {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    name: String,
    body: Body,
}

enum Data {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Param {
    /// The declaration without a default, e.g. `T: Clone` or `'a`.
    decl: String,
    /// How the type names it, e.g. `T` or `'a`.
    name: String,
    is_type: bool,
}

struct Item {
    name: String,
    attrs: Attrs,
    params: Vec<Param>,
    data: Data,
}

// --------------------------------------------------------------- parsing

fn text(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Split `tokens` at commas outside `<...>`.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_joint_dash = false;
    for t in tokens {
        let mut joint_dash = false;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_joint_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    prev_joint_dash = false;
                    continue;
                }
                '-' => joint_dash = p.spacing() == Spacing::Joint,
                _ => {}
            }
        }
        prev_joint_dash = joint_dash;
        parts.last_mut().expect("non-empty").push(t.clone());
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn unquote(lit: &str) -> Result<String, String> {
    lit.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.replace("\\\"", "\"").replace("\\\\", "\\"))
        .ok_or_else(|| format!("serde stand-in: expected a string literal, got {lit}"))
}

/// Fold one `#[serde(...)]` argument list into `attrs`.
fn parse_serde_args(group: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    for arg in split_commas(&tokens) {
        let key = arg[0].to_string();
        let value = match (arg.get(1), arg.get(2)) {
            (Some(eq), Some(lit)) if is_punct(eq, '=') => Some(unquote(&lit.to_string())?),
            (None, _) => None,
            _ => {
                return Err(format!(
                    "serde stand-in: cannot parse attribute `{}`",
                    text(&arg)
                ))
            }
        };
        match (key.as_str(), value) {
            ("default", v) => attrs.default = Some(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_if = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => attrs.snake_case = true,
            ("tag", Some(v)) if !v.contains(['"', '\\']) && !v.contains(char::is_control) => {
                attrs.tag = Some(v)
            }
            ("untagged", None) => attrs.untagged = true,
            _ => {
                return Err(format!(
                    "serde stand-in: unsupported attribute `{}`",
                    text(&arg)
                ))
            }
        }
    }
    Ok(())
}

/// Consume leading outer attributes at `tokens[*i..]`.
fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while *i + 1 < tokens.len() && is_punct(&tokens[*i], '#') {
        let TokenTree::Group(g) = &tokens[*i + 1] else {
            break;
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if inner.first().is_some_and(|t| is_ident(t, "serde")) {
            if let Some(TokenTree::Group(args)) = inner.get(1) {
                parse_serde_args(args.stream(), &mut attrs)?;
            }
        }
        *i += 2;
    }
    Ok(attrs)
}

/// Skip `pub`, `pub(crate)` and the like.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if tokens.get(*i).is_some_and(|t| is_ident(t, "pub")) {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

fn parse_fields(group: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .map(|field| {
            let mut i = 0;
            let attrs = parse_attrs(&field, &mut i)?;
            skip_vis(&field, &mut i);
            let name = if named {
                match (field.get(i), field.get(i + 1)) {
                    (Some(TokenTree::Ident(id)), Some(colon)) if is_punct(colon, ':') => {
                        Some(id.to_string().trim_start_matches("r#").to_string())
                    }
                    _ => {
                        return Err(format!(
                            "serde stand-in: cannot parse field `{}`",
                            text(&field)
                        ))
                    }
                }
            } else {
                None
            };
            Ok(Field { name, attrs })
        })
        .collect()
}

fn parse_body(tokens: &[TokenTree], i: usize) -> Result<Body, String> {
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Body::Named(parse_fields(g.stream(), true)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Body::Tuple(parse_fields(g.stream(), false)?))
        }
        None => Ok(Body::Unit),
        Some(t) if is_punct(t, ';') || is_punct(t, '=') => Ok(Body::Unit),
        Some(t) if is_ident(t, "where") => {
            Err("serde stand-in: `where` clauses are unsupported".into())
        }
        Some(t) => Err(format!("serde stand-in: unexpected token `{t}`")),
    }
}

fn parse_variants(group: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .map(|v| {
            let mut i = 0;
            // Variant attributes: none are supported, but they are checked.
            parse_attrs(&v, &mut i)?;
            let name = match v.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => {
                    return Err(format!(
                        "serde stand-in: cannot parse variant `{}`",
                        text(&v)
                    ))
                }
            };
            Ok(Variant {
                name,
                body: parse_body(&v, i + 1)?,
            })
        })
        .collect()
}

fn parse_params(tokens: &[TokenTree]) -> Vec<Param> {
    split_commas(tokens)
        .into_iter()
        .map(|p| {
            let decl_end = p.iter().position(|t| is_punct(t, '=')).unwrap_or(p.len());
            let decl = text(&p[..decl_end]);
            if is_punct(&p[0], '\'') {
                Param {
                    decl,
                    name: text(&p[..2]),
                    is_type: false,
                }
            } else if is_ident(&p[0], "const") {
                Param {
                    decl,
                    name: p[1].to_string(),
                    is_type: false,
                }
            } else {
                Param {
                    decl,
                    name: p[0].to_string(),
                    is_type: true,
                }
            }
        })
        .collect()
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = parse_attrs(&tokens, &mut i)?;
    skip_vis(&tokens, &mut i);
    let is_enum = match tokens.get(i) {
        Some(t) if is_ident(t, "struct") => false,
        Some(t) if is_ident(t, "enum") => true,
        _ => return Err("serde stand-in: only structs and enums are supported".into()),
    };
    let name = tokens
        .get(i + 1)
        .map(ToString::to_string)
        .ok_or("serde stand-in: missing name")?;
    i += 2;
    let mut params = Vec::new();
    if tokens.get(i).is_some_and(|t| is_punct(t, '<')) {
        let start = i + 1;
        let mut depth = 1;
        i += 1;
        while depth > 0 {
            let t = tokens.get(i).ok_or("serde stand-in: unclosed generics")?;
            if is_punct(t, '<') {
                depth += 1;
            } else if is_punct(t, '>') && !(i > 0 && is_punct(&tokens[i - 1], '-')) {
                depth -= 1;
            }
            i += 1;
        }
        params = parse_params(&tokens[start..i - 1]);
    }
    let data = if is_enum {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            _ => return Err("serde stand-in: cannot parse enum body".into()),
        }
    } else {
        Data::Struct(parse_body(&tokens, i)?)
    };
    Ok(Item {
        name,
        attrs,
        params,
        data,
    })
}

// ------------------------------------------------------------ generation

const P: &str = "::serde::__private";
const SER: &str = "::serde::Serialize";
const OK: &str = "::core::result::Result::Ok";
const ERR: &str = "::core::result::Result::Err";
const RESULT: &str = "::core::result::Result";

/// A variant's name on the wire.
fn variant_key(v: &Variant, snake_case: bool) -> String {
    if !snake_case {
        return v.name.clone();
    }
    let mut out = String::new();
    for (i, c) in v.name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

fn field_name(f: &Field) -> &str {
    f.name.as_deref().expect("named field")
}

/// `impl<...>` generics, adding `bound` to every type parameter.
fn impl_generics(params: &[Param], bound: &str) -> String {
    let parts: Vec<String> = params
        .iter()
        .map(|p| {
            if p.is_type {
                let sep = if p.decl.contains(':') { " +" } else { ":" };
                format!("{}{sep} {bound}", p.decl)
            } else {
                p.decl.clone()
            }
        })
        .collect();
    format!("<{}>", parts.join(", "))
}

fn type_generics(params: &[Param]) -> String {
    if params.is_empty() {
        String::new()
    } else {
        format!(
            "<{}>",
            params
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// `name` as a JSON object key and its colon, for `Writer::field`. Field
/// and variant names are Rust identifiers and a `tag` is checked where it
/// is parsed, so none needs an escape.
fn json_key(name: &str) -> String {
    format!("\"{name}\":")
}

/// Statements writing an object: the `(tag, variant key)` entry first
/// when given, then the named fields, each skipped when its
/// `skip_serializing_if` holds; `access(name)` yields an expression of
/// type `&FieldType`.
fn ser_object(
    tag: Option<(&str, &str)>,
    fields: &[Field],
    access: &dyn Fn(&str) -> String,
) -> String {
    let mut out = String::from("__w.begin('{');");
    if let Some((tag, key)) = tag {
        out.push_str(&format!(
            "__w.field({:?}); __w.str({key:?});",
            json_key(tag)
        ));
    }
    for f in fields {
        let name = field_name(f);
        let write = format!(
            "__w.field({:?}); {SER}::serialize({}, __w);",
            json_key(name),
            access(name)
        );
        match &f.attrs.skip_if {
            Some(pred) => out.push_str(&format!("if !{pred}({}) {{ {write} }}", access(name))),
            None => out.push_str(&write),
        }
    }
    out.push_str("__w.end('}');");
    out
}

/// `__b0, __b1, ...` for `n` tuple fields.
fn tuple_binds(n: usize) -> String {
    (0..n)
        .map(|i| format!("__b{i}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Statements writing tuple fields bound as `__b0, __b1, ...`: one field
/// as itself, more as an array.
fn ser_tuple(n: usize) -> String {
    if n == 1 {
        return format!("{SER}::serialize(__b0, __w);");
    }
    let items: String = (0..n)
        .map(|i| format!("__w.item(); {SER}::serialize(__b{i}, __w);"))
        .collect();
    format!("__w.begin('['); {items} __w.end(']');")
}

fn gen_serialize(item: &Item) -> Result<String, String> {
    let body = match &item.data {
        Data::Struct(Body::Named(fields)) => ser_object(None, fields, &|n| format!("&self.{n}")),
        Data::Struct(Body::Tuple(fields)) => format!(
            "let {}({}) = self; {}",
            item.name,
            tuple_binds(fields.len()),
            ser_tuple(fields.len())
        ),
        Data::Struct(Body::Unit) => "__w.null();".to_string(),
        Data::Enum(variants) => {
            let mut arms = String::new();
            let access = |n: &str| format!("__f_{n}");
            for v in variants {
                let key = variant_key(v, item.attrs.snake_case);
                let tag = item.attrs.tag.as_deref().map(|tag| (tag, key.as_str()));
                let (pattern, write) = match &v.body {
                    Body::Tuple(_) if tag.is_some() => {
                        return Err(format!(
                            "serde stand-in: internally tagged tuple variant {}",
                            v.name
                        ))
                    }
                    Body::Unit if tag.is_some() => (String::new(), ser_object(tag, &[], &access)),
                    Body::Unit if item.attrs.untagged => (String::new(), "__w.null();".into()),
                    Body::Unit => (String::new(), format!("__w.str({key:?});")),
                    Body::Tuple(f) => (format!("({})", tuple_binds(f.len())), ser_tuple(f.len())),
                    Body::Named(f) => {
                        let binds: Vec<String> = f
                            .iter()
                            .map(|f| format!("{0}: __f_{0}", field_name(f)))
                            .collect();
                        let fields = ser_object(tag, f, &access);
                        (format!("{{ {} }}", binds.join(", ")), fields)
                    }
                };
                // An externally tagged payload sits under its variant key.
                let external = tag.is_none() && !item.attrs.untagged;
                let write = match &v.body {
                    Body::Tuple(_) | Body::Named(_) if external => format!(
                        "__w.begin('{{'); __w.field({:?}); {write} __w.end('}}');",
                        json_key(&key)
                    ),
                    _ => write,
                };
                arms.push_str(&format!(
                    "{}::{}{pattern} => {{ {write} }}",
                    item.name, v.name
                ));
            }
            if variants.is_empty() {
                "match *self {}".to_string()
            } else {
                format!("match self {{ {arms} }}")
            }
        }
    };
    Ok(format!(
        "#[automatically_derived] impl{ig} {SER} for {name}{tg} {{
            fn serialize<const __P: bool>(&self, __w: &mut ::serde::Writer<'_, __P>) {{ {body} }}
        }}",
        ig = impl_generics(&item.params, SER),
        name = item.name,
        tg = type_generics(&item.params),
    ))
}

/// Expression decoding named field `f` from its slot `__f{i}`.
fn de_field(i: usize, f: &Field, container_default: bool) -> String {
    let name = field_name(f);
    let fallback = match (&f.attrs.default, container_default) {
        (Some(Some(path)), _) => path.clone(),
        (Some(None), _) => "::core::default::Default::default".to_string(),
        (None, true) => format!("|| __dflt.{name}"),
        (None, false) => return format!("{P}::field(__f{i}, {name:?})?"),
    };
    format!("{P}::field_or(__f{i}, {name:?}, {fallback})?")
}

/// Expression building struct or struct variant `path` from the object
/// entries `entries`: one pass keeps each field's last value, then the
/// fields decode in declaration order.
fn de_named(path: &str, fields: &[Field], entries: &str, container_default: bool) -> String {
    let slots: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
    let names: Vec<&str> = fields.iter().map(field_name).collect();
    let dflt = if container_default {
        "let __dflt: Self = ::core::default::Default::default();"
    } else {
        ""
    };
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{}: {}", field_name(f), de_field(i, f, container_default)))
        .collect();
    format!(
        "{{ let [{}] = {P}::fields({entries}, {names:?}); {dflt} {path} {{ {} }} }}",
        slots.join(", "),
        inits.join(", ")
    )
}

/// Expression building tuple variant/struct `path` from `Value` `__p`.
fn de_tuple(path: &str, n: usize, what: &str) -> String {
    if n == 1 {
        return format!("{path}(::serde::Deserialize::deserialize(__p)?)");
    }
    let elems: Vec<String> = (0..n)
        .map(|_| format!("{P}::next_elem(&mut __it)?"))
        .collect();
    format!(
        "{{ let mut __it = {P}::take_seq(__p, {n}, {what:?})?; {path}({}) }}",
        elems.join(", ")
    )
}

/// Statements trying each variant of untagged enum `name` on `__v` in
/// turn, returning the first that decodes.
fn de_untagged(name: &str, variants: &[Variant]) -> Result<String, String> {
    let mut tries = String::new();
    for (i, v) in variants.iter().enumerate() {
        let path = format!("{name}::{}", v.name);
        // Every attempt but the last decodes a copy.
        let value = if i + 1 == variants.len() {
            "__v"
        } else {
            "__v.clone()"
        };
        tries.push_str(&match &v.body {
            Body::Unit => {
                format!("if matches!(__v, ::serde::Value::Null) {{ return {OK}({path}); }}")
            }
            Body::Tuple(f) if f.len() == 1 => format!(
                "if let {OK}(__x) = ::serde::Deserialize::deserialize({value}) {{ return {OK}({path}(__x)); }}"
            ),
            _ => {
                return Err(format!(
                    "serde stand-in: untagged variant {} is neither a unit nor a newtype variant",
                    v.name
                ))
            }
        });
    }
    Ok(format!(
        "{tries} {ERR}(::serde::Error::custom(\"data did not match any variant of untagged enum {name}\"))"
    ))
}

fn gen_deserialize(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let what = format!("struct {name}");
    let body = match &item.data {
        Data::Struct(Body::Named(fields)) => {
            let entries = format!("{P}::take_object(__v, {what:?})?");
            let build = de_named(name, fields, &entries, item.attrs.default.is_some());
            format!("{OK}({build})")
        }
        Data::Struct(Body::Tuple(fields)) => {
            format!("let __p = __v; {OK}({})", de_tuple(name, fields.len(), &what))
        }
        Data::Struct(Body::Unit) => format!(
            "match __v {{ ::serde::Value::Null => {OK}({name}), __o => {ERR}({P}::invalid(&__o, \"unit struct\")) }}"
        ),
        Data::Enum(variants) if item.attrs.untagged => de_untagged(name, variants)?,
        Data::Enum(variants) => {
            let keys: Vec<String> = variants
                .iter()
                .map(|v| variant_key(v, item.attrs.snake_case))
                .collect();
            let mut arms = String::new();
            for (v, key) in variants.iter().zip(&keys) {
                let path = format!("{name}::{}", v.name);
                let built = match (&v.body, &item.attrs.tag) {
                    (Body::Unit, _) => path,
                    (Body::Named(f), Some(_)) => de_named(&path, f, "__m", false),
                    (Body::Named(f), None) => {
                        de_named(&path, f, &format!("{P}::take_object(__p, \"a map\")?"), false)
                    }
                    (Body::Tuple(_), Some(_)) => {
                        return Err(format!(
                            "serde stand-in: internally tagged tuple variant {}",
                            v.name
                        ))
                    }
                    (Body::Tuple(f), None) => {
                        de_tuple(&path, f.len(), &format!("tuple variant {path}"))
                    }
                };
                arms.push_str(&format!("{key:?} => {OK}({built}),"));
            }
            let head = match &item.attrs.tag {
                Some(tag) => format!(
                    "let (__name, __m) = {P}::internal_variant(__v, {tag:?}, \"enum {name}\")?;"
                ),
                None => format!(
                    "let (__name, __p) = {P}::external_variant(__v, \"enum {name}\")?;"
                ),
            };
            format!(
                "{head} match __name.as_str() {{ {arms} __other => {ERR}({P}::unknown_variant(__other, &{keys:?})) }}"
            )
        }
    };
    Ok(format!(
        "#[automatically_derived] impl{ig} ::serde::Deserialize for {name}{tg} {{
            fn deserialize(__v: ::serde::Value) -> {RESULT}<Self, ::serde::Error> {{ {body} }}
        }}",
        ig = impl_generics(&item.params, "::serde::Deserialize"),
        tg = type_generics(&item.params),
    ))
}
