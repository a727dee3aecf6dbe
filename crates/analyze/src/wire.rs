//! Wire-conformance checker.
//!
//! The codec in `core/src/protocol.rs` is hand-rolled, its opcode table is
//! documented in the README, and its robustness relies on the fuzz suite in
//! `core/tests/protocol_fuzz.rs` naming every variant. Those three
//! artifacts drift independently; this pass cross-checks them:
//!
//! * opcodes are unique and contiguous from `0x01` per direction;
//! * every `Request`/`Response` variant is reachable from both `encode`
//!   (an `out.push(0xNN)` in its match arm) and `decode` (a constructor in
//!   some `0xNN =>` arm), with matching tags;
//! * every variant appears in the README wire table with its tag;
//! * every variant is named in the fuzz suite, so adding an opcode without
//!   fuzz coverage fails CI;
//! * every **borrowed parser** the codec declares (a `pub struct`/`pub enum`
//!   whose name ends in `View` — the in-place readers a client parses
//!   hostile response frames through) is named in the fuzz suite too: a
//!   second way into the same bytes needs the same coverage.

use std::collections::BTreeMap;

use crate::scan::SourceFile;

/// One conformance failure.
#[derive(Debug, Clone)]
pub struct WireIssue {
    /// Human-readable description, prefixed with the artifact at fault.
    pub message: String,
}

fn issue(out: &mut Vec<WireIssue>, message: String) {
    out.push(WireIssue { message });
}

/// Extracted wire shape of one enum direction.
#[derive(Debug, Default)]
pub struct EnumWire {
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Variant → tag, from `encode` match arms.
    pub encode: BTreeMap<String, u8>,
    /// Tag → variant, from `decode` match arms.
    pub decode: BTreeMap<u8, String>,
}

/// Runs the checker. `protocol` is the preprocessed codec source, `readme`
/// and `fuzz` the raw text of the README and the fuzz suite.
pub fn wire_issues(protocol: &SourceFile, readme: &str, fuzz: &str) -> Vec<WireIssue> {
    let joined = protocol.joined_code();
    let mut out = Vec::new();
    let req = extract(&joined, protocol, "Request", &mut out);
    let resp = extract(&joined, protocol, "Response", &mut out);
    check_direction(&req, "Request", &mut out);
    check_direction(&resp, "Response", &mut out);
    check_readme(readme, &req, &resp, &mut out);
    check_fuzz(fuzz, &req, "Request", &mut out);
    check_fuzz(fuzz, &resp, "Response", &mut out);
    check_view_fuzz(fuzz, &view_parsers(&joined), &mut out);
    out
}

fn extract(joined: &str, src: &SourceFile, dir: &str, out: &mut Vec<WireIssue>) -> EnumWire {
    let mut wire = EnumWire {
        variants: enum_variants(joined, dir),
        ..EnumWire::default()
    };
    if wire.variants.is_empty() {
        issue(
            out,
            format!("protocol.rs: no variants found for enum {dir} (parser mismatch?)"),
        );
        return wire;
    }
    for f in &src.functions {
        let (Some(start), Some(end)) = (f.body_start, f.body_end) else {
            continue;
        };
        let Some(body) = joined.get(start..end) else {
            continue;
        };
        if f.name == "encode" {
            for (name, tag) in encode_arms(body, dir) {
                match tag {
                    Some(t) => {
                        wire.encode.insert(name, t);
                    }
                    None => issue(
                        out,
                        format!("protocol.rs: {dir}::{name} encode arm pushes no 0xNN tag"),
                    ),
                }
            }
        } else if f.name == "decode" {
            // Both `Request::decode` and `Response::decode` are plain fns
            // named `decode`; attribute a body to this direction only if it
            // mentions the direction at all, else it belongs to the other
            // enum and every arm would be noise.
            if variant_mentions(body, dir).is_empty() {
                continue;
            }
            for (tag, name) in decode_arms(body, dir) {
                match name {
                    Some(n) => {
                        if let Some(prev) = wire.decode.insert(tag, n.clone()) {
                            issue(
                                out,
                                format!(
                                    "protocol.rs: {dir} decode tag {tag:#04x} claimed by both \
                                     {prev} and {n}"
                                ),
                            );
                        }
                    }
                    None => issue(
                        out,
                        format!(
                            "protocol.rs: {dir} decode arm for tag {tag:#04x} constructs no \
                             {dir} variant"
                        ),
                    ),
                }
            }
        }
    }
    wire
}

/// Variant names of `pub enum <dir>`.
fn enum_variants(joined: &str, dir: &str) -> Vec<String> {
    let decl = format!("pub enum {dir} ");
    let Some(pos) = joined.find(&decl) else {
        return Vec::new();
    };
    let after = joined.get(pos..).unwrap_or_default();
    let Some(open) = after.find('{') else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut segs: Vec<String> = Vec::new();
    let mut cur = String::new();
    for c in after.get(open..).unwrap_or_default().chars() {
        match c {
            '{' | '(' | '[' | '<' => {
                depth += 1;
                if depth > 1 {
                    cur.push(c);
                }
            }
            '}' | ')' | ']' | '>' => {
                depth -= 1;
                if depth == 0 && c == '}' {
                    segs.push(cur);
                    break;
                }
                cur.push(c);
            }
            ',' if depth == 1 => {
                segs.push(std::mem::take(&mut cur));
            }
            _ if depth >= 1 => cur.push(c),
            _ => {}
        }
    }
    segs.iter()
        .filter_map(|s| {
            let t = s.trim();
            let name: String = t
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            (name.chars().next().is_some_and(char::is_uppercase)).then_some(name)
        })
        .collect()
}

/// `(variant, first out.push(0xNN) after it)` pairs inside an encode body.
fn encode_arms(body: &str, dir: &str) -> Vec<(String, Option<u8>)> {
    let arms = variant_mentions(body, dir);
    let pushes = tag_pushes(body);
    arms.iter()
        .enumerate()
        .map(|(k, (pos, name))| {
            let limit = arms
                .get(k + 1)
                .map_or(usize::MAX, |&(next_pos, _)| next_pos);
            let tag = pushes
                .iter()
                .find(|&&(p, _)| p > *pos && p < limit)
                .map(|&(_, t)| t);
            (name.clone(), tag)
        })
        .collect()
}

/// `(tag, first <dir>::Variant after it)` pairs inside a decode body.
fn decode_arms(body: &str, dir: &str) -> Vec<(u8, Option<String>)> {
    let arms = tag_arms(body);
    let mentions = variant_mentions(body, dir);
    arms.iter()
        .enumerate()
        .map(|(k, (pos, tag))| {
            let limit = arms
                .get(k + 1)
                .map_or(usize::MAX, |&(next_pos, _)| next_pos);
            let name = mentions
                .iter()
                .find(|&&(p, _)| p > *pos && p < limit)
                .map(|(_, n)| n.clone());
            (*tag, name)
        })
        .collect()
}

/// Positions of `<dir>::Ident` mentions.
fn variant_mentions(body: &str, dir: &str) -> Vec<(usize, String)> {
    let pat = format!("{dir}::");
    let mut v = Vec::new();
    for (pos, _) in body.match_indices(&pat) {
        let before_ok = pos == 0
            || body
                .get(..pos)
                .and_then(|s| s.chars().next_back())
                .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != ':');
        if !before_ok {
            continue;
        }
        let name: String = body
            .get(pos + pat.len()..)
            .unwrap_or_default()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.chars().next().is_some_and(char::is_uppercase) {
            v.push((pos, name));
        }
    }
    v
}

/// Positions of `out.push(0xNN` tag writes.
fn tag_pushes(body: &str) -> Vec<(usize, u8)> {
    let mut v = Vec::new();
    for (pos, _) in body.match_indices("out.push(0x") {
        let hex: String = body
            .get(pos + "out.push(0x".len()..)
            .unwrap_or_default()
            .chars()
            .take_while(char::is_ascii_hexdigit)
            .collect();
        if let Ok(t) = u8::from_str_radix(&hex, 16) {
            v.push((pos, t));
        }
    }
    v
}

/// Positions of `0xNN =>` match-arm headers.
fn tag_arms(body: &str) -> Vec<(usize, u8)> {
    let mut v = Vec::new();
    for (pos, _) in body.match_indices("0x") {
        let rest = body.get(pos + 2..).unwrap_or_default();
        let hex: String = rest.chars().take_while(char::is_ascii_hexdigit).collect();
        if hex.is_empty() {
            continue;
        }
        let after = rest.get(hex.len()..).unwrap_or_default().trim_start();
        if !after.starts_with("=>") {
            continue;
        }
        if let Ok(t) = u8::from_str_radix(&hex, 16) {
            v.push((pos, t));
        }
    }
    v
}

fn check_direction(wire: &EnumWire, dir: &str, out: &mut Vec<WireIssue>) {
    let mut seen_tags: BTreeMap<u8, &str> = BTreeMap::new();
    for name in &wire.variants {
        match wire.encode.get(name) {
            None => issue(
                out,
                format!("protocol.rs: {dir}::{name} is not reachable from encode"),
            ),
            Some(&tag) => {
                if let Some(prev) = seen_tags.insert(tag, name) {
                    issue(
                        out,
                        format!(
                            "protocol.rs: {dir} opcode {tag:#04x} used by both {prev} and {name}"
                        ),
                    );
                }
                match wire.decode.iter().find(|(_, n)| *n == name) {
                    None => issue(
                        out,
                        format!("protocol.rs: {dir}::{name} is not reachable from decode"),
                    ),
                    Some((&dtag, _)) if dtag != tag => issue(
                        out,
                        format!(
                            "protocol.rs: {dir}::{name} encodes tag {tag:#04x} but decodes \
                             {dtag:#04x}"
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }
    for (tag, name) in &wire.decode {
        if !wire.variants.iter().any(|v| v == name) {
            issue(
                out,
                format!("protocol.rs: decode tag {tag:#04x} names unknown {dir}::{name}"),
            );
        }
    }
    // Contiguity from 0x01.
    let tags: Vec<u8> = seen_tags.keys().copied().collect();
    for (i, &t) in tags.iter().enumerate() {
        let want = i as u8 + 1;
        if t != want {
            issue(
                out,
                format!(
                    "protocol.rs: {dir} opcodes not contiguous: expected {want:#04x}, \
                     found {t:#04x}"
                ),
            );
            break;
        }
    }
}

/// README wire-table rows: `| \`Name\` ... | 0xNN | ...`.
fn check_readme(readme: &str, req: &EnumWire, resp: &EnumWire, out: &mut Vec<WireIssue>) {
    let mut rows: Vec<(String, u8)> = Vec::new();
    for line in readme.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.split('|').collect();
        let (Some(name_cell), Some(tag_cell)) = (cells.get(1), cells.get(2)) else {
            continue;
        };
        let Some(name) = backticked(name_cell) else {
            continue;
        };
        let tag_cell = tag_cell.trim();
        let Some(hex) = tag_cell.strip_prefix("0x") else {
            continue;
        };
        let Ok(tag) = u8::from_str_radix(hex.trim(), 16) else {
            continue;
        };
        rows.push((name, tag));
    }
    if rows.is_empty() {
        issue(out, "README.md: wire table not found".to_owned());
        return;
    }
    for (name, tag) in &rows {
        let req_ok = req.encode.get(name) == Some(tag);
        let resp_ok = resp.encode.get(name) == Some(tag);
        if !req_ok && !resp_ok {
            issue(
                out,
                format!(
                    "README.md: wire table row `{name}` = {tag:#04x} matches no \
                     Request/Response variant tag"
                ),
            );
        }
    }
    for (dir, wire) in [("Request", req), ("Response", resp)] {
        for (name, tag) in &wire.encode {
            if !rows.iter().any(|(n, t)| n == name && t == tag) {
                issue(
                    out,
                    format!("README.md: {dir}::{name} ({tag:#04x}) missing from the wire table"),
                );
            }
        }
    }
}

fn backticked(cell: &str) -> Option<String> {
    let (_, rest) = cell.split_once('`')?;
    let (name, _) = rest.split_once('`')?;
    Some(name.to_owned())
}

/// Names of the borrowed parsers: `pub struct <Name>View` / `pub enum
/// <Name>View` declarations.
pub fn view_parsers(joined: &str) -> Vec<String> {
    let mut names = Vec::new();
    for decl in ["pub struct ", "pub enum "] {
        for (pos, _) in joined.match_indices(decl) {
            let name: String = joined
                .get(pos + decl.len()..)
                .unwrap_or_default()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.ends_with("View") && !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

fn names_ident(text: &str, ident: &str) -> bool {
    let boundary = |c: Option<char>| c.is_none_or(|c| !c.is_alphanumeric() && c != '_');
    text.match_indices(ident).any(|(pos, m)| {
        boundary(text.get(..pos).and_then(|s| s.chars().next_back()))
            && boundary(text.get(pos + m.len()..).and_then(|s| s.chars().next()))
    })
}

fn check_view_fuzz(fuzz: &str, views: &[String], out: &mut Vec<WireIssue>) {
    for name in views {
        if !names_ident(fuzz, name) {
            issue(
                out,
                format!(
                    "protocol_fuzz.rs: borrowed parser {name} is never exercised by the fuzz suite"
                ),
            );
        }
    }
}

fn check_fuzz(fuzz: &str, wire: &EnumWire, dir: &str, out: &mut Vec<WireIssue>) {
    for name in &wire.variants {
        let pat = format!("{dir}::{name}");
        let mentioned = fuzz.match_indices(&pat).any(|(pos, m)| {
            fuzz.get(pos + m.len()..)
                .and_then(|s| s.chars().next())
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
        });
        if !mentioned {
            issue(
                out,
                format!("protocol_fuzz.rs: {dir}::{name} is never exercised by the fuzz suite"),
            );
        }
    }
}
