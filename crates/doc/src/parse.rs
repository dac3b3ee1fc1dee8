//! A from-scratch, non-validating XML parser.
//!
//! Document-centric corpora (the paper's target) are ordinary hand-written
//! XML: elements, attributes, mixed content, comments, CDATA, the five
//! predefined entities plus numeric character references, an optional
//! prolog and DOCTYPE. This parser covers exactly that surface — it is not
//! a validating parser (no DTD expansion, no namespaces-aware resolution;
//! namespace prefixes are kept verbatim as part of the tag name, which is
//! what the keyword model wants anyway).
//!
//! Errors carry precise line/column positions; well-formedness violations
//! (tag mismatch, double attribute, trailing content, bad entity) are all
//! rejected — the test-suite's failure-injection cases depend on it.

use crate::builder::DocumentBuilder;
use crate::error::{DocError, ParseError, ParseErrorKind, Pos};
use crate::tree::Document;

/// Parse an XML document from a string slice.
pub fn parse_str(input: &str) -> Result<Document, ParseError> {
    Parser::new(input).parse()
}

/// Parse an XML document from raw bytes (must be UTF-8; a UTF-8 BOM is
/// accepted and skipped).
pub fn parse_bytes(input: &[u8]) -> Result<Document, ParseError> {
    let s = std::str::from_utf8(input).map_err(|e| ParseError {
        pos: Pos {
            line: 1,
            col: 1,
            offset: e.valid_up_to(),
        },
        kind: ParseErrorKind::InvalidUtf8,
    })?;
    parse_str(s)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        // Skip a UTF-8 BOM if present.
        let src = src.strip_prefix('\u{feff}').unwrap_or(src);
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.pos - self.line_start) as u32 + 1,
            offset: self.pos,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            pos: self.here(),
            kind,
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Advance until the literal `end` is consumed; error with `what` at EOF.
    fn skip_until(&mut self, end: &str, what: &'static str) -> Result<(), ParseError> {
        while !self.eof() {
            if self.eat(end) {
                return Ok(());
            }
            self.bump();
        }
        Err(self.err(ParseErrorKind::UnexpectedEof(what)))
    }

    fn parse(mut self) -> Result<Document, ParseError> {
        let mut builder = DocumentBuilder::new();
        let mut depth = 0usize;
        let mut open_tags: Vec<String> = Vec::new();
        let mut seen_root = false;

        loop {
            if self.eof() {
                break;
            }
            if depth == 0 {
                // Prolog / epilog context: only whitespace, comments, PIs,
                // DOCTYPE, and (once) the root element are allowed.
                self.skip_ws();
                if self.eof() {
                    break;
                }
                if self.eat("<!--") {
                    self.comment_body()?;
                    continue;
                }
                if self.eat("<?") {
                    self.skip_until("?>", "processing instruction")?;
                    continue;
                }
                if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                    self.doctype()?;
                    continue;
                }
                if self.peek() == Some(b'<') {
                    if seen_root {
                        return Err(self.err(ParseErrorKind::TrailingContent));
                    }
                    seen_root = true;
                    self.element_open(&mut builder, &mut depth, &mut open_tags)?;
                    continue;
                }
                return Err(self.err(ParseErrorKind::TrailingContent));
            }

            // Inside an element: mixed content.
            match self.peek() {
                Some(b'<') => {
                    if self.eat("<!--") {
                        self.comment_body()?;
                    } else if self.eat("<![CDATA[") {
                        let text = self.cdata_body()?;
                        builder.text(text.trim());
                    } else if self.eat("<?") {
                        self.skip_until("?>", "processing instruction")?;
                    } else if self.starts_with("</") {
                        self.eat("</");
                        let name = self.name()?;
                        self.skip_ws();
                        if !self.eat(">") {
                            return Err(self.err(ParseErrorKind::Unexpected {
                                expected: "'>' after close tag name",
                                found: self.peek().map(char::from).unwrap_or('\0'),
                            }));
                        }
                        match open_tags.pop() {
                            Some(open) if open == name => {
                                builder.end();
                                depth -= 1;
                            }
                            Some(open) => {
                                return Err(
                                    self.err(ParseErrorKind::MismatchedTag { open, close: name })
                                )
                            }
                            None => return Err(self.err(ParseErrorKind::UnbalancedClose(name))),
                        }
                    } else {
                        self.element_open(&mut builder, &mut depth, &mut open_tags)?;
                    }
                }
                Some(_) => {
                    let text = self.text_run()?;
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        builder.text(trimmed);
                    }
                }
                None => break,
            }
        }

        if depth != 0 {
            return Err(self.err(ParseErrorKind::UnexpectedEof("element content")));
        }
        if !seen_root {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        builder.finish().map_err(|e| {
            self.err(match e {
                DocError::TooDeep(_) | DocError::LabelsTooLarge { .. } => {
                    ParseErrorKind::TooLarge(e)
                }
                _ => ParseErrorKind::TrailingContent,
            })
        })
    }

    /// `<name attr="v" ...>` or `<name .../>`; consumes the leading `<`.
    fn element_open(
        &mut self,
        builder: &mut DocumentBuilder,
        depth: &mut usize,
        open_tags: &mut Vec<String>,
    ) -> Result<(), ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.bump();
        let name = self.name()?;
        builder.begin(name.clone());
        let mut attr_names: Vec<String> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    open_tags.push(name);
                    *depth += 1;
                    return Ok(());
                }
                Some(b'/') => {
                    self.bump();
                    if !self.eat(">") {
                        return Err(self.err(ParseErrorKind::Unexpected {
                            expected: "'>' after '/'",
                            found: self.peek().map(char::from).unwrap_or('\0'),
                        }));
                    }
                    builder.end();
                    return Ok(());
                }
                Some(_) => {
                    let aname = self.name()?;
                    if attr_names.contains(&aname) {
                        return Err(self.err(ParseErrorKind::DuplicateAttribute(aname)));
                    }
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(self.err(ParseErrorKind::MalformedAttribute));
                    }
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => {
                            self.bump();
                            q
                        }
                        _ => return Err(self.err(ParseErrorKind::MalformedAttribute)),
                    };
                    let value = self.attr_value(quote)?;
                    builder.attr(aname.clone(), value);
                    attr_names.push(aname);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("start tag"))),
            }
        }
    }

    /// An XML Name. We accept the pragmatic subset: first char alphabetic,
    /// `_` or `:`; subsequent chars alphanumeric or `.-_:`.
    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.src[self.pos..].chars().next() {
            Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {
                self.pos += c.len_utf8();
            }
            Some(c) => {
                return Err(self.err(ParseErrorKind::Unexpected {
                    expected: "XML name",
                    found: c,
                }))
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof("XML name"))),
        }
        while let Some(c) = self.src[self.pos..].chars().next() {
            if c.is_alphanumeric() || matches!(c, '.' | '-' | '_' | ':') {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        let name = &self.src[start..self.pos];
        if name.is_empty() {
            return Err(self.err(ParseErrorKind::InvalidName(String::new())));
        }
        Ok(name.to_string())
    }

    /// Text content up to the next `<`, with entities expanded.
    fn text_run(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        while let Some(b) = self.peek() {
            match b {
                b'<' => break,
                b'&' => {
                    self.bump();
                    out.push(self.entity()?);
                }
                _ => {
                    // invariant: peek() returned Some, and pos always
                    // rests on a char boundary (bump loops consume whole
                    // code points), so a next char must exist.
                    let c = self.src[self.pos..].chars().next().unwrap();
                    for _ in 0..c.len_utf8() {
                        self.bump();
                    }
                    out.push(c);
                }
            }
        }
        Ok(out)
    }

    fn attr_value(&mut self, quote: u8) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'<') => return Err(self.err(ParseErrorKind::MalformedAttribute)),
                Some(b'&') => {
                    self.bump();
                    out.push(self.entity()?);
                }
                Some(_) => {
                    // invariant: see text_run — peek() returned Some and
                    // pos is on a char boundary.
                    let c = self.src[self.pos..].chars().next().unwrap();
                    for _ in 0..c.len_utf8() {
                        self.bump();
                    }
                    out.push(c);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
            }
        }
    }

    /// An entity reference after the `&` has been consumed.
    fn entity(&mut self) -> Result<char, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let body = &self.src[start..self.pos];
                self.bump();
                return expand_entity(body).ok_or_else(|| {
                    if body.starts_with('#') {
                        self.err(ParseErrorKind::InvalidCharRef(body.to_string()))
                    } else {
                        self.err(ParseErrorKind::UnknownEntity(body.to_string()))
                    }
                });
            }
            if self.pos - start > 12 {
                break;
            }
            self.bump();
        }
        Err(self.err(ParseErrorKind::UnknownEntity(
            self.src[start..self.pos.min(start + 12)].to_string(),
        )))
    }

    fn comment_body(&mut self) -> Result<(), ParseError> {
        // "--" is not allowed inside comments.
        loop {
            if self.eof() {
                return Err(self.err(ParseErrorKind::UnexpectedEof("comment")));
            }
            if self.eat("--") {
                return if self.eat(">") {
                    Ok(())
                } else {
                    Err(self.err(ParseErrorKind::MalformedComment))
                };
            }
            self.bump();
        }
    }

    fn cdata_body(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        loop {
            if self.eof() {
                return Err(self.err(ParseErrorKind::UnexpectedEof("CDATA section")));
            }
            if self.starts_with("]]>") {
                let body = self.src[start..self.pos].to_string();
                self.eat("]]>");
                return Ok(body);
            }
            self.bump();
        }
    }

    /// Skip `<!DOCTYPE ...>` including an internal subset `[...]`.
    fn doctype(&mut self) -> Result<(), ParseError> {
        let mut bracket = 0i32;
        while let Some(b) = self.bump() {
            match b {
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'>' if bracket <= 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err(ParseErrorKind::UnexpectedEof("DOCTYPE")))
    }
}

/// Expand an entity body (without `&` and `;`).
fn expand_entity(body: &str) -> Option<char> {
    match body {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = body.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeId;

    #[test]
    fn minimal_document() {
        let d = parse_str("<a/>").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.tag(NodeId(0)), "a");
    }

    #[test]
    fn nested_elements_preorder() {
        let d = parse_str("<a><b><c/></b><d/></a>").unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.tag(NodeId(0)), "a");
        assert_eq!(d.tag(NodeId(1)), "b");
        assert_eq!(d.tag(NodeId(2)), "c");
        assert_eq!(d.tag(NodeId(3)), "d");
        assert_eq!(d.parent(NodeId(3)), Some(NodeId(0)));
        d.validate().unwrap();
    }

    #[test]
    fn text_and_mixed_content() {
        let d = parse_str("<p>hello <b>bold</b> world</p>").unwrap();
        assert_eq!(d.text(NodeId(0)), "hello world");
        assert_eq!(d.text(NodeId(1)), "bold");
    }

    #[test]
    fn attributes() {
        let d = parse_str(r#"<sec id="s1" class='intro'/>"#).unwrap();
        assert_eq!(
            d.node(NodeId(0)).attrs,
            vec![("id".into(), "s1".into()), ("class".into(), "intro".into())]
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let d = parse_str(r#"<p a="x &amp; y">1 &lt; 2 &#65; &#x42;</p>"#).unwrap();
        assert_eq!(d.text(NodeId(0)), "1 < 2 A B");
        assert_eq!(d.node(NodeId(0)).attrs[0].1, "x & y");
    }

    #[test]
    fn cdata() {
        let d = parse_str("<p><![CDATA[if (a < b) & c]]></p>").unwrap();
        assert_eq!(d.text(NodeId(0)), "if (a < b) & c");
    }

    #[test]
    fn comments_and_pi_skipped() {
        let d = parse_str("<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><?pi data?><b/></a>")
            .unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn doctype_with_internal_subset() {
        let d = parse_str("<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)>]><doc>x</doc>").unwrap();
        assert_eq!(d.text(NodeId(0)), "x");
    }

    #[test]
    fn bom_is_skipped() {
        let d = parse_str("\u{feff}<a/>").unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse_str("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn rejects_unclosed() {
        let e = parse_str("<a><b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn rejects_trailing_root() {
        let e = parse_str("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn rejects_empty_input() {
        let e = parse_str("   ").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::NoRootElement));
    }

    #[test]
    fn rejects_unknown_entity() {
        let e = parse_str("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn rejects_bad_char_ref() {
        let e = parse_str("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::InvalidCharRef(_)));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let e = parse_str(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn rejects_raw_lt_in_attr() {
        let e = parse_str(r#"<a x="a<b"/>"#).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedAttribute));
    }

    #[test]
    fn rejects_double_dash_comment() {
        let e = parse_str("<a><!-- x -- y --></a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedComment));
    }

    #[test]
    fn error_positions_are_tracked() {
        let e = parse_str("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(e.pos.line, 2);
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        let bytes: &[u8] = &[b'<', b'a', 0xff, b'>'];
        let e = parse_bytes(bytes).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::InvalidUtf8));
    }

    #[test]
    fn namespace_prefixes_kept_verbatim() {
        let d = parse_str("<x:a xmlns:x=\"urn:y\"><x:b/></x:a>").unwrap();
        assert_eq!(d.tag(NodeId(0)), "x:a");
        assert_eq!(d.tag(NodeId(1)), "x:b");
    }

    #[test]
    fn over_deep_nesting_is_an_error_not_an_abort() {
        // Root-path labels grow as O(depth²) on a chain: 40,000 levels
        // (~280 KB of `<a>`) would need 4 GiB of them.
        let chain = |levels: u32| {
            let levels = levels as usize;
            format!("{}alpha{}", "<a>".repeat(levels), "</a>".repeat(levels))
        };
        assert!(parse_str(&chain(crate::MAX_DEPTH)).is_ok());
        for levels in [crate::MAX_DEPTH + 1, 40_000] {
            let t = std::time::Instant::now();
            let e = parse_str(&chain(levels)).unwrap_err();
            assert!(
                t.elapsed() < std::time::Duration::from_secs(1),
                "{levels} levels"
            );
            assert_eq!(e.kind, ParseErrorKind::TooLarge(DocError::TooDeep(levels)));
            assert!(e.to_string().contains("levels deep"), "{e}");
        }
    }
}
