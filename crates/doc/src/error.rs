//! Error types for document construction and XML parsing.

use std::fmt;

/// Position inside the raw XML input, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes, tabs count as one column).
    pub col: u32,
    /// 0-based byte offset.
    pub offset: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Error raised by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where in the input the problem was detected.
    pub pos: Pos,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The specific class of parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof(&'static str),
    /// A character that cannot start/continue the expected construct.
    Unexpected {
        /// What the parser was looking for.
        expected: &'static str,
        /// The character actually seen.
        found: char,
    },
    /// `</b>` closing an element opened as `<a>`.
    MismatchedTag {
        /// The tag that was open.
        open: String,
        /// The tag name in the close tag.
        close: String,
    },
    /// A close tag with no matching open tag.
    UnbalancedClose(String),
    /// Content after the document element closed, or a second root.
    TrailingContent,
    /// The document contains no element at all.
    NoRootElement,
    /// An entity reference that is not one of the predefined five and not numeric.
    UnknownEntity(String),
    /// A numeric character reference that does not denote a valid char.
    InvalidCharRef(String),
    /// An attribute repeated on the same element.
    DuplicateAttribute(String),
    /// An invalid XML name (empty, or starting with a digit/dash/dot).
    InvalidName(String),
    /// Raw `<` in attribute value or other malformed attribute syntax.
    MalformedAttribute,
    /// `--` inside a comment, or comment not terminated.
    MalformedComment,
    /// Invalid UTF-8 in the input.
    InvalidUtf8,
    /// A well-formed document that exceeds a structural limit
    /// ([`DocError::TooDeep`] or [`DocError::LabelsTooLarge`]).
    TooLarge(DocError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: ", self.pos)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof(what) => {
                write!(f, "unexpected end of input while reading {what}")
            }
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found:?}")
            }
            ParseErrorKind::MismatchedTag { open, close } => {
                write!(f, "mismatched tags: <{open}> closed by </{close}>")
            }
            ParseErrorKind::UnbalancedClose(tag) => {
                write!(f, "close tag </{tag}> with no matching open tag")
            }
            ParseErrorKind::TrailingContent => write!(f, "content after document element"),
            ParseErrorKind::NoRootElement => write!(f, "document has no root element"),
            ParseErrorKind::UnknownEntity(e) => write!(f, "unknown entity &{e};"),
            ParseErrorKind::InvalidCharRef(e) => write!(f, "invalid character reference &#{e};"),
            ParseErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            ParseErrorKind::InvalidName(n) => write!(f, "invalid XML name {n:?}"),
            ParseErrorKind::MalformedAttribute => write!(f, "malformed attribute"),
            ParseErrorKind::MalformedComment => write!(f, "malformed comment"),
            ParseErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
            ParseErrorKind::TooLarge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Error raised when manipulating a [`crate::Document`] directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// A node id that does not exist in the document.
    NodeOutOfRange {
        /// The requested id.
        id: u32,
        /// The document's node count.
        len: u32,
    },
    /// The builder was asked to finish with unclosed elements.
    UnclosedElements(usize),
    /// The builder was asked to close more elements than were opened.
    CloseWithoutOpen,
    /// The builder produced no nodes at all.
    EmptyDocument,
    /// Text or attributes supplied outside any element.
    ContentOutsideRoot,
    /// Elements nest this many levels deep, more than
    /// [`MAX_DEPTH`](crate::MAX_DEPTH) (the root is level 1).
    TooDeep(u32),
    /// The root-path labels, Σ(depth + 1) over all nodes, would need more
    /// entries than the document's size admits: 64 per node, at least
    /// 2^24, and never past `u32::MAX`, where their offsets overflow.
    LabelsTooLarge {
        /// Σ(depth + 1) over all nodes.
        entries: u64,
        /// The most this document may need.
        limit: u64,
    },
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::NodeOutOfRange { id, len } => {
                write!(f, "node id {id} out of range (document has {len} nodes)")
            }
            DocError::UnclosedElements(n) => write!(f, "{n} element(s) left unclosed"),
            DocError::CloseWithoutOpen => write!(f, "end_element without matching begin_element"),
            DocError::EmptyDocument => write!(f, "document must contain at least a root element"),
            DocError::ContentOutsideRoot => write!(f, "content supplied outside the root element"),
            DocError::TooDeep(levels) => write!(
                f,
                "elements nest {levels} levels deep, more than the limit of {}",
                crate::MAX_DEPTH
            ),
            DocError::LabelsTooLarge { entries, limit } => write!(
                f,
                "structural labels need {entries} entries, more than the limit of {limit} \
                 for this many nodes"
            ),
        }
    }
}

impl std::error::Error for DocError {}
