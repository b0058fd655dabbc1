//! # docql-sgml — an SGML subset parser (§2)
//!
//! From-scratch implementation of the SGML features the paper relies on:
//! DTD parsing (element declarations with `,`/`&`/`|` connectors and
//! `?`/`+`/`*` occurrence indicators, attribute lists, entities), document
//! instance parsing with **tag-omission inference** driven by content-model
//! derivatives, content-model matching with parse trees (consumed by the
//! SGML→O₂ mapping), and whole-document validation including ID/IDREF
//! resolution.
//!
//! Stands in for the Euroclid SGML parser the paper's prototype extended.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod content;
pub mod cursor;
pub mod doc;
pub mod dtd;
pub mod error;
pub mod fixtures;
pub mod parser;
pub mod validate;

// Used by parser unit tests.
#[cfg(test)]
pub(crate) use fixtures as test_fixtures;

pub use content::{match_children, ContentExpr, ContentModel, Label, MatchNode, Occurrence};
pub use doc::{Document, Element, Node};
pub use dtd::{AttDefault, AttList, AttType, Dtd, ElementDecl, EntityDecl, Minimization};
pub use error::{ErrorKind, Pos, Result, SgmlError};
pub use parser::DocParser;
pub use validate::{is_valid, validate};
