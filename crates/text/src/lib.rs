//! # docql-text — pattern matching and full-text indexing (§4.1)
//!
//! The information-retrieval substrate the paper's query extensions assume:
//! a pattern language with concatenation, disjunction and Kleene closure
//! compiled to a Thompson NFA ([`pattern`], [`nfa`]); the `contains`
//! predicate over boolean combinations of patterns ([`contains`]); the
//! `near` proximity predicate ([`mod@near`]); and a positional inverted index
//! with vocabulary-grep support for pattern queries ([`index`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod contains;
pub mod index;
pub mod metrics;
pub mod near;
pub mod nfa;
pub mod pattern;
pub mod tokenize;

pub use contains::{scan_fuel, ContainsExpr, ContainsMatcher};
pub use index::{DocId, InvertedIndex};
pub use metrics::TextMetrics;
pub use near::{near, near_guarded, NearUnit};
pub use nfa::Nfa;
pub use pattern::{Pattern, PatternError};
pub use tokenize::{normalize, tokenize, Token};
