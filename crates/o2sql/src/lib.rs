//! # docql-o2sql — the extended O₂SQL language (§4)
//!
//! The paper's surface language: select-from-where with `contains`/`near`
//! textual predicates (§4.1), union types with implicit selectors (§4.2),
//! `PATH_`/`ATT_` variables and the `..` sugar (§4.3), position queries over
//! ordered tuples (§4.4), and the Q4 set-difference form. Queries translate
//! to the calculus (§5.2) and evaluate through either the interpreter or the
//! §5.4 algebraizer.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod parser;
pub mod token;
pub mod translate;

pub use ast::{CBool, CmpOp, Expr, FromItem, PatStep, SelectQuery, SetOpKind, TopQuery};
pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use engine::{Engine, Mode, QueryResult};
pub use metrics::{EngineMetrics, QueryProfile};
pub use parser::parse;
pub use translate::{translate, Translated};

use std::fmt;

/// Errors across parsing, translation and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum O2sqlError {
    /// Syntax error at a byte offset.
    Parse {
        /// Byte offset in the query text.
        at: usize,
        /// Description.
        msg: String,
    },
    /// An identifier that is neither a declared variable nor a root.
    UnknownIdent(String),
    /// Static translation/typing error.
    Type(String),
    /// Evaluation error.
    Eval(String),
    /// Execution stopped by the resource governor (deadline, budget, fuel
    /// or cancellation) while not in degrade mode. The payload is the
    /// authoritative trip read back from the query's
    /// [`docql_guard::Guard`].
    Interrupted(docql_guard::ExecError),
}

impl fmt::Display for O2sqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            O2sqlError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            O2sqlError::UnknownIdent(n) => write!(
                f,
                "`{n}` is neither a variable in scope nor a root of persistence"
            ),
            O2sqlError::Type(m) => write!(f, "type error: {m}"),
            O2sqlError::Eval(m) => write!(f, "evaluation error: {m}"),
            O2sqlError::Interrupted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for O2sqlError {}
