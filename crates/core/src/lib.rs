//! # docql — *From Structured Documents to Novel Query Facilities*
//!
//! A complete Rust implementation of the system described by Christophides,
//! Abiteboul, Cluet and Scholl (SIGMOD 1994): SGML documents mapped into an
//! object-oriented database whose query languages treat **paths as
//! first-class citizens**.
//!
//! ## Quickstart
//!
//! ```
//! use docql::Database;
//!
//! // The paper's Fig. 1 DTD.
//! let mut db = Database::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
//! // Ingest the paper's Fig. 2 document and name it (§4.3).
//! let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
//! db.bind("my_article", root).unwrap();
//! // Q3: all titles, wherever they are in the structure.
//! let titles = db.query("select t from my_article PATH_p.title(t)").unwrap();
//! assert!(!titles.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`model`] | §3, §5.1 | O₂ data model + ordered tuples + marked unions |
//! | [`sgml`] | §2 | DTD/document parsing, tag-omission inference |
//! | [`mapping`] | §3 | DTD→schema (Fig. 1→Fig. 3), document→instance, export |
//! | [`text`] | §4.1 | patterns, `contains`/`near`, inverted index |
//! | [`paths`] | §4.3, §5.2 | concrete/abstract paths, restricted & liberal semantics |
//! | [`calculus`] | §5.2–5.3 | many-sorted calculus, range restriction, typing |
//! | [`algebra`] | §5.4 | algebraization: unions of path-free plans |
//! | [`o2sql`] | §4 | the extended O₂SQL surface language |
//! | [`durable`] | — | write-ahead log, snapshot segments, crash recovery |
//! | [`store`] | — | the assembled document store |

pub use docql_algebra as algebra;
pub use docql_calculus as calculus;
pub use docql_durable as durable;
pub use docql_guard as guard;
pub use docql_mapping as mapping;
pub use docql_model as model;
pub use docql_o2sql as o2sql;
pub use docql_obs as obs;
pub use docql_paths as paths;
pub use docql_sgml as sgml;
pub use docql_store as store;
pub use docql_text as text;

/// The paper's running examples (Fig. 1 DTD, Fig. 2 document, letters DTD).
pub use docql_sgml::fixtures;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use docql_calculus::{CalcValue, Evaluator, Interp, Query, QueryBuilder};
    pub use docql_guard::{CancelToken, ExecError, QueryLimits};
    pub use docql_model::{sym, Instance, Oid, Schema, Sym, Type, Value};
    pub use docql_o2sql::{Engine, Mode, QueryResult};
    pub use docql_obs::{FlightRecorder, QueryTrace, TraceId};
    pub use docql_paths::{ConcretePath, PathSemantics, PathStep};
    pub use docql_sgml::{Document, Dtd};
    pub use docql_store::{DocStore, PersistentStore, SharedStore};
    pub use docql_text::ContainsExpr;

    pub use crate::Database;
}

/// The high-level entry point: a document database over one DTD. It is
/// the store itself — [`store::DocStore`] under its facade name — so the
/// whole API (limits, algebraic mode, tracing, text search, export) is one
/// method away. Wrap it in [`store::SharedStore::new`] to serve it to many
/// threads.
///
/// [`Database::query`] runs the interpreter with no per-call limits;
/// [`Database::query_traced`] takes the execution mode and limits:
///
/// ```
/// use docql::prelude::*;
/// use std::time::Duration;
///
/// let mut db = Database::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
/// let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
/// db.bind("my_article", root).unwrap();
/// let limits = QueryLimits::none()
///     .with_deadline(Duration::from_secs(5))
///     .with_row_budget(100_000);
/// let (r, _trace) =
///     db.query_traced("select t from my_article PATH_p.title(t)", Mode::Algebraic, &limits);
/// assert!(!r.unwrap().is_partial());
/// ```
pub use docql_store::DocStore as Database;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut db = Database::new(fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
        let root = db.ingest(fixtures::FIG2_DOCUMENT).unwrap();
        db.bind("my_article", root).unwrap();
        let titles = db
            .query("select t from my_article PATH_p.title(t)")
            .unwrap();
        assert!(!titles.is_empty());
        let alg = db
            .query_traced(
                "select t from my_article PATH_p.title(t)",
                o2sql::Mode::Algebraic,
                &guard::QueryLimits::none(),
            )
            .0
            .unwrap();
        use std::collections::BTreeSet;
        let a: BTreeSet<_> = titles.rows.into_iter().collect();
        let b: BTreeSet<_> = alg.rows.into_iter().collect();
        assert_eq!(a, b);
    }
}
