//! # docql-calculus — the many-sorted calculus (§5.2, §5.3)
//!
//! Data, attribute and path sorts; path predicates `⟨v P⟩`; range
//! restriction in the style of Abiteboul–Beeri; interpreted predicates and
//! functions (`contains`, `near`, `length`, `name`, `set_to_list`, …); and a
//! safe set-at-a-time evaluator implementing the paper's restricted path
//! semantics (no two dereferences of objects in the same class), implicit
//! selectors, the marking-attribute omissions, and the false-on-missing-
//! attribute rule.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod eval;
pub mod interp;
pub mod term;
pub mod typing;

pub use eval::{calc_to_value, check_range_restricted, CalcError, Env, Evaluator};
pub use interp::{CalcValue, Interp, InterpCtx, InterpError, MatcherMemo};
pub use term::{
    Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, PathTerm, Query, QueryBuilder, Sort, Var,
};
pub use typing::{infer_types, TypeInfo};
