//! Recursive-descent parser for the extended O₂SQL language.

use crate::ast::*;
use crate::token::{lex, Tok, Token};
use crate::O2sqlError;
use docql_model::Value;

/// Parse a top-level query.
pub fn parse(src: &str) -> Result<TopQuery, O2sqlError> {
    let tokens = lex(src).map_err(|e| O2sqlError::Parse {
        at: e.at,
        msg: e.msg,
    })?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.top_query()?;
    if p.pos < p.tokens.len() {
        return Err(p.err(format!(
            "unexpected trailing input `{}`",
            p.tokens[p.pos].kind
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Keywords that may not be mistaken for bare attribute names in the `..`
/// pattern sugar.
fn is_reserved(s: &str) -> bool {
    matches!(
        s.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "in"
            | "and"
            | "or"
            | "not"
            | "contains"
            | "union"
            | "intersect"
    )
}

impl Parser {
    fn err(&self, msg: String) -> O2sqlError {
        let at = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.at)
            .unwrap_or(0);
        O2sqlError::Parse { at, msg }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), O2sqlError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{tok}`, found {}",
                self.peek()
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            )))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, O2sqlError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected an identifier, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            ))),
        }
    }

    // ---- top level -------------------------------------------------------

    fn top_query(&mut self) -> Result<TopQuery, O2sqlError> {
        let mut left = self.simple_query()?;
        loop {
            let op = if self.eat(&Tok::Minus) {
                SetOpKind::Difference
            } else if self.keyword("union") {
                SetOpKind::Union
            } else if self.keyword("intersect") {
                SetOpKind::Intersect
            } else {
                return Ok(left);
            };
            let right = self.simple_query()?;
            left = TopQuery::SetOp(Box::new(left), op, Box::new(right));
        }
    }

    fn simple_query(&mut self) -> Result<TopQuery, O2sqlError> {
        if self.peek_keyword("select") {
            self.keyword("select");
            return Ok(TopQuery::Select(self.select_query()?));
        }
        if self.eat(&Tok::LParen) {
            let q = self.top_query()?;
            self.expect(&Tok::RParen)?;
            return Ok(q);
        }
        // A bare path-pattern query: IDENT steps.
        let base = self.ident()?;
        let steps = self.pattern_steps()?;
        if steps.is_empty() {
            return Err(self.err(format!(
                "expected a query; `{base}` alone is not one (add pattern steps or use select)"
            )));
        }
        Ok(TopQuery::PathQuery { base, steps })
    }

    fn select_query(&mut self) -> Result<SelectQuery, O2sqlError> {
        let select = self.expr()?;
        if !self.keyword("from") {
            return Err(self.err("expected `from`".to_string()));
        }
        let mut from = vec![self.from_item()?];
        while self.eat(&Tok::Comma) {
            from.push(self.from_item()?);
        }
        let where_ = if self.keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectQuery {
            select,
            from,
            where_,
        })
    }

    #[allow(clippy::wrong_self_convention)] // parses a from-clause item
    fn from_item(&mut self) -> Result<FromItem, O2sqlError> {
        let first = self.ident()?;
        if self.keyword("in") {
            let e = self.expr()?;
            return Ok(FromItem::In(first, e));
        }
        let steps = self.pattern_steps()?;
        if steps.is_empty() {
            return Err(self.err(format!(
                "from-item `{first}` needs `in <expr>` or a path pattern"
            )));
        }
        Ok(FromItem::Pattern { base: first, steps })
    }

    /// Pattern steps: `PATH_p`, `..`, `.attr`, `.ATT_a`, `[3]`, `[i]`,
    /// `(x)`, `{x}`, `->`.
    fn pattern_steps(&mut self) -> Result<Vec<PatStep>, O2sqlError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if s.starts_with("PATH_") => {
                    let name = s.clone();
                    self.pos += 1;
                    out.push(PatStep::PathVar(name));
                }
                Some(Tok::DotDot) => {
                    self.pos += 1;
                    out.push(PatStep::AnonPath);
                }
                // Sugar: after `..` a bare attribute name may follow without
                // a dot (`from my_article .. title(t)`), as in the paper.
                Some(Tok::Ident(s))
                    if matches!(out.last(), Some(PatStep::AnonPath)) && !is_reserved(s) =>
                {
                    let name = s.clone();
                    self.pos += 1;
                    if name.starts_with("ATT_") {
                        out.push(PatStep::AttrVar(name));
                    } else {
                        out.push(PatStep::Attr(name));
                    }
                }
                Some(Tok::Arrow) => {
                    self.pos += 1;
                    out.push(PatStep::Deref);
                }
                Some(Tok::Dot) => {
                    self.pos += 1;
                    let name = self.ident()?;
                    if name.starts_with("ATT_") {
                        out.push(PatStep::AttrVar(name));
                    } else {
                        out.push(PatStep::Attr(name));
                    }
                }
                Some(Tok::LBracket) => {
                    self.pos += 1;
                    match self.bump() {
                        Some(Tok::Int(i)) => {
                            let i = usize::try_from(i)
                                .map_err(|_| self.err("negative index".to_string()))?;
                            out.push(PatStep::Index(i));
                        }
                        Some(Tok::Ident(v)) => out.push(PatStep::IndexVar(v)),
                        other => {
                            return Err(self.err(format!("expected an index, found {other:?}")));
                        }
                    }
                    self.expect(&Tok::RBracket)?;
                }
                Some(Tok::LParen) => {
                    // `(x)` binder — only when a single identifier inside.
                    if let (Some(Tok::Ident(_)), Some(Tok::RParen)) =
                        (self.peek2(), self.tokens.get(self.pos + 2).map(|t| &t.kind))
                    {
                        self.pos += 1;
                        let v = self.ident()?;
                        self.expect(&Tok::RParen)?;
                        out.push(PatStep::Bind(v));
                    } else {
                        break;
                    }
                }
                Some(Tok::LBrace) => {
                    self.pos += 1;
                    let v = self.ident()?;
                    self.expect(&Tok::RBrace)?;
                    out.push(PatStep::SetBind(v));
                }
                _ => break,
            }
        }
        Ok(out)
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, O2sqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, O2sqlError> {
        let mut items = vec![self.and_expr()?];
        while self.keyword("or") {
            items.push(self.and_expr()?);
        }
        Ok(match <[Expr; 1]>::try_from(items) {
            Ok([only]) => only,
            Err(items) => Expr::Or(items),
        })
    }

    fn and_expr(&mut self) -> Result<Expr, O2sqlError> {
        let mut items = vec![self.not_expr()?];
        while self.keyword("and") {
            items.push(self.not_expr()?);
        }
        Ok(match <[Expr; 1]>::try_from(items) {
            Ok([only]) => only,
            Err(items) => Expr::And(items),
        })
    }

    fn not_expr(&mut self) -> Result<Expr, O2sqlError> {
        if self.keyword("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, O2sqlError> {
        let left = self.postfix()?;
        if self.keyword("contains") {
            let arg = self.contains_arg()?;
            return Ok(Expr::Contains(Box::new(left), arg));
        }
        if self.keyword("in") {
            let right = self.postfix()?;
            return Ok(Expr::InTest(Box::new(left), Box::new(right)));
        }
        let op = match self.peek() {
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.postfix()?;
        Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
    }

    fn postfix(&mut self) -> Result<Expr, O2sqlError> {
        let mut base = self.primary()?;
        let mut sels = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Dot) => {
                    self.pos += 1;
                    sels.push(Sel::Attr(self.ident()?));
                }
                Some(Tok::LBracket) => {
                    self.pos += 1;
                    match self.bump() {
                        Some(Tok::Int(i)) => {
                            let i = usize::try_from(i)
                                .map_err(|_| self.err("negative index".to_string()))?;
                            sels.push(Sel::Index(i));
                        }
                        other => {
                            return Err(self.err(format!(
                                "expected a constant index in expression, found {other:?}"
                            )));
                        }
                    }
                    self.expect(&Tok::RBracket)?;
                }
                _ => break,
            }
        }
        if !sels.is_empty() {
            base = Expr::Path(Box::new(base), sels);
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr, O2sqlError> {
        match self.peek().cloned() {
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Str(s)))
            }
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Int(i)))
            }
            Some(Tok::Float(x)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Float(x)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "nil" => return Ok(Expr::Lit(Value::Nil)),
                    "true" => return Ok(Expr::Lit(Value::Bool(true))),
                    "false" => return Ok(Expr::Lit(Value::Bool(false))),
                    "tuple" => {
                        self.expect(&Tok::LParen)?;
                        let mut fields = Vec::new();
                        if !self.eat(&Tok::RParen) {
                            loop {
                                let n = self.ident()?;
                                self.expect(&Tok::Colon)?;
                                fields.push((n, self.expr()?));
                                if self.eat(&Tok::Comma) {
                                    continue;
                                }
                                self.expect(&Tok::RParen)?;
                                break;
                            }
                        }
                        return Ok(Expr::TupleCons(fields));
                    }
                    "exists" => {
                        self.expect(&Tok::LParen)?;
                        let var = self.ident()?;
                        if !self.keyword("in") {
                            return Err(self.err("expected `in` inside exists".to_string()));
                        }
                        let source = self.expr()?;
                        self.expect(&Tok::Colon)?;
                        let cond = self.expr()?;
                        self.expect(&Tok::RParen)?;
                        return Ok(Expr::Exists(var, Box::new(source), Box::new(cond)));
                    }
                    "list" | "set" => {
                        self.expect(&Tok::LParen)?;
                        let mut items = Vec::new();
                        if !self.eat(&Tok::RParen) {
                            loop {
                                items.push(self.expr()?);
                                if self.eat(&Tok::Comma) {
                                    continue;
                                }
                                self.expect(&Tok::RParen)?;
                                break;
                            }
                        }
                        return Ok(if lower == "list" {
                            Expr::ListCons(items)
                        } else {
                            Expr::SetCons(items)
                        });
                    }
                    _ => {}
                }
                if self.peek() == Some(&Tok::LParen) {
                    // Function call.
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&Tok::Comma) {
                                continue;
                            }
                            self.expect(&Tok::RParen)?;
                            break;
                        }
                    }
                    return Ok(Expr::Call(name, args));
                }
                Ok(Expr::Ident(name))
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of input".to_string())
            ))),
        }
    }

    // ---- contains argument -----------------------------------------------

    fn contains_arg(&mut self) -> Result<CBool, O2sqlError> {
        if self.eat(&Tok::LParen) {
            let c = self.cbool_or()?;
            self.expect(&Tok::RParen)?;
            Ok(c)
        } else {
            match self.bump() {
                Some(Tok::Str(s)) => Ok(CBool::Pat(s)),
                other => Err(self.err(format!(
                    "contains needs a pattern string or a parenthesised combination, found {other:?}"
                ))),
            }
        }
    }

    fn cbool_or(&mut self) -> Result<CBool, O2sqlError> {
        let mut items = vec![self.cbool_and()?];
        while self.keyword("or") {
            items.push(self.cbool_and()?);
        }
        Ok(match <[CBool; 1]>::try_from(items) {
            Ok([only]) => only,
            Err(items) => CBool::Or(items),
        })
    }

    fn cbool_and(&mut self) -> Result<CBool, O2sqlError> {
        let mut items = vec![self.cbool_atom()?];
        while self.keyword("and") {
            items.push(self.cbool_atom()?);
        }
        Ok(match <[CBool; 1]>::try_from(items) {
            Ok([only]) => only,
            Err(items) => CBool::And(items),
        })
    }

    fn cbool_atom(&mut self) -> Result<CBool, O2sqlError> {
        if self.keyword("not") {
            return Ok(CBool::Not(Box::new(self.cbool_atom()?)));
        }
        if self.eat(&Tok::LParen) {
            let c = self.cbool_or()?;
            self.expect(&Tok::RParen)?;
            return Ok(c);
        }
        match self.bump() {
            Some(Tok::Str(s)) => Ok(CBool::Pat(s)),
            other => Err(self.err(format!("expected a pattern string, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let q = parse(
            "select tuple (t: a.title, f_author: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")",
        )
        .unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        assert!(matches!(s.select, Expr::TupleCons(ref fs) if fs.len() == 2));
        assert_eq!(s.from.len(), 2);
        match &s.where_ {
            Some(Expr::Contains(_, CBool::And(items))) => assert_eq!(items.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_q3_path_pattern() {
        let q = parse("select t from my_article PATH_p.title(t)").unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        match &s.from[0] {
            FromItem::Pattern { base, steps } => {
                assert_eq!(base, "my_article");
                assert_eq!(
                    steps,
                    &vec![
                        PatStep::PathVar("PATH_p".into()),
                        PatStep::Attr("title".into()),
                        PatStep::Bind("t".into())
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_q3_sugar() {
        let q = parse("select t from my_article .. title(t)").unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        match &s.from[0] {
            FromItem::Pattern { steps, .. } => {
                // `..` then bare attr name: the attr comes through as a Dot
                // step? No — `.. title` has no dot before title.
                assert_eq!(steps[0], PatStep::AnonPath);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_q4_difference() {
        let q = parse("my_article PATH_p - my_old_article PATH_p").unwrap();
        match q {
            TopQuery::SetOp(l, SetOpKind::Difference, r) => {
                assert!(matches!(*l, TopQuery::PathQuery { .. }));
                assert!(matches!(*r, TopQuery::PathQuery { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_q5_attr_variable() {
        let q = parse(
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"final\")",
        )
        .unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        assert!(matches!(s.select, Expr::Call(ref n, _) if n == "name"));
        match &s.from[0] {
            FromItem::Pattern { steps, .. } => {
                assert_eq!(steps[1], PatStep::AttrVar("ATT_a".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_q6_positions() {
        let q = parse(
            "select letter from letter in Letters, \
             i in positions(letter.preamble, \"from\"), \
             j in positions(letter.preamble, \"to\") \
             where j < i",
        )
        .unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        assert_eq!(s.from.len(), 3);
        assert!(matches!(s.where_, Some(Expr::Cmp(CmpOp::Lt, _, _))));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("select").is_err());
        assert!(parse("select x from").is_err());
        assert!(parse("x").is_err());
        assert!(parse("select x from a in B where").is_err());
    }

    #[test]
    fn index_steps_in_patterns() {
        let q = parse("select x from doc PATH_p.sections[0].title(x)").unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        match &s.from[0] {
            FromItem::Pattern { steps, .. } => {
                assert!(steps.contains(&PatStep::Index(0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn near_call_in_where() {
        let q = parse("select a from a in Articles where near(text(a), \"SGML\", \"OODBMS\", 5)")
            .unwrap();
        let TopQuery::Select(s) = q else { panic!() };
        assert!(
            matches!(s.where_, Some(Expr::Call(ref n, ref args)) if n == "near" && args.len() == 4)
        );
    }
}
