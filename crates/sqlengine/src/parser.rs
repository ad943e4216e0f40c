//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{AggFunc, BinOp, Expr, Join, OrderKey, Projection, Select, SortDir, TableRef};
use crate::error::EngineError;
use crate::lexer::{lex, Sym, Token};
use crate::value::Value;

/// Deepest syntax tree [`parse_select`] builds, in levels. The parser, the
/// compiler, the interpreter, the renderer and `Drop` all recurse once per
/// level, and the SQL is model-generated: unbounded nesting would overflow
/// the stack, which aborts the process instead of failing the query.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parse a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<Select, EngineError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, deepest: 0 };
    let sel = p.select()?;
    p.eat_symbol(Sym::Semicolon); // optional trailing semicolon
    if !p.at_end() {
        return Err(p.err(&format!("unexpected trailing tokens at {}", p.pos)));
    }
    Ok(sel)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Tree level of the node being parsed.
    depth: usize,
    /// Deepest level of any node parsed since the enclosing
    /// [`left_assoc`](Parser::left_assoc) chain began — at least `depth`,
    /// more once later operators of a chain pushed earlier operands down.
    deepest: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: &str) -> EngineError {
        EngineError::Parse { message: message.to_string() }
    }

    /// Record that a node sits at `level`, or refuse past [`MAX_DEPTH`].
    fn reach(&mut self, level: usize) -> Result<(), EngineError> {
        self.deepest = self.deepest.max(level);
        if self.deepest > MAX_DEPTH {
            return Err(self.err(&format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Parse `part` one tree level further down.
    fn nested<T>(
        &mut self,
        part: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.depth += 1;
        self.reach(self.depth)?;
        let parsed = part(self);
        self.depth -= 1;
        parsed
    }

    /// `operand (op operand)*`, folded to the left. Every operator becomes
    /// the parent of all that the chain has parsed so far, so the tree grows
    /// a level per operator without the parser recursing — counted here.
    fn left_assoc(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, EngineError>,
        operator: fn(&Token) -> Option<BinOp>,
    ) -> Result<Expr, EngineError> {
        let outside = std::mem::replace(&mut self.deepest, self.depth);
        let mut left = operand(self)?;
        while let Some(op) = self.peek().and_then(operator) {
            self.pos += 1;
            self.reach(self.deepest + 1)?;
            let right = self.nested(operand)?;
            left = Expr::bin(op, left, right);
        }
        self.deepest = self.deepest.max(outside);
        Ok(left)
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume a keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require a keyword.
    fn expect_keyword(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: Sym) -> Result<(), EngineError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {sym:?}, found {:?}", self.peek())))
        }
    }

    /// Consume an identifier (quoted or bare, but not a reserved keyword).
    fn ident(&mut self) -> Result<String, EngineError> {
        match self.next() {
            Some(Token::Ident(s)) => {
                if is_reserved(&s) {
                    Err(self.err(&format!("unexpected keyword {s:?} where identifier expected")))
                } else {
                    Ok(s)
                }
            }
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other:?}"))),
        }
    }

    fn select(&mut self) -> Result<Select, EngineError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = vec![self.projection()?];
        while self.eat_symbol(Sym::Comma) {
            projections.push(self.projection()?);
        }
        self.expect_keyword("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            // INNER JOIN / JOIN
            let saved = self.pos;
            let inner = self.eat_keyword("INNER");
            if self.eat_keyword("JOIN") {
                let table = self.table_ref()?;
                self.expect_keyword("ON")?;
                let on = self.expr()?;
                joins.push(Join { table, on });
            } else {
                if inner {
                    self.pos = saved;
                }
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Sym::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let dir = if self.eat_keyword("DESC") {
                    SortDir::Desc
                } else {
                    self.eat_keyword("ASC");
                    SortDir::Asc
                };
                order_by.push(OrderKey { expr, dir });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(self.err(&format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn projection(&mut self) -> Result<Projection, EngineError> {
        if self.eat_symbol(Sym::Star) {
            return Ok(Projection::Wildcard);
        }
        let expr = self.expr()?;
        Ok(Projection::Expr { expr, alias: self.alias()? })
    }

    /// `AS name`, or a bare name that is not a keyword.
    fn alias(&mut self) -> Result<Option<String>, EngineError> {
        if self.eat_keyword("AS") {
            return self.ident().map(Some);
        }
        match self.peek() {
            Some(Token::Ident(s)) if !is_reserved(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, EngineError> {
        let first = self.ident()?;
        let (database, table) =
            if self.eat_symbol(Sym::Dot) { (Some(first), self.ident()?) } else { (None, first) };
        Ok(TableRef { database, table, alias: self.alias()? })
    }

    fn expr(&mut self) -> Result<Expr, EngineError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, EngineError> {
        self.left_assoc(Self::and_expr, |t| keyword_op(t, "OR", BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr, EngineError> {
        self.left_assoc(Self::not_expr, |t| keyword_op(t, "AND", BinOp::And))
    }

    fn not_expr(&mut self) -> Result<Expr, EngineError> {
        if self.eat_keyword("NOT") {
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        // The comparison node sits at this level, its operands one down.
        self.nested(Self::comparison)
    }

    fn comparison(&mut self) -> Result<Expr, EngineError> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] LIKE / IN / BETWEEN
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("LIKE") {
            match self.next() {
                Some(Token::Str(p)) => {
                    return Ok(Expr::Like { expr: Box::new(left), pattern: p, negated })
                }
                other => return Err(self.err(&format!("expected LIKE pattern, got {other:?}"))),
            }
        }
        if self.eat_keyword("IN") {
            self.expect_symbol(Sym::LParen)?;
            if self.at_keyword("SELECT") {
                let sub = self.select()?;
                self.expect_symbol(Sym::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Sym::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            let between =
                Expr::Between { expr: Box::new(left), low: Box::new(low), high: Box::new(high) };
            if negated {
                self.reach(self.deepest + 1)?; // NOT goes above the BETWEEN
                return Ok(Expr::Not(Box::new(between)));
            }
            return Ok(between);
        }
        if negated {
            return Err(self.err("expected LIKE, IN or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::bin(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, EngineError> {
        self.left_assoc(Self::multiplicative, |t| match t {
            Token::Symbol(Sym::Plus) => Some(BinOp::Add),
            Token::Symbol(Sym::Minus) => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Result<Expr, EngineError> {
        self.left_assoc(Self::unary, |t| match t {
            Token::Symbol(Sym::Star) => Some(BinOp::Mul),
            Token::Symbol(Sym::Slash) => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary(&mut self) -> Result<Expr, EngineError> {
        if self.eat_symbol(Sym::Minus) {
            let inner = self.nested(Self::unary)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, EngineError> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(v)))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(v)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                if self.at_keyword("SELECT") {
                    let sub = self.select()?;
                    self.expect_symbol(Sym::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(sub)));
                }
                let inner = self.expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                // NULL / TRUE / FALSE literals
                if name.eq_ignore_ascii_case("NULL") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                // aggregate call?
                if let Some(func) = AggFunc::parse(&name) {
                    if matches!(self.peek2(), Some(Token::Symbol(Sym::LParen))) {
                        self.pos += 2; // name + lparen
                        if self.eat_symbol(Sym::Star) {
                            self.expect_symbol(Sym::RParen)?;
                            return Ok(Expr::Aggregate { func, arg: None, distinct: false });
                        }
                        let distinct = self.eat_keyword("DISTINCT");
                        let arg = self.expr()?;
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(Expr::Aggregate { func, arg: Some(Box::new(arg)), distinct });
                    }
                }
                if is_reserved(&name) {
                    return Err(self.err(&format!("unexpected keyword {name:?} in expression")));
                }
                self.pos += 1;
                // qualified column?
                if self.eat_symbol(Sym::Dot) {
                    if self.eat_symbol(Sym::Star) {
                        return Err(self.err("qualified wildcard t.* is not supported"));
                    }
                    let col = self.ident()?;
                    return Ok(Expr::Column { table: Some(name), column: col });
                }
                Ok(Expr::Column { table: None, column: name })
            }
            Some(Token::QuotedIdent(name)) => {
                self.pos += 1;
                if self.eat_symbol(Sym::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column { table: Some(name), column: col });
                }
                Ok(Expr::Column { table: None, column: name })
            }
            other => Err(self.err(&format!("unexpected token {other:?} in expression"))),
        }
    }
}

fn keyword_op(token: &Token, keyword: &str, op: BinOp) -> Option<BinOp> {
    matches!(token, Token::Ident(s) if s.eq_ignore_ascii_case(keyword)).then_some(op)
}

/// Keywords that cannot serve as bare identifiers/aliases.
fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER",
        "ON", "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS", "NULL", "DISTINCT", "ASC",
        "DESC", "TRUE", "FALSE", "UNION", "LEFT", "RIGHT", "OUTER", "CASE", "WHEN", "THEN", "ELSE",
        "END",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let s = parse_select("SELECT * FROM singer").unwrap();
        assert!(matches!(s.projections[0], Projection::Wildcard));
        assert_eq!(s.from.table, "singer");
    }

    #[test]
    fn parse_join_with_aliases() {
        let s = parse_select(
            "SELECT s.name FROM singer AS s JOIN singer_in_concert sic ON s.singer_id = sic.singer_id",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.from.alias.as_deref(), Some("s"));
        assert_eq!(s.joins[0].table.alias.as_deref(), Some("sic"));
    }

    #[test]
    fn parse_where_precedence() {
        let s = parse_select("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        // AND binds tighter than OR
        match s.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn parse_group_having_order_limit() {
        let s = parse_select(
            "SELECT city, COUNT(*) AS n FROM t GROUP BY city HAVING COUNT(*) > 2 ORDER BY n DESC, city ASC LIMIT 5",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].dir, SortDir::Desc);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn parse_aggregates() {
        let s = parse_select("SELECT COUNT(*), MAX(pop), AVG(DISTINCT x) FROM t").unwrap();
        assert_eq!(s.projections.len(), 3);
        match &s.projections[2] {
            Projection::Expr { expr: Expr::Aggregate { distinct, .. }, .. } => assert!(distinct),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_in_subquery() {
        let s = parse_select(
            "SELECT river FROM river WHERE traverse IN (SELECT state FROM city WHERE pop = (SELECT MAX(pop) FROM city))",
        )
        .unwrap();
        match s.where_clause.unwrap() {
            Expr::InSubquery { subquery, .. } => {
                assert!(subquery.where_clause.is_some());
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_db_qualified_table() {
        let s = parse_select("SELECT * FROM concert_singer.concert AS c").unwrap();
        assert_eq!(s.from.database.as_deref(), Some("concert_singer"));
        assert_eq!(s.from.table, "concert");
    }

    #[test]
    fn parse_between_and_like() {
        let s =
            parse_select("SELECT a FROM t WHERE y BETWEEN 1 AND 3 AND name LIKE '%ann%'").unwrap();
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parse_is_not_null() {
        let s = parse_select("SELECT a FROM t WHERE b IS NOT NULL").unwrap();
        match s.where_clause.unwrap() {
            Expr::IsNull { negated, .. } => assert!(negated),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn parse_arithmetic_precedence() {
        let s = parse_select("SELECT a + b * c FROM t").unwrap();
        match &s.projections[0] {
            Projection::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn reject_trailing_garbage() {
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t extra stuff here").is_err());
    }

    #[test]
    fn reject_unsupported_union() {
        assert!(parse_select("SELECT a FROM t UNION SELECT b FROM u").is_err());
    }

    /// Every way the grammar can nest, `n` levels deep.
    const NESTINGS: [fn(usize) -> String; 6] = [
        |n| format!("SELECT {}x{} FROM t", "(".repeat(n), ")".repeat(n)),
        |n| format!("SELECT x{} FROM t", " + x".repeat(n)),
        |n| format!("SELECT {}x FROM t", "- ".repeat(n)),
        |n| format!("SELECT x FROM t WHERE {}x = 1", "NOT ".repeat(n)),
        |n| format!("SELECT x FROM t WHERE x = 1{}", " AND x NOT BETWEEN 0 AND MAX(x)".repeat(n)),
        |n| format!("SELECT {}x{} FROM t", "(SELECT ".repeat(n), " FROM t)".repeat(n)),
    ];

    #[test]
    fn nesting_is_bounded_and_the_limit_survives_every_tree_walker() {
        use crate::{
            compile, exec, render_select, DataType, Database, DatabaseSchema, TableSchema,
        };
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(TableSchema::new("t").column("x", DataType::Int));
        let mut db = Database::from_schema(&schema);
        db.insert("t", vec![Value::Int(1)]).unwrap();
        // On a default-stack thread, like every pool worker: unbounded
        // recursion here aborted the whole process, not just the thread.
        let default_stack = std::thread::spawn(move || {
            let prepared = compile::PreparedDb::prepare(&db);
            for nesting in NESTINGS {
                for n in [MAX_DEPTH + 1, 5_000] {
                    match parse_select(&nesting(n)) {
                        Err(EngineError::Parse { message }) => {
                            assert!(message.contains("nests deeper than 128"), "{message}")
                        }
                        other => panic!("{n} levels: {other:?}"),
                    }
                }
                // The deepest query of this shape the parser still accepts
                // goes through everything that recurses over its tree.
                let sql = (1..=MAX_DEPTH).rev().map(nesting).find(|q| parse_select(q).is_ok());
                let sql = sql.expect("some depth parses");
                let select = parse_select(&sql).unwrap();
                let compiled = compile::compile(&prepared, &select)
                    .and_then(|plan| compile::run(&prepared, &plan));
                let interpreted = exec::interpret(&db, &sql);
                assert_eq!(format!("{compiled:?}"), format!("{interpreted:?}"), "{sql}");
                assert!(render_select(&select).starts_with("SELECT"));
            }
        });
        default_stack.join().expect("typed errors past the limit, no overflow at it");
    }

    #[test]
    fn parse_not_in_list() {
        let s = parse_select("SELECT a FROM t WHERE x NOT IN (1, 2, 3)").unwrap();
        match s.where_clause.unwrap() {
            Expr::InList { negated, list, .. } => {
                assert!(negated);
                assert_eq!(list.len(), 3);
            }
            other => panic!("wrong: {other:?}"),
        }
    }
}
