//! Recursive-descent parser for directive lines.
//!
//! A program is a sequence of lines; lines beginning with `!HPF$` or
//! `!EXT$` (case-insensitive) are directives, a trailing `&` continues a
//! directive onto the next line (whose sentinel is stripped), and
//! everything else — Fortran statements, `C --` comments, blanks — is
//! skipped. This is exactly enough to parse the paper's listings
//! (Figures 2 and 5 and the Section 4/5 fragments) verbatim.

use crate::ast::{AlignPattern, Directive, DistFormat, MergeSpec, PrivateSpec, SparseFmt};
use crate::expr::Expr;
use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// Parse error with line/column context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a whole source text, returning the directives in order.
pub fn parse_program(src: &str) -> Result<Vec<Directive>, ParseError> {
    let mut directives = Vec::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let Some(mut body) = directive_body(raw) else {
            continue;
        };
        let logical_line = lineno + 1;
        // Splice continuations: a trailing '&' joins the next directive
        // line (with its sentinel and optional leading '&' removed).
        while body.trim_end().ends_with('&') {
            let trimmed = body.trim_end();
            body = trimmed[..trimmed.len() - 1].to_string();
            match lines.next() {
                Some((_, next_raw)) => {
                    let next = directive_body(next_raw).unwrap_or_else(|| next_raw.to_string());
                    body.push(' ');
                    body.push_str(next.trim_start().trim_start_matches('&'));
                }
                None => {
                    return Err(ParseError {
                        line: logical_line,
                        col: body.len(),
                        message: "continuation '&' at end of input".into(),
                    })
                }
            }
        }
        let tokens = lex(&body).map_err(|e| ParseError {
            line: logical_line,
            col: e.col,
            message: e.message,
        })?;
        let mut p = Parser::new(tokens, logical_line);
        directives.push(p.directive()?);
        p.expect_end()?;
    }
    Ok(directives)
}

/// Parse a single directive (no sentinel).
pub fn parse_directive(body: &str) -> Result<Directive, ParseError> {
    let tokens = lex(body).map_err(|e| ParseError {
        line: 1,
        col: e.col,
        message: e.message,
    })?;
    let mut p = Parser::new(tokens, 1);
    let d = p.directive()?;
    p.expect_end()?;
    Ok(d)
}

/// Extract the directive body from a raw source line, if it is one.
fn directive_body(raw: &str) -> Option<String> {
    let t = raw.trim_start();
    for sentinel in ["!HPF$", "!EXT$", "$HPF$", "$EXT$", "CHPF$", "CEXT$"] {
        // Compared by bytes: a sentinel-long prefix may end inside a
        // character.
        let head = t.as_bytes().get(..sentinel.len());
        if head.is_some_and(|head| head.eq_ignore_ascii_case(sentinel.as_bytes())) {
            return Some(t[sentinel.len()..].to_string());
        }
    }
    None
}

/// How deep `(` and unary `-` may nest in one expression: far beyond
/// any listing, and shallow enough that hostile input cannot overflow the
/// descent's stack (the JSON codec's cap).
const MAX_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    line: usize,
    /// Open `(` and unary `-` around the expression being parsed.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>, line: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            line,
            depth: 0,
        }
    }

    fn err(&self, col: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn col(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.col)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.col + 1).unwrap_or(1))
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(
                self.col(),
                format!(
                    "expected '{kind}', found {}",
                    self.peek()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of line".into())
                ),
            ))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(self.col(), format!("expected keyword '{kw}'")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let col = self.col();
        match self.bump() {
            Some(TokenKind::Ident(s)) => Ok(s),
            other => Err(self.err(
                col,
                format!(
                    "expected identifier, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of line".into())
                ),
            )),
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err(self.col(), "unexpected trailing tokens"))
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence: +- over */, unary minus)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
            } else if self.eat(&TokenKind::Minus) {
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            if self.eat(&TokenKind::Star) {
                lhs = Expr::Mul(Box::new(lhs), Box::new(self.factor()?));
            } else if self.eat(&TokenKind::Slash) {
                lhs = Expr::Div(Box::new(lhs), Box::new(self.factor()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        let col = self.col();
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.nested(col, Self::factor)?)));
        }
        if self.eat(&TokenKind::LParen) {
            let e = self.nested(col, Self::expr)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        match self.bump() {
            Some(TokenKind::Int(v)) => i64::try_from(v)
                .map(Expr::Num)
                .map_err(|_| self.err(col, format!("integer {v} does not fit in an i64"))),
            Some(TokenKind::Ident(s)) => Ok(Expr::Var(s)),
            other => Err(self.err(
                col,
                format!(
                    "expected expression, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of line".into())
                ),
            )),
        }
    }

    /// `inner` one level inside a `(` or a unary `-` opened at `col`;
    /// past [`MAX_DEPTH`] levels, an error.
    fn nested(
        &mut self,
        col: usize,
        inner: fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            let message = format!("expression nested deeper than {MAX_DEPTH}");
            return Err(self.err(col, message));
        }
        self.depth += 1;
        let e = inner(self);
        self.depth -= 1;
        e
    }

    // ------------------------------------------------------------------
    // Directives
    // ------------------------------------------------------------------

    fn directive(&mut self) -> Result<Directive, ParseError> {
        let mut dynamic = false;
        if self.eat_kw("DYNAMIC") {
            dynamic = true;
            self.expect(&TokenKind::Comma)?;
        }
        let col = self.col();
        if self.eat_kw("PROCESSORS") {
            self.processors()
        } else if self.eat_kw("DISTRIBUTE") {
            self.distribute(dynamic)
        } else if self.eat_kw("ALIGN") {
            self.align(dynamic)
        } else if self.eat_kw("REDISTRIBUTE") {
            self.redistribute()
        } else if self.eat_kw("INDIVISABLE") || self.eat_kw("INDIVISIBLE") {
            self.indivisable()
        } else if self.eat_kw("SPARSE_MATRIX") {
            self.sparse_matrix()
        } else if self.eat_kw("ITERATION") {
            self.iteration()
        } else {
            Err(self.err(col, "unknown directive"))
        }
    }

    /// `PROCESSORS [::] PROCS(extent)`
    fn processors(&mut self) -> Result<Directive, ParseError> {
        let _ = self.eat(&TokenKind::DoubleColon);
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let extent = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Directive::Processors { name, extent })
    }

    /// `array ( format )`
    fn distribute(&mut self, dynamic: bool) -> Result<Directive, ParseError> {
        let array = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let format = self.dist_format()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Directive::Distribute {
            dynamic,
            array,
            format,
        })
    }

    fn redistribute(&mut self) -> Result<Directive, ParseError> {
        let array = self.ident()?;
        if self.eat_kw("USING") {
            let partitioner = self.ident()?;
            return Ok(Directive::RedistributeUsing { array, partitioner });
        }
        self.expect(&TokenKind::LParen)?;
        let format = self.dist_format()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Directive::Redistribute { array, format })
    }

    fn dist_format(&mut self) -> Result<DistFormat, ParseError> {
        let col = self.col();
        if self.eat(&TokenKind::Star) {
            return Ok(DistFormat::Replicated);
        }
        if self.eat_kw("ATOM") {
            self.expect(&TokenKind::Colon)?;
            if self.eat_kw("BLOCK") {
                return Ok(DistFormat::AtomBlock);
            }
            if self.eat_kw("CYCLIC") {
                return Ok(DistFormat::AtomCyclic);
            }
            return Err(self.err(self.col(), "expected BLOCK or CYCLIC after ATOM:"));
        }
        if self.eat_kw("BLOCK") {
            let size = self.optional_size()?;
            return Ok(DistFormat::Block(size));
        }
        if self.eat_kw("CYCLIC") {
            let size = self.optional_size()?;
            return Ok(DistFormat::Cyclic(size));
        }
        Err(self.err(col, "expected BLOCK, CYCLIC, ATOM:..., or *"))
    }

    fn optional_size(&mut self) -> Result<Option<Expr>, ParseError> {
        if self.eat(&TokenKind::LParen) {
            let e = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            Ok(Some(e))
        } else {
            Ok(None)
        }
    }

    /// `ALIGN <source> WITH target(:) [:: a, b, c]`
    fn align(&mut self, dynamic: bool) -> Result<Directive, ParseError> {
        // Source pattern: either "(:)" (group form) or "name(<pattern>)".
        let (mut arrays, pattern) = if self.peek() == Some(&TokenKind::LParen) {
            // Group form: the subscript comes first, arrays trail `::`.
            self.expect(&TokenKind::LParen)?;
            self.expect(&TokenKind::Colon)?;
            self.expect(&TokenKind::RParen)?;
            (Vec::new(), AlignPattern::Identity)
        } else {
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let pattern = self.align_pattern()?;
            self.expect(&TokenKind::RParen)?;
            (vec![name], pattern)
        };
        self.expect_kw("WITH")?;
        let target = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        // Target subscript: `(:)` or `(i)` for the atom form.
        if !self.eat(&TokenKind::Colon) {
            let _ = self.ident()?; // the atom index variable reference
        }
        self.expect(&TokenKind::RParen)?;
        if self.eat(&TokenKind::DoubleColon) {
            loop {
                arrays.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if arrays.is_empty() {
            return Err(self.err(self.col(), "ALIGN names no source arrays"));
        }
        Ok(Directive::Align {
            dynamic,
            arrays,
            pattern,
            target,
        })
    }

    fn align_pattern(&mut self) -> Result<AlignPattern, ParseError> {
        let col = self.col();
        if self.eat_kw("ATOM") {
            self.expect(&TokenKind::Colon)?;
            let var = self.ident()?;
            return Ok(AlignPattern::Atom(var));
        }
        if self.eat(&TokenKind::Colon) {
            if self.eat(&TokenKind::Comma) {
                self.expect(&TokenKind::Star)?;
                return Ok(AlignPattern::FirstDim);
            }
            return Ok(AlignPattern::Identity);
        }
        if self.eat(&TokenKind::Star) {
            self.expect(&TokenKind::Comma)?;
            self.expect(&TokenKind::Colon)?;
            return Ok(AlignPattern::SecondDim);
        }
        Err(self.err(
            col,
            "expected ':', ':,*', '*,:' or 'ATOM:i' in ALIGN subscript",
        ))
    }

    /// `row(ATOM:i) :: col(i:i+1)`
    fn indivisable(&mut self) -> Result<Directive, ParseError> {
        let array = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        self.expect_kw("ATOM")?;
        self.expect(&TokenKind::Colon)?;
        let index_var = self.ident()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::DoubleColon)?;
        let bound_array = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let lo = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let hi = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Directive::Indivisable {
            array,
            index_var,
            bound_array,
            lo,
            hi,
        })
    }

    /// `(CSR) :: smA(row, col, a)`
    fn sparse_matrix(&mut self) -> Result<Directive, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let col = self.col();
        let fmt = self.ident()?;
        let format = if fmt.eq_ignore_ascii_case("csr") {
            SparseFmt::Csr
        } else if fmt.eq_ignore_ascii_case("csc") {
            SparseFmt::Csc
        } else {
            return Err(self.err(col, format!("unknown sparse format '{fmt}'")));
        };
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::DoubleColon)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let ptr = self.ident()?;
        self.expect(&TokenKind::Comma)?;
        let idx = self.ident()?;
        self.expect(&TokenKind::Comma)?;
        let values = self.ident()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Directive::SparseMatrix {
            format,
            name,
            ptr,
            idx,
            values,
        })
    }

    /// `j ON PROCESSOR(expr) [, PRIVATE(q(n)) WITH MERGE(+) | WITH DISCARD] [, NEW(a, b)] ...`
    fn iteration(&mut self) -> Result<Directive, ParseError> {
        let loop_var = self.ident()?;
        self.expect_kw("ON")?;
        self.expect_kw("PROCESSOR")?;
        self.expect(&TokenKind::LParen)?;
        let on_expr = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let mut privates = Vec::new();
        let mut news = Vec::new();
        while self.eat(&TokenKind::Comma) {
            if self.eat_kw("PRIVATE") {
                self.expect(&TokenKind::LParen)?;
                let array = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let extent = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::RParen)?;
                let merge = if self.eat_kw("WITH") {
                    if self.eat_kw("MERGE") {
                        self.expect(&TokenKind::LParen)?;
                        let col = self.col();
                        let m = if self.eat(&TokenKind::Plus) {
                            MergeSpec::Sum
                        } else if self.eat_kw("MAX") {
                            MergeSpec::Max
                        } else if self.eat_kw("MIN") {
                            MergeSpec::Min
                        } else {
                            return Err(self.err(col, "expected '+', MAX or MIN in MERGE"));
                        };
                        self.expect(&TokenKind::RParen)?;
                        m
                    } else if self.eat_kw("DISCARD") {
                        MergeSpec::Discard
                    } else {
                        return Err(self.err(self.col(), "expected MERGE(...) or DISCARD"));
                    }
                } else {
                    MergeSpec::Discard
                };
                // De-duplicate repeated PRIVATE clauses for the same
                // array (the paper's Figure 5 listing repeats one).
                if !privates
                    .iter()
                    .any(|p: &PrivateSpec| p.array.eq_ignore_ascii_case(&array))
                {
                    privates.push(PrivateSpec {
                        array,
                        extent,
                        merge,
                    });
                }
            } else if self.eat_kw("NEW") {
                self.expect(&TokenKind::LParen)?;
                loop {
                    news.push(self.ident()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
            } else {
                return Err(self.err(self.col(), "expected PRIVATE or NEW clause"));
            }
        }
        Ok(Directive::IterationMapping {
            loop_var,
            on_expr,
            privates,
            news,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;

    #[test]
    fn parses_figure2_directive_block() {
        // The exact directive block of the paper's Figure 2.
        let src = "\
REAL, dimension(1:nz) :: a
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
DO k=1,Niter
";
        let ds = parse_program(src).unwrap();
        assert_eq!(ds.len(), 6);
        assert_eq!(ds[0].kind(), "PROCESSORS");
        match &ds[1] {
            Directive::Align {
                arrays,
                pattern,
                target,
                ..
            } => {
                assert_eq!(arrays, &["q", "r", "x", "b"]);
                assert_eq!(pattern, &AlignPattern::Identity);
                assert_eq!(target, "p");
            }
            other => panic!("{other:?}"),
        }
        match &ds[3] {
            Directive::Distribute {
                array,
                format: DistFormat::Cyclic(Some(e)),
                ..
            } => {
                assert_eq!(array, "row");
                let env = Env::new().bind("n", 10).bind("np", 4);
                assert_eq!(e.eval(&env).unwrap(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_scenario_align_patterns() {
        match parse_directive("ALIGN A(:, *) WITH p(:)").unwrap() {
            Directive::Align { pattern, .. } => assert_eq!(pattern, AlignPattern::FirstDim),
            other => panic!("{other:?}"),
        }
        match parse_directive("ALIGN A(*, :) WITH p(:)").unwrap() {
            Directive::Align { pattern, .. } => assert_eq!(pattern, AlignPattern::SecondDim),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_dynamic_prefix() {
        match parse_directive("DYNAMIC, DISTRIBUTE row(BLOCK)").unwrap() {
            Directive::Distribute { dynamic, .. } => assert!(dynamic),
            other => panic!("{other:?}"),
        }
        match parse_directive("DYNAMIC, ALIGN a(:) WITH col(:)").unwrap() {
            Directive::Align { dynamic, .. } => assert!(dynamic),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_paper_block_size_form() {
        // $HPF$ DISTRIBUTE row(BLOCK( (n+NP-1)/NP ))
        match parse_directive("DISTRIBUTE row(BLOCK( (n+NP-1)/NP ))").unwrap() {
            Directive::Distribute {
                format: DistFormat::Block(Some(e)),
                ..
            } => {
                let env = Env::new().bind("n", 100).bind("np", 8);
                assert_eq!(e.eval(&env).unwrap(), 13);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_atom_redistribute() {
        match parse_directive("REDISTRIBUTE row(ATOM: BLOCK)").unwrap() {
            Directive::Redistribute {
                format: DistFormat::AtomBlock,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        match parse_directive("REDISTRIBUTE row(ATOM: CYCLIC)").unwrap() {
            Directive::Redistribute {
                format: DistFormat::AtomCyclic,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_redistribute_using_partitioner() {
        match parse_directive("REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1").unwrap() {
            Directive::RedistributeUsing { array, partitioner } => {
                assert_eq!(array, "smA");
                assert_eq!(partitioner, "CG_BALANCED_PARTITIONER_1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_indivisable() {
        match parse_directive("INDIVISABLE row(ATOM:i) :: col(i:i+1)").unwrap() {
            Directive::Indivisable {
                array,
                index_var,
                bound_array,
                lo,
                hi,
            } => {
                assert_eq!(array, "row");
                assert_eq!(index_var, "i");
                assert_eq!(bound_array, "col");
                let env = Env::new().bind("i", 5);
                assert_eq!(lo.eval(&env).unwrap(), 5);
                assert_eq!(hi.eval(&env).unwrap(), 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sparse_matrix_directive() {
        match parse_directive("SPARSE_MATRIX (CSR) :: smA(row, col, a)").unwrap() {
            Directive::SparseMatrix {
                format,
                name,
                ptr,
                idx,
                values,
            } => {
                assert_eq!(format, SparseFmt::Csr);
                assert_eq!(name, "smA");
                assert_eq!(
                    (ptr.as_str(), idx.as_str(), values.as_str()),
                    ("row", "col", "a")
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_directive("SPARSE_MATRIX (XYZ) :: m(a,b,c)").is_err());
    }

    #[test]
    fn parses_figure5_iteration_mapping_with_continuations() {
        // The paper's Figure 5 listing, verbatim including the '&'
        // continuations and the duplicated PRIVATE clause.
        let src = "\
!EXT$ ITERATION j ON PROCESSOR(j/np), &
!EXT$ PRIVATE(q(n)) WITH MERGE(+), &
!EXT$ NEW(pj, k), PRIVATE(q(n))
";
        let ds = parse_program(src).unwrap();
        assert_eq!(ds.len(), 1);
        match &ds[0] {
            Directive::IterationMapping {
                loop_var,
                on_expr,
                privates,
                news,
            } => {
                assert_eq!(loop_var, "j");
                let env = Env::new().bind("j", 10).bind("np", 4);
                assert_eq!(on_expr.eval(&env).unwrap(), 2);
                assert_eq!(privates.len(), 1); // duplicate collapsed
                assert_eq!(privates[0].array, "q");
                assert_eq!(privates[0].merge, MergeSpec::Sum);
                assert_eq!(news, &["pj", "k"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_merge_variants() {
        let d =
            parse_directive("ITERATION i ON PROCESSOR(i), PRIVATE(v(8)) WITH MERGE(MAX)").unwrap();
        match d {
            Directive::IterationMapping { privates, .. } => {
                assert_eq!(privates[0].merge, MergeSpec::Max)
            }
            other => panic!("{other:?}"),
        }
        let d = parse_directive("ITERATION i ON PROCESSOR(i), PRIVATE(v(8)) WITH DISCARD").unwrap();
        match d {
            Directive::IterationMapping { privates, .. } => {
                assert_eq!(privates[0].merge, MergeSpec::Discard)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_atom_alignment_extension() {
        match parse_directive("ALIGN row(ATOM:i) WITH col(i)").unwrap() {
            Directive::Align { pattern, .. } => {
                assert_eq!(pattern, AlignPattern::Atom("i".into()))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skips_non_directive_lines() {
        let src = "REAL :: x(10)\nC -- comment\n\n!HPF$ DISTRIBUTE x(BLOCK)\nq = 0.0\n";
        let ds = parse_program(src).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn error_messages_carry_location() {
        let err = parse_directive("DISTRIBUTE p(NONSENSE)").unwrap_err();
        assert!(err.message.contains("BLOCK"));
        assert!(err.col > 0);
        let err = parse_program("!HPF$ DISTRIBUTE p(BLOCK) extra\n").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn dollar_sentinel_accepted() {
        // The paper uses `$HPF$` in some fragments.
        let ds = parse_program("$HPF$ DISTRIBUTE row(BLOCK( (n+NP-1)/NP ))\n").unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn dangling_continuation_rejected() {
        let err = parse_program("!HPF$ DISTRIBUTE p(BLOCK), &\n").unwrap_err();
        assert!(err.message.contains("continuation"));
    }
}
