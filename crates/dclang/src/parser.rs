//! Recursive-descent parser for the mini directive-C language.
//!
//! The parser consumes the `Copy` token stream produced by the zero-copy
//! lexer: tokens are copied (never cloned through the heap), identifier
//! payloads are [`Symbol`]s resolved against the session [`Interner`] only
//! at the point an AST node is built, and error messages spell names out via
//! the same interner.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::directive::{parse_pragma, Directive};
use crate::intern::{Interner, Symbol};
use crate::lexer::LexOutput;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The deepest nesting of statements and operands a unit may reach (each
/// pair of parentheses, unary operator and operator-chain link counts).
/// Every later pass recurses once per level, so deeper input must fail to
/// compile rather than overflow the stack; at this limit a debug build
/// still compiles and runs the deepest shapes on a 2 MiB thread.
pub const MAX_NESTING: usize = 128;

/// Result of a successful parse.
#[derive(Clone, Debug)]
pub struct ParseOutput {
    /// The parsed translation unit.
    pub unit: TranslationUnit,
    /// Non-fatal diagnostics (warnings/notes) collected while parsing.
    pub diagnostics: Vec<Diagnostic>,
    /// The deepest nesting level the unit reached, at most [`MAX_NESTING`].
    pub nesting: usize,
}

/// The parser. Construct with [`Parser::new`] from a [`LexOutput`] and the
/// [`Interner`] the tokens were lexed with, then call [`Parser::parse`].
pub struct Parser<'i> {
    tokens: Vec<Token>,
    pos: usize,
    includes: Vec<String>,
    defines: Vec<(String, String)>,
    diagnostics: Vec<Diagnostic>,
    interner: &'i Interner,
    /// Nesting level of the node being parsed (see [`MAX_NESTING`]), and
    /// the deepest level reached inside it so far.
    depth: usize,
    peak: usize,
}

type PResult<T> = Result<T, Diagnostic>;

impl<'i> Parser<'i> {
    /// Create a parser over lexed tokens.
    pub fn new(lexed: LexOutput, interner: &'i Interner) -> Self {
        Self {
            tokens: lexed.tokens,
            pos: 0,
            includes: lexed.includes,
            defines: lexed.defines,
            diagnostics: lexed.diagnostics,
            interner,
            depth: 0,
            peak: 0,
        }
    }

    /// Parse the whole translation unit. Any syntax error aborts the parse
    /// (mirroring how batch compilers reject a file), returning every
    /// diagnostic collected so far plus the fatal one.
    pub fn parse(mut self) -> Result<ParseOutput, Vec<Diagnostic>> {
        match self.parse_unit() {
            Ok(unit) => Ok(ParseOutput {
                unit,
                diagnostics: self
                    .diagnostics
                    .into_iter()
                    .filter(|d| !d.is_error())
                    .collect(),
                nesting: self.peak,
            }),
            Err(fatal) => {
                let mut diags = self.diagnostics;
                diags.push(fatal);
                Err(diags)
            }
        }
    }

    fn parse_unit(&mut self) -> PResult<TranslationUnit> {
        // Pre-size the top-level vecs from a cheap scan of the token stream:
        // every function definition owns exactly one top-level `{`, and
        // directives are 1:1 with pragma tokens.
        let mut brace_depth = 0i32;
        let mut top_level_braces = 0usize;
        let mut pragmas = 0usize;
        for tok in &self.tokens {
            match tok.kind {
                TokenKind::Punct(Punct::LBrace) => {
                    if brace_depth == 0 {
                        top_level_braces += 1;
                    }
                    brace_depth += 1;
                }
                TokenKind::Punct(Punct::RBrace) => brace_depth -= 1,
                TokenKind::Pragma(_) => pragmas += 1,
                _ => {}
            }
        }
        let mut unit = TranslationUnit {
            includes: std::mem::take(&mut self.includes),
            defines: std::mem::take(&mut self.defines),
            functions: Vec::with_capacity(top_level_braces),
            ..Default::default()
        };
        let mut pending_directives: Vec<Directive> = Vec::with_capacity(pragmas.min(4));
        loop {
            if self.at_eof() {
                break;
            }
            if let TokenKind::Pragma(text) = self.peek().kind {
                let directive = parse_pragma(self.interner.resolve(text), self.peek().span);
                self.bump();
                pending_directives.push(directive);
                continue;
            }
            if self.peek_starts_type() {
                let ty = self.parse_type()?;
                let (name, name_span) = self.expect_ident("declaration name")?;
                if self.check_punct(Punct::LParen) {
                    let mut func = self.parse_function_rest(ty, name, name_span)?;
                    func.leading_directives = std::mem::take(&mut pending_directives);
                    unit.functions.push(func);
                } else {
                    unit.file_directives.append(&mut pending_directives);
                    let decls = self.parse_declarators_rest(ty, name, name_span)?;
                    unit.globals.extend(decls);
                }
            } else {
                let tok = *self.peek();
                return Err(Diagnostic::error(
                    tok.span,
                    "syntax",
                    format!(
                        "expected a declaration or function definition, found {}",
                        self.describe(&tok)
                    ),
                ));
            }
        }
        unit.file_directives.append(&mut pending_directives);
        Ok(unit)
    }

    // ------------------------------------------------------------------
    // token helpers
    // ------------------------------------------------------------------

    fn describe(&self, tok: &Token) -> String {
        tok.kind.describe(self.interner)
    }

    fn resolve(&self, sym: Symbol) -> &'i str {
        self.interner.resolve(sym)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_at(&self, offset: usize) -> &Token {
        &self.tokens[(self.pos + offset).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let tok = *self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn check_punct(&self, p: Punct) -> bool {
        self.peek().is_punct(p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.check_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct, context: &str) -> PResult<Span> {
        if self.check_punct(p) {
            Ok(self.bump().span)
        } else {
            let tok = *self.peek();
            Err(Diagnostic::error(
                tok.span,
                "syntax",
                format!(
                    "expected '{}' {}, found {}",
                    p.as_str(),
                    context,
                    self.describe(&tok)
                ),
            ))
        }
    }

    fn expect_ident(&mut self, context: &str) -> PResult<(String, Span)> {
        match self.peek().kind {
            TokenKind::Ident(sym) => {
                let span = self.bump().span;
                Ok((self.resolve(sym).to_string(), span))
            }
            _ => {
                let tok = *self.peek();
                Err(Diagnostic::error(
                    tok.span,
                    "syntax",
                    format!(
                        "expected {} (identifier), found {}",
                        context,
                        self.describe(&tok)
                    ),
                ))
            }
        }
    }

    fn peek_starts_type(&self) -> bool {
        matches!(&self.peek().kind, TokenKind::Keyword(k) if k.starts_type())
    }

    /// Parse one nested node with `parse`, one level below the current one.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        self.depth += 1;
        let node = self.link().and_then(|()| parse(self));
        self.depth -= 1;
        self.peak = self.peak.max(outer);
        node
    }

    /// One level deeper: a nested node, or a chain link (`a + b`, `a[i]`,
    /// `a++`), which moves everything parsed so far in the open node down.
    fn link(&mut self) -> PResult<()> {
        self.peak += 1;
        if self.peak <= MAX_NESTING {
            return Ok(());
        }
        Err(Diagnostic::error(
            self.peek().span,
            "nesting",
            format!("statements and expressions nest deeper than {MAX_NESTING} levels"),
        ))
    }

    // ------------------------------------------------------------------
    // declarations and types
    // ------------------------------------------------------------------

    fn parse_type(&mut self) -> PResult<Type> {
        let mut is_const = false;
        let mut is_unsigned = false;
        let mut base: Option<BaseType> = None;
        loop {
            match &self.peek().kind {
                TokenKind::Keyword(Keyword::Const) => {
                    is_const = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Unsigned) => {
                    is_unsigned = true;
                    self.bump();
                }
                TokenKind::Keyword(k) if k.starts_type() => {
                    let b = match k {
                        Keyword::Void => BaseType::Void,
                        Keyword::Char => BaseType::Char,
                        Keyword::Int => BaseType::Int,
                        Keyword::Long => BaseType::Long,
                        Keyword::Float => BaseType::Float,
                        Keyword::Double => BaseType::Double,
                        _ => unreachable!("starts_type covers const/unsigned above"),
                    };
                    // `long long` / `long int` are folded into `long`.
                    self.bump();
                    if b == BaseType::Long {
                        while self.peek().is_keyword(Keyword::Long)
                            || self.peek().is_keyword(Keyword::Int)
                        {
                            self.bump();
                        }
                    }
                    base = Some(b);
                    break;
                }
                _ => break,
            }
        }
        let base = match base {
            Some(b) => b,
            None => {
                if is_unsigned {
                    BaseType::Int // `unsigned x` defaults to unsigned int
                } else {
                    let tok = *self.peek();
                    return Err(Diagnostic::error(
                        tok.span,
                        "syntax",
                        format!("expected a type name, found {}", self.describe(&tok)),
                    ));
                }
            }
        };
        let mut pointers = 0u8;
        while self.check_punct(Punct::Star) {
            self.bump();
            pointers = pointers.saturating_add(1);
        }
        Ok(Type {
            base,
            pointers,
            is_const,
            is_unsigned,
        })
    }

    fn parse_function_rest(
        &mut self,
        ret: Type,
        name: String,
        name_span: Span,
    ) -> PResult<Function> {
        self.expect_punct(Punct::LParen, "after function name")?;
        let mut params = Vec::new();
        if !self.check_punct(Punct::RParen) {
            // `void` as the sole parameter means "no parameters".
            if self.peek().is_keyword(Keyword::Void) && self.peek_at(1).is_punct(Punct::RParen) {
                self.bump();
            } else {
                loop {
                    let ty = self.parse_type()?;
                    let (pname, pspan) = self.expect_ident("parameter name")?;
                    // Array parameters decay to pointers.
                    let mut ty = ty;
                    while self.eat_punct(Punct::LBracket) {
                        if !self.check_punct(Punct::RBracket) {
                            let _ = self.parse_expr()?;
                        }
                        self.expect_punct(Punct::RBracket, "to close array parameter")?;
                        ty.pointers = ty.pointers.saturating_add(1);
                    }
                    params.push(Param {
                        ty,
                        name: pname,
                        span: pspan,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect_punct(Punct::RParen, "to close the parameter list")?;
        let body = self.parse_block()?;
        Ok(Function {
            ret,
            name,
            params,
            body,
            span: name_span,
            leading_directives: Vec::new(),
        })
    }

    fn parse_declarators_rest(
        &mut self,
        ty: Type,
        first_name: String,
        first_span: Span,
    ) -> PResult<Vec<VarDecl>> {
        let mut decls = Vec::new();
        let mut name = first_name;
        let mut span = first_span;
        let mut current_ty = ty;
        loop {
            let mut array_dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                if self.check_punct(Punct::RBracket) {
                    // unsized dimension, e.g. `int a[] = ...` is not supported
                    return Err(Diagnostic::error(
                        self.peek().span,
                        "syntax",
                        "array declarations require an explicit size in this language subset",
                    ));
                }
                let dim = self.parse_expr()?;
                self.expect_punct(Punct::RBracket, "to close array dimension")?;
                array_dims.push(dim);
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_assignment_expr()?)
            } else {
                None
            };
            decls.push(VarDecl {
                ty: current_ty,
                name,
                array_dims,
                init,
                span,
            });
            if self.eat_punct(Punct::Comma) {
                // Subsequent declarators carry their own pointer level
                // (`double *a, b;` declares a pointer and a scalar).
                let mut next_ty = Type { pointers: 0, ..ty };
                while self.eat_punct(Punct::Star) {
                    next_ty.pointers = next_ty.pointers.saturating_add(1);
                }
                let (n, s) = self.expect_ident("declarator name")?;
                current_ty = next_ty;
                name = n;
                span = s;
                continue;
            }
            self.expect_punct(Punct::Semi, "at end of declaration")?;
            break;
        }
        Ok(decls)
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn parse_block(&mut self) -> PResult<Block> {
        let span = self.expect_punct(Punct::LBrace, "to open a block")?;
        let mut stmts = Vec::new();
        loop {
            if self.check_punct(Punct::RBrace) {
                self.bump();
                break;
            }
            if self.at_eof() {
                return Err(Diagnostic::error(
                    self.peek().span,
                    "syntax",
                    "expected '}' at end of input",
                ));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Block { stmts, span })
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> PResult<Stmt> {
        let tok = *self.peek();
        match tok.kind {
            TokenKind::Punct(Punct::LBrace) => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty(tok.span))
            }
            TokenKind::Pragma(text) => {
                let directive = parse_pragma(self.resolve(text), tok.span);
                self.bump();
                if directive.is_standalone() {
                    Ok(Stmt::Directive {
                        directive,
                        body: None,
                    })
                } else if self.check_punct(Punct::RBrace) || self.at_eof() {
                    // A structured directive with nothing to govern; the
                    // simulated compiler reports this as a semantic error.
                    self.diagnostics.push(Diagnostic::warning(
                        tok.span,
                        "directive",
                        format!(
                            "directive '{}' is not followed by a statement",
                            directive.display_name()
                        ),
                    ));
                    Ok(Stmt::Directive {
                        directive,
                        body: None,
                    })
                } else {
                    let body = self.parse_stmt()?;
                    Ok(Stmt::Directive {
                        directive,
                        body: Some(Box::new(body)),
                    })
                }
            }
            TokenKind::Keyword(Keyword::If) => self.parse_if(),
            TokenKind::Keyword(Keyword::For) => self.parse_for(),
            TokenKind::Keyword(Keyword::While) => self.parse_while(),
            TokenKind::Keyword(Keyword::Do) => self.parse_do_while(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.check_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi, "after return statement")?;
                Ok(Stmt::Return(value, tok.span))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi, "after 'break'")?;
                Ok(Stmt::Break(tok.span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi, "after 'continue'")?;
                Ok(Stmt::Continue(tok.span))
            }
            TokenKind::Keyword(k) if k.starts_type() => {
                let ty = self.parse_type()?;
                let (name, span) = self.expect_ident("declaration name")?;
                let decls = self.parse_declarators_rest(ty, name, span)?;
                Ok(Stmt::Decl(decls))
            }
            _ => {
                let expr = self.parse_expr()?;
                self.expect_punct(Punct::Semi, "after expression statement")?;
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn parse_if(&mut self) -> PResult<Stmt> {
        let span = self.bump().span; // 'if'
        self.expect_punct(Punct::LParen, "after 'if'")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "to close the 'if' condition")?;
        let then_branch = Box::new(self.parse_stmt()?);
        let else_branch = if self.peek().is_keyword(Keyword::Else) {
            self.bump();
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn parse_for(&mut self) -> PResult<Stmt> {
        let span = self.bump().span; // 'for'
        self.expect_punct(Punct::LParen, "after 'for'")?;
        let init = if self.eat_punct(Punct::Semi) {
            None
        } else if self.peek_starts_type() {
            let ty = self.parse_type()?;
            let (name, nspan) = self.expect_ident("loop variable name")?;
            let decls = self.parse_declarators_rest(ty, name, nspan)?;
            Some(Box::new(Stmt::Decl(decls)))
        } else {
            let expr = self.parse_expr()?;
            self.expect_punct(Punct::Semi, "after 'for' initializer")?;
            Some(Box::new(Stmt::Expr(expr)))
        };
        let cond = if self.check_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::Semi, "after 'for' condition")?;
        let step = if self.check_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(Punct::RParen, "to close the 'for' header")?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn parse_while(&mut self) -> PResult<Stmt> {
        let span = self.bump().span;
        self.expect_punct(Punct::LParen, "after 'while'")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "to close the 'while' condition")?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::While { cond, body, span })
    }

    fn parse_do_while(&mut self) -> PResult<Stmt> {
        let span = self.bump().span;
        let body = Box::new(self.parse_stmt()?);
        if !self.peek().is_keyword(Keyword::While) {
            let tok = *self.peek();
            return Err(Diagnostic::error(
                tok.span,
                "syntax",
                format!(
                    "expected 'while' after do-statement body, found {}",
                    self.describe(&tok)
                ),
            ));
        }
        self.bump();
        self.expect_punct(Punct::LParen, "after 'while'")?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen, "to close the 'do-while' condition")?;
        self.expect_punct(Punct::Semi, "after 'do-while'")?;
        Ok(Stmt::DoWhile { body, cond, span })
    }

    // ------------------------------------------------------------------
    // expressions
    // ------------------------------------------------------------------

    /// Parse a full expression (assignment has the lowest precedence).
    pub fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_assignment_expr()
    }

    fn parse_assignment_expr(&mut self) -> PResult<Expr> {
        self.nested(Self::parse_assignment_here)
    }

    fn parse_assignment_here(&mut self) -> PResult<Expr> {
        let lhs = self.parse_ternary()?;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Assign) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusAssign) => Some(AssignOp::AddAssign),
            TokenKind::Punct(Punct::MinusAssign) => Some(AssignOp::SubAssign),
            TokenKind::Punct(Punct::StarAssign) => Some(AssignOp::MulAssign),
            TokenKind::Punct(Punct::SlashAssign) => Some(AssignOp::DivAssign),
            _ => None,
        };
        if let Some(op) = op {
            let span = self.bump().span;
            let value = self.parse_assignment_expr()?;
            Ok(Expr::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
                span,
            })
        } else {
            Ok(lhs)
        }
    }

    fn parse_ternary(&mut self) -> PResult<Expr> {
        let cond = self.parse_binary(0)?;
        if self.check_punct(Punct::Question) {
            let span = self.bump().span;
            let then_expr = self.parse_expr()?;
            self.expect_punct(Punct::Colon, "in conditional expression")?;
            let else_expr = self.parse_assignment_expr()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn binary_op_for(&self, min_level: u8) -> Option<(BinOp, u8)> {
        let (op, level) = match &self.peek().kind {
            TokenKind::Punct(Punct::OrOr) => (BinOp::Or, 1),
            TokenKind::Punct(Punct::AndAnd) => (BinOp::And, 2),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            TokenKind::Punct(Punct::NotEq) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        if level >= min_level {
            Some((op, level))
        } else {
            None
        }
    }

    fn parse_binary(&mut self, min_level: u8) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, level)) = self.binary_op_for(min_level) {
            self.link()?;
            let span = self.bump().span;
            let rhs = self.nested(|p| p.parse_binary(level + 1))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        self.nested(Self::parse_unary_here)
    }

    fn parse_unary_here(&mut self) -> PResult<Expr> {
        let tok = *self.peek();
        let op = match &tok.kind {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Not) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreIncr),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDecr),
            TokenKind::Punct(Punct::Plus) => {
                // unary plus is a no-op
                self.bump();
                return self.parse_unary();
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.parse_unary()?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span: tok.span,
            });
        }
        // C-style cast: '(' type ')' unary
        if tok.is_punct(Punct::LParen) {
            if let TokenKind::Keyword(k) = &self.peek_at(1).kind {
                if k.starts_type() {
                    let span = self.bump().span; // '('
                    let ty = self.parse_type()?;
                    self.expect_punct(Punct::RParen, "to close the cast")?;
                    let expr = self.parse_unary()?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(expr),
                        span,
                    });
                }
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            if self.check_punct(Punct::LBracket) {
                self.link()?;
                let span = self.bump().span;
                let index = self.parse_expr()?;
                self.expect_punct(Punct::RBracket, "to close the subscript")?;
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(index),
                    span,
                };
            } else if self.check_punct(Punct::LParen) {
                let span = self.bump().span;
                let name = match &expr {
                    Expr::Ident(name, _) => name.clone(),
                    other => {
                        return Err(Diagnostic::error(
                            other.span(),
                            "syntax",
                            "called object is not a function name",
                        ))
                    }
                };
                let mut args = Vec::new();
                if !self.check_punct(Punct::RParen) {
                    loop {
                        args.push(self.parse_assignment_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen, "to close the call")?;
                expr = Expr::Call { name, args, span };
            } else if self.check_punct(Punct::PlusPlus) {
                self.link()?;
                let span = self.bump().span;
                expr = Expr::Postfix {
                    target: Box::new(expr),
                    decrement: false,
                    span,
                };
            } else if self.check_punct(Punct::MinusMinus) {
                self.link()?;
                let span = self.bump().span;
                expr = Expr::Postfix {
                    target: Box::new(expr),
                    decrement: true,
                    span,
                };
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let tok = self.bump();
        match tok.kind {
            TokenKind::IntLit(v) => Ok(Expr::IntLit(v, tok.span)),
            TokenKind::FloatLit(v) => Ok(Expr::FloatLit(v, tok.span)),
            TokenKind::StrLit(s) => Ok(Expr::StrLit(self.resolve(s).to_string(), tok.span)),
            TokenKind::CharLit(c) => Ok(Expr::CharLit(c, tok.span)),
            TokenKind::Ident(sym) => Ok(Expr::Ident(self.resolve(sym).to_string(), tok.span)),
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.expect_punct(Punct::LParen, "after 'sizeof'")?;
                if self.peek_starts_type() {
                    let ty = self.parse_type()?;
                    self.expect_punct(Punct::RParen, "to close 'sizeof'")?;
                    Ok(Expr::SizeofType { ty, span: tok.span })
                } else {
                    // sizeof(expression): evaluate the expression's type at
                    // runtime is unnecessary — represent it as sizeof(double)
                    // which matches its use in allocation expressions.
                    let _ = self.parse_expr()?;
                    self.expect_punct(Punct::RParen, "to close 'sizeof'")?;
                    Ok(Expr::SizeofType {
                        ty: Type::scalar(BaseType::Double),
                        span: tok.span,
                    })
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let expr = self.parse_expr()?;
                self.expect_punct(Punct::RParen, "to close the parenthesised expression")?;
                Ok(expr)
            }
            other => Err(Diagnostic::error(
                tok.span,
                "syntax",
                format!(
                    "expected an expression, found {}",
                    other.describe(self.interner)
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;
    use crate::lexer::lex_with;

    fn parse_ok(src: &str) -> TranslationUnit {
        let mut interner = Interner::new();
        let lexed = lex_with(src, &mut interner);
        Parser::new(lexed, &interner)
            .parse()
            .expect("parse should succeed")
            .unit
    }

    fn parse_err(src: &str) -> Vec<Diagnostic> {
        let mut interner = Interner::new();
        let lexed = lex_with(src, &mut interner);
        Parser::new(lexed, &interner)
            .parse()
            .expect_err("parse should fail")
    }

    #[test]
    fn parse_function_with_params() {
        let unit = parse_ok("int add(int a, int b) { return a + b; }");
        let f = unit.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::scalar(BaseType::Int));
    }

    #[test]
    fn parse_void_param_list() {
        let unit = parse_ok("int main(void) { return 0; }");
        assert!(unit.function("main").unwrap().params.is_empty());
    }

    #[test]
    fn parse_pointer_decl_with_malloc_cast() {
        let unit =
            parse_ok("int main() { double *a = (double *)malloc(10 * sizeof(double)); return 0; }");
        let f = unit.function("main").unwrap();
        match &f.body.stmts[0] {
            Stmt::Decl(decls) => {
                assert_eq!(decls[0].name, "a");
                assert_eq!(decls[0].ty.pointers, 1);
                assert!(matches!(decls[0].init, Some(Expr::Cast { .. })));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_for_loop_with_array_assign() {
        let unit = parse_ok(
            "int main() { int a[16]; for (int i = 0; i < 16; i++) { a[i] = i; } return 0; }",
        );
        let f = unit.function("main").unwrap();
        assert!(matches!(f.body.stmts[1], Stmt::For { .. }));
    }

    #[test]
    fn parse_directive_attached_to_loop() {
        let unit = parse_ok(
            "int main() {\n#pragma acc parallel loop\nfor (int i = 0; i < 4; i++) { }\nreturn 0; }",
        );
        let f = unit.function("main").unwrap();
        match &f.body.stmts[0] {
            Stmt::Directive { directive, body } => {
                assert_eq!(directive.name, vec!["parallel", "loop"]);
                assert!(matches!(body.as_deref(), Some(Stmt::For { .. })));
            }
            other => panic!("expected directive, got {other:?}"),
        }
    }

    #[test]
    fn parse_standalone_directive_has_no_body() {
        let unit =
            parse_ok("int main() {\nint a[4];\n#pragma acc enter data copyin(a[0:4])\nreturn 0; }");
        let f = unit.function("main").unwrap();
        match &f.body.stmts[1] {
            Stmt::Directive { body, .. } => assert!(body.is_none()),
            other => panic!("expected directive, got {other:?}"),
        }
    }

    #[test]
    fn parse_routine_directive_attaches_to_function() {
        let unit = parse_ok("#pragma acc routine seq\nint square(int x) { return x * x; }");
        let f = unit.function("square").unwrap();
        assert_eq!(f.leading_directives.len(), 1);
        assert_eq!(f.leading_directives[0].display_name(), "routine");
    }

    #[test]
    fn missing_close_brace_is_error() {
        let diags = parse_err("int main() { return 0; ");
        assert!(diags
            .iter()
            .any(|d| d.is_error() && d.message.contains("'}'")));
    }

    #[test]
    fn missing_open_brace_is_error() {
        let diags = parse_err("int main()  return 0; }");
        assert!(diags.iter().any(|d| d.is_error()));
    }

    #[test]
    fn missing_semicolon_is_error() {
        let diags = parse_err("int main() { int a = 3 return a; }");
        assert!(diags
            .iter()
            .any(|d| d.is_error() && d.message.contains("';'")));
    }

    #[test]
    fn error_messages_spell_out_identifiers() {
        let diags = parse_err("int main() { int 3x; }");
        assert!(diags.iter().any(|d| d.is_error()));
        let diags = parse_err("banana main() { return 0; }");
        assert!(diags
            .iter()
            .any(|d| d.is_error() && d.message.contains("identifier 'banana'")));
    }

    #[test]
    fn ternary_and_logical_ops_parse() {
        let unit =
            parse_ok("int main() { int a = 1; int b = (a > 0 && a < 5) ? a : -a; return b; }");
        assert_eq!(unit.function("main").unwrap().body.stmts.len(), 3);
    }

    #[test]
    fn while_and_do_while_parse() {
        let unit = parse_ok(
            "int main() { int i = 0; while (i < 3) { i++; } do { i--; } while (i > 0); return i; }",
        );
        let f = unit.function("main").unwrap();
        assert!(matches!(f.body.stmts[1], Stmt::While { .. }));
        assert!(matches!(f.body.stmts[2], Stmt::DoWhile { .. }));
    }

    #[test]
    fn globals_and_defines_recorded() {
        let unit = parse_ok("#define N 8\nint counter = 0;\nint main() { return counter; }");
        assert_eq!(unit.globals.len(), 1);
        assert_eq!(unit.defines, vec![("N".to_string(), "8".to_string())]);
    }

    #[test]
    fn multiple_declarators_in_one_statement() {
        let unit = parse_ok("int main() { int a = 1, b = 2, c = 3; return a + b + c; }");
        match &unit.function("main").unwrap().body.stmts[0] {
            Stmt::Decl(decls) => assert_eq!(decls.len(), 3),
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn compound_assignment_and_postfix() {
        let unit = parse_ok("int main() { int a = 0; a += 2; a--; return a; }");
        let f = unit.function("main").unwrap();
        assert!(matches!(
            f.body.stmts[1],
            Stmt::Expr(Expr::Assign {
                op: AssignOp::AddAssign,
                ..
            })
        ));
        assert!(matches!(
            f.body.stmts[2],
            Stmt::Expr(Expr::Postfix {
                decrement: true,
                ..
            })
        ));
    }

    #[test]
    fn call_with_string_argument() {
        let unit = parse_ok("int main() { printf(\"value: %d\\n\", 42); return 0; }");
        let f = unit.function("main").unwrap();
        match &f.body.stmts[0] {
            Stmt::Expr(Expr::Call { name, args, .. }) => {
                assert_eq!(name, "printf");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn all_directives_collects_in_order() {
        let unit = parse_ok(
            "#pragma omp declare target\nint x = 0;\nint main() {\n#pragma omp target map(tofrom: x)\n{ x = 1; }\nreturn x; }",
        );
        let directives = unit.all_directives();
        assert_eq!(directives.len(), 2);
        assert_eq!(directives[0].display_name(), "declare target");
        assert_eq!(directives[1].display_name(), "target");
    }

    #[test]
    fn nesting_is_measured_and_capped() {
        let nesting = |src: &str| {
            let mut interner = Interner::new();
            let lexed = lex_with(src, &mut interner);
            Parser::new(lexed, &interner).parse().map(|out| out.nesting)
        };
        // Statement, expression, operand; each operator link wraps the
        // operands parsed before it one level deeper.
        assert_eq!(nesting("int main() { return 1; }").unwrap(), 3);
        assert_eq!(nesting("int main() { return 1 + 1 + 1; }").unwrap(), 5);
        let at_limit = format!(
            "int main() {{ return 1{}; }}",
            " + 1".repeat(MAX_NESTING - 3)
        );
        assert_eq!(nesting(&at_limit).unwrap(), MAX_NESTING);
        let past_limit = format!(
            "int main() {{ return 1{}; }}",
            " + 1".repeat(MAX_NESTING - 2)
        );
        let diags = nesting(&past_limit).unwrap_err();
        assert!(diags.iter().any(|d| d.code == "nesting"), "{diags:?}");
    }
}
