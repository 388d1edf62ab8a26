//! Abstract syntax tree for the mini directive-C language.

use crate::directive::Directive;
use crate::span::Span;

/// Scalar base types supported by the language subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaseType {
    Void,
    Char,
    Int,
    Long,
    Float,
    Double,
}

impl BaseType {
    /// True for the floating-point base types.
    pub fn is_float(&self) -> bool {
        matches!(self, BaseType::Float | BaseType::Double)
    }

    /// Size in bytes, used by `sizeof` and by the execution substrate's
    /// memory model.
    pub fn size_bytes(&self) -> usize {
        match self {
            BaseType::Void => 0,
            BaseType::Char => 1,
            BaseType::Int => 4,
            BaseType::Float => 4,
            BaseType::Long => 8,
            BaseType::Double => 8,
        }
    }
}

/// A (possibly pointer) type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Type {
    /// The scalar base.
    pub base: BaseType,
    /// Number of pointer indirections (`double **` has `pointers == 2`).
    pub pointers: u8,
    /// Whether the declaration used `const`.
    pub is_const: bool,
    /// Whether the declaration used `unsigned`.
    pub is_unsigned: bool,
}

impl Type {
    /// A plain scalar type.
    pub fn scalar(base: BaseType) -> Self {
        Self {
            base,
            pointers: 0,
            is_const: false,
            is_unsigned: false,
        }
    }

    /// A single-level pointer to the base type.
    pub fn pointer(base: BaseType) -> Self {
        Self {
            base,
            pointers: 1,
            is_const: false,
            is_unsigned: false,
        }
    }

    /// True if this is any pointer type.
    pub fn is_pointer(&self) -> bool {
        self.pointers > 0
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// True for comparison operators (result is a boolean-like int).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
    Deref,
    AddrOf,
    PreIncr,
    PreDecr,
}

/// Assignment operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Span),
    /// Floating-point literal.
    FloatLit(f64, Span),
    /// String literal.
    StrLit(String, Span),
    /// Character literal.
    CharLit(char, Span),
    /// Identifier reference.
    Ident(String, Span),
    /// Unary operation.
    Unary {
        op: UnOp,
        expr: Box<Expr>,
        span: Span,
    },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// Assignment (also usable as an expression).
    Assign {
        op: AssignOp,
        target: Box<Expr>,
        value: Box<Expr>,
        span: Span,
    },
    /// Function call.
    Call {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// Array / pointer indexing.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        span: Span,
    },
    /// C-style cast.
    Cast {
        ty: Type,
        expr: Box<Expr>,
        span: Span,
    },
    /// `sizeof(type)`.
    SizeofType { ty: Type, span: Span },
    /// Ternary conditional.
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
        span: Span,
    },
    /// Postfix increment/decrement.
    Postfix {
        target: Box<Expr>,
        decrement: bool,
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::FloatLit(_, s)
            | Expr::StrLit(_, s)
            | Expr::CharLit(_, s)
            | Expr::Ident(_, s) => *s,
            Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::Call { span, .. }
            | Expr::Index { span, .. }
            | Expr::Cast { span, .. }
            | Expr::SizeofType { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Postfix { span, .. } => *span,
        }
    }

    /// Visit this expression and all nested expressions in source order.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr.visit(f),
            Expr::Postfix { target, .. } => target.visit(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Assign { target, value, .. } => {
                target.visit(f);
                value.visit(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Index { base, index, .. } => {
                base.visit(f);
                index.visit(f);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.visit(f);
                then_expr.visit(f);
                else_expr.visit(f);
            }
            _ => {}
        }
    }
}

/// A single variable declarator (one name within a declaration statement).
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Declared type (shared by all declarators of the statement).
    pub ty: Type,
    /// Declared name.
    pub name: String,
    /// Fixed array dimensions (empty for scalars/pointers).
    pub array_dims: Vec<Expr>,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source location of the declarator.
    pub span: Span,
}

/// A block of statements delimited by braces.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Location of the opening brace.
    pub span: Span,
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// One or more variable declarations sharing a type.
    Decl(Vec<VarDecl>),
    /// An expression statement.
    Expr(Expr),
    /// `if (...) ... [else ...]`
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
        span: Span,
    },
    /// `for (init; cond; step) body`
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
        span: Span,
    },
    /// `while (cond) body`
    While {
        cond: Expr,
        body: Box<Stmt>,
        span: Span,
    },
    /// `do body while (cond);`
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
        span: Span,
    },
    /// `return [expr];`
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// A nested block.
    Block(Block),
    /// A directive (pragma), optionally governing the statement that follows.
    Directive {
        directive: Directive,
        body: Option<Box<Stmt>>,
    },
    /// An empty statement (`;`).
    Empty(Span),
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl(decls) => decls.first().map(|d| d.span).unwrap_or_default(),
            Stmt::Expr(e) => e.span(),
            Stmt::If { span, .. }
            | Stmt::For { span, .. }
            | Stmt::While { span, .. }
            | Stmt::DoWhile { span, .. }
            | Stmt::Return(_, span)
            | Stmt::Break(span)
            | Stmt::Continue(span)
            | Stmt::Empty(span) => *span,
            Stmt::Block(b) => b.span,
            Stmt::Directive { directive, .. } => directive.span,
        }
    }

    /// Visit this statement and all nested statements in source order.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.visit(f);
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    i.visit(f);
                }
                body.visit(f);
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => body.visit(f),
            Stmt::Block(b) => {
                for s in &b.stmts {
                    s.visit(f);
                }
            }
            Stmt::Directive { body: Some(b), .. } => b.visit(f),
            _ => {}
        }
    }
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Function body.
    pub body: Block,
    /// Source location of the function name.
    pub span: Span,
    /// Directives written immediately before the function definition
    /// (e.g. `#pragma acc routine seq`).
    pub leading_directives: Vec<Directive>,
}

/// A whole source file.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TranslationUnit {
    /// `#include`d headers, in order.
    pub includes: Vec<String>,
    /// Object-like macro definitions, in order.
    pub defines: Vec<(String, String)>,
    /// Global variable declarations.
    pub globals: Vec<VarDecl>,
    /// Function definitions, in order.
    pub functions: Vec<Function>,
    /// Directives at file scope that are not attached to a function
    /// (e.g. `#pragma omp declare target`).
    pub file_directives: Vec<Directive>,
}

impl TranslationUnit {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// All directives appearing anywhere in the translation unit, in source
    /// order (file scope, function-leading, and statement-level).
    pub fn all_directives(&self) -> Vec<&Directive> {
        let mut out: Vec<&Directive> = Vec::new();
        out.extend(self.file_directives.iter());
        for func in &self.functions {
            out.extend(func.leading_directives.iter());
            for stmt in &func.body.stmts {
                collect_stmt_directives(stmt, &mut out);
            }
        }
        out.sort_by_key(|d| d.span);
        out
    }
}

fn collect_stmt_directives<'a>(stmt: &'a Stmt, out: &mut Vec<&'a Directive>) {
    stmt.visit(&mut |s| {
        if let Stmt::Directive { directive, .. } = s {
            out.push(directive);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_type_properties() {
        assert!(BaseType::Double.is_float());
        assert!(!BaseType::Int.is_float());
        assert_eq!(BaseType::Double.size_bytes(), 8);
        assert_eq!(BaseType::Char.size_bytes(), 1);
    }

    #[test]
    fn expr_visit_idents_collects_all() {
        let span = Span::unknown();
        let expr = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Ident("a".into(), span)),
            rhs: Box::new(Expr::Index {
                base: Box::new(Expr::Ident("b".into(), span)),
                index: Box::new(Expr::Ident("i".into(), span)),
                span,
            }),
            span,
        };
        let mut seen = Vec::new();
        expr.visit(&mut |e| {
            if let Expr::Ident(name, _) = e {
                seen.push(name.to_string());
            }
        });
        assert_eq!(seen, vec!["a", "b", "i"]);
    }

    #[test]
    fn binop_comparisons() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn stmt_visit_traverses_nesting() {
        let span = Span::unknown();
        let inner = Stmt::Return(None, span);
        let stmt = Stmt::If {
            cond: Expr::IntLit(1, span),
            then_branch: Box::new(Stmt::Block(Block {
                stmts: vec![inner],
                span,
            })),
            else_branch: None,
            span,
        };
        let mut count = 0;
        stmt.visit(&mut |_| count += 1);
        assert_eq!(count, 3); // if, block, return
    }
}
