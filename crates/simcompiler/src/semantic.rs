//! Vendor-neutral semantic analysis.
//!
//! This pass implements the checks that the production compilers in the
//! paper's pipeline perform and that matter for the negative-probing error
//! classes:
//!
//! * undeclared identifiers (issue class 2);
//! * directive and clause conformance against the specification tables
//!   (issue class 0, "swapped directive");
//! * unsupported-version features (the paper's OpenMP 4.5 cap);
//! * structured directives that do not govern a loop/statement;
//! * variables named in data clauses that are not in scope;
//! * a handful of warnings (possibly-uninitialized pointers, implicit
//!   function declarations) that never reject a file but show up in
//!   `stderr` and therefore in the agent prompt;
//! * functions too large for the execution substrate's frames (more than
//!   `u16::MAX` slots or registers), rejected here so no executor ever
//!   sees them.
//!
//! Name resolution is symbol-based: scopes are sets of interned
//! [`Symbol`]s resolved against the compile session's [`Interner`], so
//! declaring or looking up a name never allocates (the session path via
//! [`analyze_with`] reuses one interner across every compile; the one-shot
//! [`analyze`] wrapper spins up a throwaway table).

use std::collections::HashSet;
use std::sync::OnceLock;

use vv_dclang::{
    Diagnostic, Directive, DirectiveModel, Expr, Function, Interner, Span, Stmt, Symbol,
    TranslationUnit, UnOp, VarDecl,
};
use vv_specs::{validate_directive, SpecIssueKind, Version};

/// Options controlling the analysis.
#[derive(Clone, Copy, Debug)]
pub struct SemanticOptions {
    /// The programming model the compiler targets.
    pub model: DirectiveModel,
    /// The maximum specification version supported.
    pub spec_version: Version,
    /// If true, pragmas of a *different* model (or unknown pragmas) are
    /// reported as warnings; if false they are silently ignored.
    pub warn_unknown_pragmas: bool,
}

impl SemanticOptions {
    /// Default options for a model, using the paper's version caps.
    pub fn for_model(model: DirectiveModel) -> Self {
        Self {
            model,
            spec_version: vv_specs::default_version(model),
            warn_unknown_pragmas: true,
        }
    }
}

/// The most local variables, global variables or registers one function
/// (or the global initializers) may need. The bytecode VM addresses each
/// with a `u16`, and call arguments and array dimensions each take a
/// register, so this bounds them too.
const MAX_FRAME_SLOTS: usize = u16::MAX as usize;

/// Functions provided by the (simulated) C standard library and runtime.
pub const KNOWN_LIBRARY_FUNCTIONS: &[&str] = &[
    "malloc",
    "calloc",
    "realloc",
    "free",
    "printf",
    "fprintf",
    "sprintf",
    "puts",
    "putchar",
    "exit",
    "abort",
    "abs",
    "labs",
    "fabs",
    "fabsf",
    "sqrt",
    "sqrtf",
    "pow",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "floor",
    "ceil",
    "rand",
    "srand",
    "memset",
    "memcpy",
    "memcmp",
    "strlen",
    "strcmp",
    "strcpy",
    "atoi",
    "atof",
    "acc_get_num_devices",
    "acc_set_device_num",
    "acc_get_device_num",
    "acc_malloc",
    "acc_free",
    "omp_get_num_threads",
    "omp_get_thread_num",
    "omp_get_num_teams",
    "omp_get_team_num",
    "omp_get_num_devices",
    "omp_set_num_threads",
    "omp_get_wtime",
    "omp_is_initial_device",
    "omp_target_alloc",
    "omp_target_free",
];

/// Hashed lookup over [`KNOWN_LIBRARY_FUNCTIONS`] (built once per process;
/// the old per-call linear scan showed up in compile-stage profiles).
fn known_library_set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| KNOWN_LIBRARY_FUNCTIONS.iter().copied().collect())
}

/// Analyze a translation unit; returns vendor-neutral diagnostics.
///
/// One-shot wrapper over [`analyze_with`] with a private interner.
pub fn analyze(unit: &TranslationUnit, opts: &SemanticOptions) -> Vec<Diagnostic> {
    let mut interner = Interner::new();
    analyze_with(unit, opts, &mut interner)
}

/// Analyze a translation unit, resolving names through the caller's session
/// [`Interner`]. Produces exactly the same diagnostics as [`analyze`] for
/// any input; the shared interner only removes per-name allocations.
pub fn analyze_with(
    unit: &TranslationUnit,
    opts: &SemanticOptions,
    interner: &mut Interner,
) -> Vec<Diagnostic> {
    let mut cx = Context {
        opts: *opts,
        diagnostics: Vec::new(),
        scopes: Vec::new(),
        functions: unit
            .functions
            .iter()
            .map(|f| interner.intern(&f.name))
            .collect(),
        uninitialized_pointers: HashSet::new(),
        interner,
        slots: 0,
        nodes: 0,
        registers: 0,
    };

    // File-scope directives are validated but have no scope interactions.
    for directive in &unit.file_directives {
        cx.check_directive_spec(directive);
    }

    cx.push_scope();
    for global in &unit.globals {
        cx.declare(global);
    }

    if unit.function("main").is_none() {
        cx.diagnostics.push(Diagnostic::error(
            Span::unknown(),
            "link",
            "undefined reference to 'main'",
        ));
    }

    for func in &unit.functions {
        cx.check_function(func);
    }
    cx.pop_scope();

    // Global initializers lower into one frame: a slot per global and per
    // identifier read (an undeclared one gets a slot of its own).
    let (mut slots, mut nodes) = (unit.globals.len(), 0);
    for global in &unit.globals {
        for expr in global.array_dims.iter().chain(&global.init) {
            expr.visit(&mut |e| {
                nodes += 1;
                slots += matches!(e, Expr::Ident(..)) as usize;
            });
        }
    }
    let span = unit.globals.first().map(|g| g.span).unwrap_or_default();
    cx.check_frame(span, "file scope", slots, 2 * nodes);
    cx.diagnostics
}

struct Context<'i> {
    opts: SemanticOptions,
    diagnostics: Vec<Diagnostic>,
    scopes: Vec<HashSet<Symbol>>,
    functions: HashSet<Symbol>,
    /// Pointer variables declared without an initializer and not yet
    /// assigned; indexing these produces a "may be used uninitialized"
    /// warning (the compile succeeds; the *runtime* fails).
    uninitialized_pointers: HashSet<Symbol>,
    interner: &'i mut Interner,
    /// The frame the function being checked needs: a local slot per
    /// parameter and declarator, and at most two registers per node of
    /// the expressions one statement evaluates (`nodes` counts the
    /// statement being checked).
    slots: usize,
    nodes: usize,
    registers: usize,
}

impl Context<'_> {
    fn push_scope(&mut self) {
        self.scopes.push(HashSet::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, decl: &VarDecl) {
        self.slots += 1;
        let sym = self.interner.intern(&decl.name);
        if let Some(scope) = self.scopes.last() {
            if scope.contains(&sym) {
                self.diagnostics.push(Diagnostic::error(
                    decl.span,
                    "redefinition",
                    format!("redefinition of '{}'", decl.name),
                ));
                return;
            }
        }
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(sym);
        }
        if decl.ty.is_pointer() && decl.init.is_none() && decl.array_dims.is_empty() {
            self.uninitialized_pointers.insert(sym);
        }
    }

    fn declare_name(&mut self, name: &str) {
        let sym = self.interner.intern(name);
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(sym);
        }
    }

    fn is_declared(&self, name: &str) -> bool {
        // A declared name was necessarily interned when it was declared, so
        // an unknown spelling is definitively out of scope — no allocation
        // either way.
        match self.interner.get(name) {
            Some(sym) => self.is_declared_sym(sym),
            None => false,
        }
    }

    fn is_declared_sym(&self, sym: Symbol) -> bool {
        self.scopes.iter().rev().any(|s| s.contains(&sym))
    }

    fn check_function(&mut self, func: &Function) {
        for directive in &func.leading_directives {
            self.check_directive_spec(directive);
        }
        self.push_scope();
        (self.slots, self.registers) = (func.params.len(), 0);
        for param in &func.params {
            self.declare_name(&param.name);
        }
        self.check_block_stmts(&func.body.stmts);
        self.pop_scope();
        let owner = format!("function '{}'", func.name);
        self.check_frame(func.span, &owner, self.slots, self.registers);
    }

    /// Reject a frame the bytecode VM cannot address.
    fn check_frame(&mut self, span: Span, owner: &str, slots: usize, registers: usize) {
        for (needed, what) in [(slots, "variable slots"), (registers, "registers")] {
            if needed > MAX_FRAME_SLOTS {
                self.diagnostics.push(Diagnostic::error(
                    span,
                    "frame-limit",
                    format!("{owner} needs {needed} {what}, over {MAX_FRAME_SLOTS}"),
                ));
            }
        }
    }

    fn check_block_stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            self.check_stmt(stmt);
        }
    }

    fn check_stmt(&mut self, stmt: &Stmt) {
        let outer = std::mem::take(&mut self.nodes);
        match stmt {
            Stmt::Decl(decls) => {
                for decl in decls {
                    for dim in &decl.array_dims {
                        self.check_expr(dim);
                    }
                    if let Some(init) = &decl.init {
                        self.check_expr(init);
                    }
                    self.declare(decl);
                }
            }
            Stmt::Expr(expr) => self.check_expr(expr),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.check_expr(cond);
                self.push_scope();
                self.check_stmt(then_branch);
                self.pop_scope();
                if let Some(else_branch) = else_branch {
                    self.push_scope();
                    self.check_stmt(else_branch);
                    self.pop_scope();
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.push_scope();
                if let Some(init) = init {
                    self.check_stmt(init);
                }
                if let Some(cond) = cond {
                    self.check_expr(cond);
                }
                if let Some(step) = step {
                    self.check_expr(step);
                }
                self.check_stmt(body);
                self.pop_scope();
            }
            Stmt::While { cond, body, .. } => {
                self.check_expr(cond);
                self.push_scope();
                self.check_stmt(body);
                self.pop_scope();
            }
            Stmt::DoWhile { body, cond, .. } => {
                self.push_scope();
                self.check_stmt(body);
                self.pop_scope();
                self.check_expr(cond);
            }
            Stmt::Return(value, _) => {
                if let Some(value) = value {
                    self.check_expr(value);
                }
            }
            Stmt::Block(block) => {
                self.push_scope();
                self.check_block_stmts(&block.stmts);
                self.pop_scope();
            }
            Stmt::Directive { directive, body } => {
                self.check_directive(directive, body.as_deref());
                if let Some(body) = body {
                    self.push_scope();
                    self.check_stmt(body);
                    self.pop_scope();
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty(_) => {}
        }
        // Nested statements restore `nodes`, so it counts this one's own.
        self.registers = self.registers.max(2 * self.nodes);
        self.nodes = outer;
    }

    fn check_expr(&mut self, expr: &Expr) {
        self.nodes += 1;
        match expr {
            Expr::Ident(name, span) => {
                if !self.is_declared(name) {
                    self.diagnostics.push(Diagnostic::error(
                        *span,
                        "undeclared-identifier",
                        format!("use of undeclared identifier '{name}'"),
                    ));
                }
            }
            Expr::Unary { expr, .. } => self.check_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs);
                self.check_expr(rhs);
            }
            Expr::Assign { target, value, .. } => {
                if !is_lvalue(target) {
                    self.diagnostics.push(Diagnostic::error(
                        target.span(),
                        "lvalue",
                        "expression is not assignable",
                    ));
                }
                // Assigning to a pointer clears its "uninitialized" status.
                if let Expr::Ident(name, _) = target.as_ref() {
                    if let Some(sym) = self.interner.get(name) {
                        self.uninitialized_pointers.remove(&sym);
                    }
                }
                self.check_expr(target);
                self.check_expr(value);
            }
            Expr::Call { name, args, span } => {
                let user_defined = self
                    .interner
                    .get(name)
                    .is_some_and(|sym| self.functions.contains(&sym));
                if !user_defined && !known_library_set().contains(name.as_str()) {
                    self.diagnostics.push(Diagnostic::warning(
                        *span,
                        "implicit-declaration",
                        format!("implicit declaration of function '{name}'"),
                    ));
                }
                for arg in args {
                    self.check_expr(arg);
                }
            }
            Expr::Index { base, index, span } => {
                if let Expr::Ident(name, _) = base.as_ref() {
                    if self
                        .interner
                        .get(name)
                        .is_some_and(|sym| self.uninitialized_pointers.contains(&sym))
                    {
                        self.diagnostics.push(Diagnostic::warning(
                            *span,
                            "maybe-uninitialized",
                            format!("'{name}' may be used uninitialized"),
                        ));
                    }
                }
                self.check_expr(base);
                self.check_expr(index);
            }
            Expr::Cast { expr, .. } => self.check_expr(expr),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                self.check_expr(cond);
                self.check_expr(then_expr);
                self.check_expr(else_expr);
            }
            Expr::Postfix { target, .. } => self.check_expr(target),
            Expr::IntLit(..)
            | Expr::FloatLit(..)
            | Expr::StrLit(..)
            | Expr::CharLit(..)
            | Expr::SizeofType { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // directive checks
    // ------------------------------------------------------------------

    fn check_directive_spec(&mut self, directive: &Directive) {
        match directive.model {
            Some(model) if model == self.opts.model => {
                for issue in validate_directive(directive, self.opts.spec_version) {
                    let code = match issue.kind {
                        SpecIssueKind::UnknownDirective => "directive-unknown",
                        SpecIssueKind::UnknownClause => "clause-unknown",
                        SpecIssueKind::MissingClauseArgs => "clause-args",
                        SpecIssueKind::MalformedClauseArgs => "clause-args",
                        SpecIssueKind::UnsupportedVersion => "unsupported-version",
                    };
                    self.diagnostics
                        .push(Diagnostic::error(directive.span, code, issue.message));
                }
            }
            _ => {
                if self.opts.warn_unknown_pragmas {
                    self.diagnostics.push(Diagnostic::warning(
                        directive.span,
                        "unknown-pragma",
                        format!("pragma '{}' ignored", directive.raw),
                    ));
                }
            }
        }
    }

    fn check_directive(&mut self, directive: &Directive, body: Option<&Stmt>) {
        self.check_directive_spec(directive);
        if directive.model != Some(self.opts.model) {
            return;
        }

        if !directive.is_standalone() && body.is_none() {
            self.diagnostics.push(Diagnostic::error(
                directive.span,
                "directive-body",
                format!(
                    "expected a statement after '#pragma {} {}'",
                    directive.sentinel,
                    directive.display_name()
                ),
            ));
        }

        if directive_requires_loop(directive) {
            let governs_loop = match body {
                Some(Stmt::For { .. }) => true,
                Some(Stmt::Directive {
                    body: Some(inner), ..
                }) => {
                    matches!(inner.as_ref(), Stmt::For { .. })
                }
                _ => false,
            };
            if !governs_loop && body.is_some() {
                self.diagnostics.push(Diagnostic::error(
                    directive.span,
                    "directive-loop",
                    format!(
                        "the '{}' construct must be followed by a for loop",
                        directive.display_name()
                    ),
                ));
            }
        }

        // Variables named in data-movement / privatization clauses must be
        // declared at the point of the directive.
        let data_clauses = vv_specs::data_movement_clauses(self.opts.model);
        for clause in &directive.clauses {
            let relevant = data_clauses.contains(&clause.name.as_str())
                || matches!(
                    clause.name.as_str(),
                    "private"
                        | "firstprivate"
                        | "lastprivate"
                        | "reduction"
                        | "use_device"
                        | "use_device_ptr"
                );
            if !relevant {
                continue;
            }
            let Some(args) = &clause.args else { continue };
            // Split the borrows so the visitor can read scopes while
            // pushing diagnostics.
            let scopes = &self.scopes;
            let interner = &*self.interner;
            let diagnostics = &mut self.diagnostics;
            for_each_clause_variable(&clause.name, args, |var| {
                let declared = interner
                    .get(var)
                    .is_some_and(|sym| scopes.iter().rev().any(|s| s.contains(&sym)));
                if !declared {
                    diagnostics.push(Diagnostic::error(
                        directive.span,
                        "clause-undeclared",
                        format!(
                            "variable '{var}' in clause '{}' is not declared",
                            clause.name
                        ),
                    ));
                }
            });
        }
    }
}

fn is_lvalue(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::Ident(..)
            | Expr::Index { .. }
            | Expr::Unary {
                op: UnOp::Deref,
                ..
            }
    )
}

/// True if the directive's innermost construct is loop-associated and
/// therefore must govern a `for` loop.
fn directive_requires_loop(directive: &Directive) -> bool {
    let Some(last) = directive.name.last() else {
        return false;
    };
    matches!(
        last.as_str(),
        "loop" | "for" | "simd" | "distribute" | "taskloop"
    )
}

/// Visit every variable name in a data/privatization clause argument list,
/// without allocating.
///
/// Handles array sections (`a[0:N]`), `map-type:` prefixes (`tofrom: a`),
/// and reduction `operator:` prefixes (`+:sum`).
pub fn for_each_clause_variable(clause_name: &str, args: &str, mut f: impl FnMut(&str)) {
    let mut text = args.trim();
    if matches!(clause_name, "reduction" | "in_reduction") {
        if let Some((_, rest)) = text.split_once(':') {
            text = rest;
        }
    }
    if clause_name == "map" {
        if let Some((prefix, rest)) = text.split_once(':') {
            let prefix = prefix.trim();
            if prefix.chars().all(|c| c.is_ascii_alphabetic() || c == ' ') && !prefix.contains('[')
            {
                text = rest;
            }
        }
    }
    // Split on top-level commas (commas inside brackets belong to sections),
    // then take the leading identifier characters of each item.
    let mut depth = 0i32;
    let mut item_start = 0usize;
    let bytes = text.as_bytes();
    let mut emit = |item: &str| {
        let trimmed = item.trim_start();
        let name_len = trimmed
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
            .count();
        let name = &trimmed[..name_len];
        if !name.is_empty() && !name.as_bytes()[0].is_ascii_digit() {
            f(name);
        }
    };
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth -= 1,
            b',' if depth == 0 => {
                emit(&text[item_start..i]);
                item_start = i + 1;
            }
            _ => {}
        }
    }
    emit(&text[item_start..]);
}

/// Extract variable names from a data/privatization clause argument list.
///
/// Allocating wrapper over [`for_each_clause_variable`], kept for tests and
/// external callers.
pub fn clause_variables(clause_name: &str, args: &str) -> Vec<String> {
    let mut vars = Vec::new();
    for_each_clause_variable(clause_name, args, |var| vars.push(var.to_string()));
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::parse_source;

    fn analyze_src(src: &str, model: DirectiveModel) -> Vec<Diagnostic> {
        let parsed = parse_source(src).expect("test source must parse");
        analyze(&parsed.unit, &SemanticOptions::for_model(model))
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.is_error()).collect()
    }

    #[test]
    fn clean_program_has_no_errors() {
        let diags = analyze_src(
            "#include <stdlib.h>\nint main() { double a[8]; for (int i = 0; i < 8; i++) { a[i] = i; } return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn undeclared_identifier_is_an_error() {
        let diags = analyze_src(
            "int main() { int a = 0; a = a + undeclared_thing; return a; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags)
            .iter()
            .any(|d| d.code == "undeclared-identifier"));
    }

    #[test]
    fn missing_main_is_an_error() {
        let diags = analyze_src("int helper() { return 1; }", DirectiveModel::OpenMp);
        assert!(errors(&diags).iter().any(|d| d.code == "link"));
    }

    #[test]
    fn redefinition_is_an_error() {
        let diags = analyze_src(
            "int main() { int a = 0; int a = 1; return a; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).iter().any(|d| d.code == "redefinition"));
    }

    #[test]
    fn shadowing_in_inner_scope_is_allowed() {
        let diags = analyze_src(
            "int main() { int a = 0; { int a = 1; a = a + 1; } return a; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_directive_is_an_error() {
        let diags = analyze_src(
            "int main() { int a[4];\n#pragma acc paralel loop\nfor (int i = 0; i < 4; i++) { a[i] = i; }\nreturn 0; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).iter().any(|d| d.code == "directive-unknown"));
    }

    #[test]
    fn other_model_pragma_is_only_a_warning() {
        let diags = analyze_src(
            "int main() { int a[4];\n#pragma omp parallel for\nfor (int i = 0; i < 4; i++) { a[i] = i; }\nreturn 0; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "unknown-pragma"));
    }

    #[test]
    fn loop_directive_must_govern_a_for_loop() {
        let diags = analyze_src(
            "int main() { int a = 0;\n#pragma acc parallel loop\n{ a = 1; }\nreturn a; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).iter().any(|d| d.code == "directive-loop"));
    }

    #[test]
    fn data_clause_with_undeclared_variable_is_an_error() {
        let diags = analyze_src(
            "int main() {\n#pragma acc data copyin(ghost[0:8])\n{ }\nreturn 0; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).iter().any(|d| d.code == "clause-undeclared"));
    }

    #[test]
    fn uninitialized_pointer_index_is_a_warning_not_error() {
        let diags = analyze_src(
            "int main() { double *a; a[0] = 1.0; return 0; }",
            DirectiveModel::OpenAcc,
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "maybe-uninitialized"));
    }

    #[test]
    fn unknown_function_is_a_warning() {
        let diags = analyze_src(
            "int main() { do_something_fancy(3); return 0; }",
            DirectiveModel::OpenMp,
        );
        assert!(errors(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "implicit-declaration"));
    }

    #[test]
    fn omp5_feature_is_rejected_under_4_5_cap() {
        let diags = analyze_src(
            "int main() { int a[4];\n#pragma omp loop\nfor (int i = 0; i < 4; i++) { a[i] = i; }\nreturn 0; }",
            DirectiveModel::OpenMp,
        );
        assert!(errors(&diags)
            .iter()
            .any(|d| d.code == "unsupported-version"));
    }

    #[test]
    fn clause_variables_extraction() {
        assert_eq!(clause_variables("copyin", "a[0:N], b[0:N]"), vec!["a", "b"]);
        assert_eq!(clause_variables("map", "tofrom: c[0:N]"), vec!["c"]);
        assert_eq!(clause_variables("reduction", "+:sum"), vec!["sum"]);
        assert_eq!(clause_variables("map", "a[0:8]"), vec!["a"]);
        assert_eq!(
            clause_variables("private", "i, j, tmp"),
            vec!["i", "j", "tmp"]
        );
    }

    #[test]
    fn assignment_to_literal_is_an_error() {
        let diags = analyze_src("int main() { 3 = 4; return 0; }", DirectiveModel::OpenAcc);
        assert!(errors(&diags).iter().any(|d| d.code == "lvalue"));
    }

    #[test]
    fn shared_interner_analysis_matches_one_shot() {
        let sources = [
            "int main() { int a = 0; a = a + undeclared_thing; return a; }",
            "int main() { double a[8];\n#pragma acc parallel loop copyin(a[0:8])\nfor (int i = 0; i < 8; i++) { a[i] = i; }\nreturn 0; }",
            "int main() {\n#pragma acc data copyin(ghost[0:8])\n{ }\nreturn 0; }",
        ];
        let mut interner = Interner::new();
        for src in sources {
            let parsed = parse_source(src).expect("parses");
            let opts = SemanticOptions::for_model(DirectiveModel::OpenAcc);
            let fresh = analyze(&parsed.unit, &opts);
            let shared = analyze_with(&parsed.unit, &opts, &mut interner);
            assert_eq!(fresh, shared, "diagnostics diverged for {src:?}");
        }
    }
}
