//! `vv-simcompiler` — simulated compiler frontends for the LLM4VV
//! reproduction.
//!
//! The paper compiles every candidate test with a production compiler
//! (NVIDIA HPC SDK `nvc` for OpenACC, LLVM/Clang with OpenMP offloading for
//! OpenMP) and feeds the *return code, stdout and stderr* into the agent
//! prompts and into the validation pipeline's first stage. This crate
//! provides drop-in substitutes: real static analysis over the
//! [`vv_dclang`] AST, with vendor-styled diagnostics and exit codes.
//!
//! Five layers:
//!
//! * [`semantic`] — vendor-neutral analysis (undeclared identifiers, scope
//!   handling, directive/spec conformance, structured-directive checks),
//!   resolving names as interned symbols;
//! * [`frontend`] — the [`frontend::CompilerFrontend`] trait, shared
//!   [`frontend::CompileOutcome`] type and the checked [`frontend::Program`]
//!   artifact handed to the execution substrate;
//! * [`vendors`] — the `nvc`-like and `clang`-like vendor styles that render
//!   diagnostics in their respective formats and apply vendor policy
//!   (which findings are errors vs warnings, exit codes, summary lines);
//! * [`session`] — the reusable [`session::CompileSession`]: one interner
//!   and vendor configuration shared across many compiles (the zero-alloc
//!   fast path the validation pipeline uses);
//! * [`cache`] — a bounded, content-addressed [`cache::CompileCache`]
//!   memoizing whole outcomes by source bytes + configuration;
//! * [`persist`] — the durable tier: a [`persist::PersistentCache`]
//!   layering the memory cache over a `vv-store` artifact store, so warm
//!   re-runs skip recurring compiles across *processes*.

pub mod cache;
pub mod frontend;
pub mod persist;
pub mod semantic;
pub mod session;
pub mod vendors;

pub use cache::{CacheStats, CompileCache, DEFAULT_CACHE_SHARDS};
pub use frontend::{CompileOutcome, CompilerFrontend, Lang, Program, SharedSlot};
pub use persist::{PersistStats, PersistentCache};
pub use semantic::{analyze, analyze_with, SemanticOptions};
pub use session::{CompileFetch, CompileSession};
pub use vendors::{compiler_for, ClangOmpCompiler, NvcCompiler, VendorStyle};

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;

    const VALID_ACC: &str = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 64
int main() {
    double *a = (double *)malloc(N * sizeof(double));
    double *b = (double *)malloc(N * sizeof(double));
    for (int i = 0; i < N; i++) { a[i] = i * 0.5; b[i] = 0.0; }
#pragma acc data copyin(a[0:N]) copyout(b[0:N])
    {
#pragma acc parallel loop
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0; }
    }
    int err = 0;
    for (int i = 0; i < N; i++) { if (b[i] != a[i] * 2.0) { err = err + 1; } }
    free(a);
    free(b);
    if (err != 0) { printf("FAIL\n"); return 1; }
    printf("PASS\n");
    return 0;
}
"#;

    #[test]
    fn end_to_end_valid_acc_compiles() {
        let compiler = compiler_for(DirectiveModel::OpenAcc);
        let outcome = compiler.compile(VALID_ACC, Lang::C);
        assert_eq!(outcome.return_code, 0, "stderr: {}", outcome.stderr);
        assert!(outcome.artifact.is_some());
    }

    #[test]
    fn end_to_end_syntax_error_fails() {
        let broken = VALID_ACC.replacen('{', "", 1);
        let compiler = compiler_for(DirectiveModel::OpenAcc);
        let outcome = compiler.compile(&broken, Lang::C);
        assert_ne!(outcome.return_code, 0);
        assert!(outcome.artifact.is_none());
        assert!(!outcome.stderr.is_empty());
    }
}
