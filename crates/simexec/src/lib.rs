//! `vv-simexec` — the execution substrate.
//!
//! The paper runs every successfully compiled test on a Perlmutter GPU node
//! and feeds the program's *return code, stdout and stderr* into the agent
//! prompt and the validation pipeline's second stage. This crate substitutes
//! a deterministic interpreter for that step:
//!
//! * it executes the checked [`vv_simcompiler::Program`] artifact directly;
//! * it models host and device memory separately, honouring data-movement
//!   clauses (`copyin`/`copyout`/`create`/`map`/`update`), with a present
//!   table per the OpenACC/OpenMP runtime semantics;
//! * it reproduces the runtime failure modes that matter for negative
//!   probing: dereferencing an uninitialized pointer (the "removed memory
//!   allocation" mutation) raises a simulated segmentation fault, failed
//!   verification loops make the test return a nonzero exit code, runaway
//!   loops hit a step budget, and data written only to a device copy that is
//!   never mapped back is lost, exactly as on real hardware;
//! * execution is fully deterministic, so every experiment in the benchmark
//!   harness is reproducible bit-for-bit.
//!
//! The outcome type mirrors exactly what the judge's agent prompt consumes.
//!
//! # Execution engines
//!
//! Programs execute through the register-bytecode VM in [`bytecode`]: the
//! checked AST is lowered once (interned symbols, frame-slot variable
//! resolution, pre-resolved function and clause references) and the artifact
//! is cached on the [`vv_simcompiler::Program`], so repeated execution pays
//! only the dispatch loop. The original tree-walking interpreter is retained
//! behind the `treewalk-reference` feature as a differential oracle: both
//! engines share per-operation semantics and must produce byte-identical
//! [`ExecOutcome`]s (asserted over the streaming corpus by
//! `tests/exec_parity.rs`).

pub mod bytecode;
pub mod interp;
pub mod memory;
pub mod outcome;
pub(crate) mod rt;
#[cfg(feature = "treewalk-reference")]
pub mod treewalk;
pub mod value;

pub use bytecode::{lower, lower_cached, CompiledProgram};
pub use interp::{ExecConfig, Executor};
pub use memory::{DeviceSpace, HostSpace, MemoryError};
pub use outcome::{ExecOutcome, RuntimeFault};
pub use rt::format_c_string;
#[cfg(feature = "treewalk-reference")]
pub use treewalk::TreeWalkExecutor;
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use vv_dclang::DirectiveModel;
    use vv_simcompiler::{compiler_for, Lang};

    fn run(source: &str, model: DirectiveModel) -> ExecOutcome {
        let compiler = compiler_for(model);
        let compiled = compiler.compile(source, Lang::C);
        assert!(compiled.succeeded(), "compile failed: {}", compiled.stderr);
        Executor::default().run(&compiled.artifact.unwrap())
    }

    #[test]
    fn valid_acc_test_passes_end_to_end() {
        let src = r#"
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
    if (err != 0) { printf("Test failed with %d errors\n", err); return 1; }
    printf("Test passed\n");
    return 0;
}
"#;
        let outcome = run(src, DirectiveModel::OpenAcc);
        assert_eq!(outcome.return_code, 0, "stderr: {}", outcome.stderr);
        assert!(outcome.stdout.contains("Test passed"));
    }

    #[test]
    fn removed_allocation_segfaults_at_runtime() {
        let src = r#"
#include <stdio.h>
#include <stdlib.h>
#define N 16
int main() {
    double *a;
    for (int i = 0; i < N; i++) { a[i] = i; }
    printf("done\n");
    return 0;
}
"#;
        let outcome = run(src, DirectiveModel::OpenAcc);
        assert_ne!(outcome.return_code, 0);
        assert!(outcome.stderr.to_lowercase().contains("segmentation"));
    }

    /// Run `f` on a thread with the default 2 MiB stack of daemon and
    /// executor workers, whatever stack the test harness gives its own.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no stack overflow")
    }

    #[test]
    fn the_deepest_accepted_nesting_compiles_and_runs_on_a_small_stack() {
        type Shape = fn(usize) -> String;
        let shapes: [(&str, Shape); 5] = [
            ("parentheses", |n| {
                format!(
                    "int main() {{ int x = 1; return {}x{} - 1; }}",
                    "(".repeat(n),
                    ")".repeat(n)
                )
            }),
            ("blocks", |n| {
                format!(
                    "int main() {{ int x = 0; {}x = x + 1;{} return x - 1; }}",
                    "{".repeat(n),
                    "}".repeat(n)
                )
            }),
            ("unary chain", |n| {
                format!("int main() {{ return {}0; }}", "!".repeat(2 * n))
            }),
            ("operator chain", |n| {
                format!(
                    "int main() {{ int x = 0; x = x{}; return x - {n}; }}",
                    " + 1".repeat(n)
                )
            }),
            ("if chain", |n| {
                format!(
                    "int main() {{ {}return 0; return 1; }}",
                    "if (1) ".repeat(n)
                )
            }),
        ];
        for (name, shape) in shapes {
            on_small_stack(move || {
                let compiler = compiler_for(DirectiveModel::OpenAcc);
                let compiles = |n: usize| compiler.compile(&shape(n), Lang::C);
                let mut n = 1;
                while compiles(n + 1).succeeded() {
                    n += 1;
                }
                let refused = compiles(n + 1);
                assert!(
                    refused.diagnostics.iter().any(|d| d.code == "nesting"),
                    "{name}: depth {} fails for another reason: {}",
                    n + 1,
                    refused.stderr
                );
                let program = compiles(n).artifact.expect("accepted");
                let outcome = Executor::default().run(&program);
                assert_eq!(
                    outcome.return_code, 0,
                    "{name} at depth {n}: {}",
                    outcome.stderr
                );
                #[cfg(feature = "treewalk-reference")]
                {
                    let oracle = TreeWalkExecutor::default().run(&program);
                    assert_eq!(
                        (oracle.return_code, oracle.steps),
                        (outcome.return_code, outcome.steps)
                    );
                }
            });
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_compile_error_not_a_stack_overflow() {
        let deep = format!(
            "int main() {{ return {}1{}; }}",
            "(".repeat(2400),
            ")".repeat(2400)
        );
        let chain = format!("int main() {{ return 0{}; }}", " + 1".repeat(100_000));
        for source in [deep, chain] {
            let outcome = on_small_stack(move || {
                compiler_for(DirectiveModel::OpenMp).compile(&source, Lang::C)
            });
            assert!(!outcome.succeeded());
            assert!(outcome.diagnostics.iter().any(|d| d.code == "nesting"));
        }
    }

    #[test]
    fn a_function_too_large_for_the_vm_frame_is_a_compile_error() {
        let locals: String = (0..70_000).map(|i| format!("int v{i}; ")).collect();
        let args = vec!["1"; 40_000].join(", ");
        let sources = [
            format!("int main() {{ {locals}return 0; }}"),
            format!("int f() {{ return 0; }} int main() {{ return f({args}); }}"),
            format!(
                "int g[{}1]; int main() {{ return 0; }}",
                "1][".repeat(40_000)
            ),
        ];
        for source in sources {
            let outcome = compiler_for(DirectiveModel::OpenAcc).compile(&source, Lang::C);
            assert!(!outcome.succeeded(), "{}", outcome.stderr);
            assert!(outcome.diagnostics.iter().any(|d| d.code == "frame-limit"));
        }
    }
}
