//! Register bytecode: the lowered form of a [`Program`] and the VM that
//! executes it.
//!
//! The tree-walking interpreter resolved every variable through a chain of
//! `HashMap<String, Value>` scopes, cloned every called [`Function`] AST and
//! re-walked expression trees on every loop iteration. This module lowers a
//! checked [`Program`] **once** into a flat, pre-resolved instruction stream
//! — the same move wasmtime makes from Wasm to its internal IR and revm
//! makes with its jump-table dispatch — and then executes it with a tight
//! dispatch loop over a reusable register file.
//!
//! # Lowering invariants
//!
//! The lowered artifact must be observationally *byte-identical* to the
//! tree-walk oracle (`--features treewalk-reference`), which pins down the
//! following invariants:
//!
//! * **Slot resolution.** Every identifier is resolved at lowering time to a
//!   dense frame-slot index (locals) or a global-slot index, following the
//!   same innermost-scope-first, then-globals rule the scope chain
//!   implemented dynamically. Each declaration gets a fresh slot, so C
//!   shadowing falls out of lexical resolution; a name that resolves nowhere
//!   (impossible in semantically checked programs) gets a per-function
//!   *ghost slot* that starts unbound and therefore reproduces the oracle's
//!   behaviour (segfault on rvalue read, deterministic garbage on
//!   place-read, late bind on store). Slots are `Option<Value>` at runtime:
//!   `None` (never bound) and `Some(Uninit)` (declared without initializer)
//!   are distinct states with distinct semantics, exactly as in the oracle.
//! * **Interning.** String literals, identifiers and function names are
//!   interned to `u32` [`vv_dclang::Symbol`]s while lowering, through a
//!   [`vv_dclang::Interner`]; the constant pool is deduplicated through the
//!   same table, and per-name garbage salts are precomputed per slot, so
//!   the execution loop never hashes or compares a string.
//! * **Step parity.** The oracle charges one step per statement executed,
//!   per expression node evaluated, and per loop iteration. Lowering emits
//!   the same charges as explicit `Step` instructions placed at the
//!   oracle's charge points, coalescing *adjacent* charges (with no
//!   intervening instruction) into one `Step(n)`. Because nothing observable
//!   can happen between coalesced charges, the step counter agrees with the
//!   oracle at every observable event — so step-limit faults, and builtins
//!   that read the counter (`omp_get_wtime`), behave identically.
//! * **Region unwinding.** `break`/`continue`/`return` that cross a
//!   structured data or compute region emit that region's exit actions
//!   (offload-depth decrement, data-clause exit transfers) before the jump,
//!   mirroring how `Flow` propagation in the oracle runs exit clauses on the
//!   way out.
//! * **Cache reuse.** [`lower_cached`] stashes the artifact in the
//!   [`Program`]'s type-erased cache slot: compile once, execute many.
//!   Clones of the `Program` share the slot, so the probing layer, the
//!   pipeline and the benches all reuse one lowering per base program.
//!
//! Per-operation semantics (operator application, coercion, deterministic
//! garbage, memory and capture rules) are shared with the oracle through
//! `crate::rt`, so the differential surface is exactly: lowering, control
//! flow, and step accounting.
//!
//! [`Function`]: vv_dclang::Function

mod lower;
mod vm;

pub use lower::lower;
pub(crate) use vm::run_lowered;

use crate::memory::MapKind;
use crate::rt::CoerceKind;
use crate::value::Value;
use vv_dclang::BinOp;
use vv_simcompiler::Program;

/// A resolved variable reference: local frame slot or global slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VarRef {
    /// Index into the executing function's frame.
    Local(u16),
    /// Index into the global slot array.
    Global(u16),
}

/// Precomputed garbage salts for one slot's name (the oracle derives these
/// from the identifier text on every uninitialized read; we do it once).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotMeta {
    /// Salt used when an uninitialized variable is read as an rvalue.
    pub eval_salt: u64,
    /// Salt used when it is read through a place (compound assign, `++`).
    pub place_salt: u64,
}

/// A single-arg math builtin (`sqrt`, `fabs`, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Math1 {
    Fabs,
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Tan,
    Floor,
    Ceil,
}

impl Math1 {
    pub(crate) fn apply(self, v: f64) -> f64 {
        match self {
            Math1::Fabs => v.abs(),
            Math1::Sqrt => v.sqrt(),
            Math1::Exp => v.exp(),
            Math1::Log => v.ln(),
            Math1::Sin => v.sin(),
            Math1::Cos => v.cos(),
            Math1::Tan => v.tan(),
            Math1::Floor => v.floor(),
            Math1::Ceil => v.ceil(),
        }
    }
}

/// A builtin call, resolved (including its argument-evaluation shape) at
/// lowering time. Argument values sit in consecutive registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BuiltinOp {
    /// `malloc`-family with an element *count* argument (from the
    /// `count * sizeof(T)` idiom); uninitialized cells.
    AllocCount,
    /// `malloc`-family with a raw *byte* argument; count = ceil(bytes/8).
    AllocBytes,
    /// `calloc`: count argument, zero-initialized cells.
    CallocCount,
    /// `free`/`acc_free`/`omp_target_free`.
    Free,
    /// `printf` (format value + arguments) to stdout.
    Printf,
    /// `puts` (optional single value) to stdout.
    Puts,
    /// `putchar` (optional single value) to stdout.
    Putchar,
    /// `fprintf` with the stream argument dropped at lowering; to stderr.
    Fprintf,
    /// `exit(code)`.
    Exit,
    /// `abort()`.
    Abort,
    /// Single-argument math function.
    Math(Math1),
    /// `pow(a, b)`.
    Pow,
    /// `abs`/`labs`.
    Abs,
    /// `rand()` (xorshift over the run's RNG state).
    Rand,
    /// `srand(seed)`.
    Srand,
    /// `memset(ptr, fill, ...)` — fills whole allocation past `ptr`.
    Memset,
    /// `memcpy(dst, src, ...)` — whole-allocation copy.
    Memcpy,
    /// `strlen(s)`.
    Strlen,
    /// `strcmp(a, b)`.
    Strcmp,
    /// Runtime introspection returning `Int(1)`.
    RtOne,
    /// Runtime introspection returning `Int(0)`.
    RtZero,
    /// `omp_get_num_threads()` — 8 inside an offload region, else 1.
    NumThreads,
    /// `omp_get_num_teams()` — 4 inside an offload region, else 1.
    NumTeams,
    /// `omp_is_initial_device()` — 0 inside an offload region, else 1.
    IsInitialDevice,
    /// `omp_get_wtime()` — reads the step counter.
    Wtime,
}

/// One lowered instruction. Registers (`u16`) index the executing frame's
/// register window; constants, functions, directives and jump targets are
/// `u32` indices into the [`CompiledProgram`] tables.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// Charge `n` interpreter steps (coalesced oracle charges) and check
    /// the step limit.
    Step(u32),
    /// `reg[dst] = consts[idx].clone()`.
    Const { dst: u16, idx: u32 },
    /// Rvalue variable read: unbound → segfault, uninit → garbage.
    LoadVar { dst: u16, var: VarRef },
    /// Place-read of a variable: unbound/uninit → garbage.
    ReadVarPlace { dst: u16, var: VarRef },
    /// Bind/assign a variable slot.
    StoreVar { var: VarRef, src: u16 },
    /// Fused `var++`/`var--` in statement (result-discarded) position:
    /// place-read, add `delta`, store — one dispatch instead of four.
    IncVar { var: VarRef, delta: i64 },
    /// Fused compound assignment `var op= reg[src]` in statement position.
    AccumVar { op: BinOp, var: VarRef, src: u16 },
    /// Declare a variable without initializer (`Some(Uninit)`).
    BindUninit { var: VarRef },
    /// Coerce a register in place per the declared type.
    Coerce { reg: u16, kind: CoerceKind },
    /// Arithmetic negation.
    Neg { dst: u16, src: u16 },
    /// Logical not.
    Not { dst: u16, src: u16 },
    /// Bitwise not.
    BitNot { dst: u16, src: u16 },
    /// Normalize to `Int(0|1)` by truthiness (short-circuit results).
    Truthy { dst: u16, src: u16 },
    /// Binary operator application (may fault: divide by zero).
    Bin {
        op: BinOp,
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    /// Fused `var ⊕ const` (the loop-condition shape `i < N` after macro
    /// expansion): variable load + operator in one dispatch.
    BinVC {
        op: BinOp,
        dst: u16,
        var: VarRef,
        idx: u32,
    },
    /// Fused `var ⊕ var`.
    BinVV {
        op: BinOp,
        dst: u16,
        lhs: VarRef,
        rhs: VarRef,
    },
    /// Fused `reg ⊕ const` (literal right-hand sides).
    BinRC {
        op: BinOp,
        dst: u16,
        lhs: u16,
        idx: u32,
    },
    /// Fused `base[idx]` read where both base and index are variables.
    IndexReadVV { dst: u16, base: VarRef, idx: VarRef },
    /// Fused `base[idx] = src` write where both base and index are
    /// variables (reloaded per access — variable loads are pure).
    IndexWriteVV { base: VarRef, idx: VarRef, src: u16 },
    /// `&expr`: one-cell allocation holding a copy of the value.
    AddrOf { dst: u16, src: u16 },
    /// `base[idx]` read (base must be a pointer; offload-aware).
    IndexRead { dst: u16, base: u16, idx: u16 },
    /// `base[idx] = src` write.
    IndexWrite { base: u16, idx: u16, src: u16 },
    /// `*ptr` read.
    DerefRead { dst: u16, ptr: u16 },
    /// `*ptr = src` write.
    DerefWrite { ptr: u16, src: u16 },
    /// Stack-array allocation from `ndims` dimension values.
    ArrayAlloc { dst: u16, dims: u16, ndims: u16 },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump when the register is falsy.
    JumpIfFalse { cond: u16, target: u32 },
    /// Jump when the register is truthy.
    JumpIfTrue { cond: u16, target: u32 },
    /// Call a lowered user function with `argc` consecutive argument regs.
    Call {
        dst: u16,
        func: u32,
        args: u16,
        argc: u16,
    },
    /// Invoke a builtin with `argc` consecutive argument regs.
    Builtin {
        dst: u16,
        op: BuiltinOp,
        args: u16,
        argc: u16,
    },
    /// Apply a data region's enter-phase clauses.
    EnterData { dir: u32 },
    /// Apply a data region's exit-phase clauses.
    ExitData { dir: u32 },
    /// Apply an `update` directive's transfers.
    UpdateData { dir: u32 },
    /// Enter a compute/offload region: apply enter clauses, raise the
    /// offload depth, and push the region onto the runtime unwind stack
    /// (the oracle runs a compute region's exit clauses even when its body
    /// faults or exits — the VM reproduces that by unwinding this stack).
    EnterCompute { dir: u32 },
    /// Leave a compute/offload region: pop the unwind stack, lower the
    /// offload depth, apply exit clauses.
    ExitCompute { dir: u32 },
    /// Return from the current function.
    Ret { src: u16 },
    /// Raise a fault (unrepresentable lvalues and similar dead ends).
    Trap { fault: crate::RuntimeFault },
}

/// One parameter's binding plan.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ParamSpec {
    /// The local slot the parameter occupies.
    pub slot: u16,
    /// The declared type's coercion.
    pub coerce: Option<CoerceKind>,
    /// The global slot a *missing* argument falls back to: the oracle never
    /// binds an unsupplied parameter, so its dynamic lookup reaches a
    /// same-named global. The VM reproduces that with a slot alias.
    pub global_fallback: Option<u16>,
}

/// The pre-resolved data-clause actions of one directive.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirectiveOps {
    /// Enter-phase mappings, in clause order (delete clauses excluded).
    pub enter: Vec<(VarRef, MapKind)>,
    /// Exit-phase unmappings, in clause order (delete clauses included).
    pub exit: Vec<VarRef>,
    /// `update` transfers; the flag is true for device→host.
    pub update: Vec<(VarRef, bool)>,
}

/// One lowered function body.
#[derive(Clone, Debug)]
pub(crate) struct FuncCode {
    /// The instruction stream (always terminated by `Ret`).
    pub code: Vec<Instr>,
    /// Size of the register window.
    pub regs: u16,
    /// Number of local slots (params first, then declarations/ghosts).
    pub slots: u16,
    /// Per-slot garbage salts.
    pub slot_meta: Vec<SlotMeta>,
    /// Parameter binding plans, in declaration order.
    pub params: Vec<ParamSpec>,
}

/// A [`Program`] lowered to register bytecode — the compile-once /
/// execute-many artifact cached on the program itself.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub(crate) consts: Vec<Value>,
    pub(crate) funcs: Vec<FuncCode>,
    pub(crate) main: Option<u32>,
    pub(crate) global_init: FuncCode,
    pub(crate) global_meta: Vec<SlotMeta>,
    pub(crate) directives: Vec<DirectiveOps>,
}

impl CompiledProgram {
    /// Total number of lowered instructions across all functions (including
    /// global initialization) — a size proxy for benches and tests.
    pub fn instruction_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum::<usize>() + self.global_init.code.len()
    }
}

/// Lower through the [`Program`]'s cache slot: the first call builds the
/// bytecode, every later call (on this program or any clone) is a pointer
/// clone.
pub fn lower_cached(program: &Program) -> std::sync::Arc<CompiledProgram> {
    program.lowered_artifact(|| lower(program))
}
