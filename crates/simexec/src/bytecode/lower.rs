//! AST → register bytecode lowering.
//!
//! See the module docs in [`super`] for the invariants this pass maintains
//! (slot resolution, interning, step parity, region unwinding). The
//! structure mirrors the tree-walk oracle statement by statement: every
//! oracle charge point becomes a pending step that is coalesced with
//! adjacent charges and flushed as a `Step` before the next real
//! instruction or jump label.

use std::collections::HashMap;

use super::{
    BuiltinOp, CompiledProgram, DirectiveOps, FuncCode, Instr, Math1, ParamSpec, SlotMeta, VarRef,
};
use crate::memory::MapKind;
use crate::outcome::RuntimeFault;
use crate::rt;
use crate::value::Value;
use vv_dclang::{
    AssignOp, BinOp, Directive, Expr, Function, Interner, Stmt, Symbol, UnOp, VarDecl,
};
use vv_simcompiler::semantic::clause_variables;
use vv_simcompiler::Program;

/// Lower a checked program to register bytecode (uncached; see
/// [`super::lower_cached`] for the compile-once entry point).
pub fn lower(program: &Program) -> CompiledProgram {
    Lowerer::new(program).lower_program()
}

/// A loop's patch lists. For-initializers push a pseudo-context whose
/// break/continue both fall through into the loop (the oracle ignores
/// non-`Return` flow out of a `for` initializer).
struct LoopCtx {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
    /// Depth of `regions` when the loop was entered; `break`/`continue`
    /// unwind every region opened above this depth.
    region_depth: usize,
}

/// An open structured data / compute region during lowering.
#[derive(Clone, Copy)]
struct Region {
    dir: u32,
    compute: bool,
}

/// The lowering-time view of an lvalue.
enum LPlace {
    Var(VarRef),
    Index {
        base: u16,
        idx: u16,
    },
    /// `base[idx]` with both sides plain variables: accesses reload the
    /// variables (pure loads), no registers held.
    IndexVar {
        base: VarRef,
        idx: VarRef,
    },
    Deref {
        ptr: u16,
    },
    /// An unrepresentable lvalue; a `Trap` has already been emitted, so any
    /// follow-up instructions are unreachable.
    Invalid,
}

struct Lowerer<'p> {
    program: &'p Program,
    names: Interner,
    consts: Vec<Value>,
    int_consts: HashMap<i64, u32>,
    float_consts: HashMap<u64, u32>,
    str_consts: HashMap<Symbol, u32>,
    func_index: HashMap<Symbol, u32>,
    global_slots: HashMap<Symbol, u16>,
    global_meta: Vec<SlotMeta>,
    directives: Vec<DirectiveOps>,
    // Per-body state, reset by `begin_body`.
    code: Vec<Instr>,
    pending_steps: u32,
    scopes: Vec<Vec<(Symbol, u16)>>,
    slot_meta: Vec<SlotMeta>,
    ghosts: HashMap<Symbol, VarRef>,
    next_reg: u16,
    max_reg: u16,
    loops: Vec<LoopCtx>,
    regions: Vec<Region>,
    lowering_globals: bool,
    /// Number of parameter slots in the body being lowered (slots below
    /// this index may be unbound at runtime — missing call arguments).
    param_count: u16,
}

impl<'p> Lowerer<'p> {
    fn new(program: &'p Program) -> Self {
        Self {
            program,
            names: Interner::new(),
            consts: Vec::new(),
            int_consts: HashMap::new(),
            float_consts: HashMap::new(),
            str_consts: HashMap::new(),
            func_index: HashMap::new(),
            global_slots: HashMap::new(),
            global_meta: Vec::new(),
            directives: Vec::new(),
            code: Vec::new(),
            pending_steps: 0,
            scopes: Vec::new(),
            slot_meta: Vec::new(),
            ghosts: HashMap::new(),
            next_reg: 0,
            max_reg: 0,
            loops: Vec::new(),
            regions: Vec::new(),
            lowering_globals: false,
            param_count: 0,
        }
    }

    fn lower_program(mut self) -> CompiledProgram {
        let unit = &self.program.unit;
        // Pre-declare global slots (duplicate names share one slot, exactly
        // like the oracle's single `globals` map entry) so forward
        // references resolve to a slot that is still unbound — and
        // therefore segfault — at the time the earlier initializer runs.
        for decl in &unit.globals {
            let sym = self.names.intern(&decl.name);
            if let std::collections::hash_map::Entry::Vacant(e) = self.global_slots.entry(sym) {
                let slot = u16::try_from(self.global_meta.len()).expect("too many globals");
                self.global_meta.push(SlotMeta {
                    eval_salt: rt::eval_salt(&decl.name),
                    place_salt: rt::place_salt(&decl.name),
                });
                e.insert(slot);
            }
        }
        // First function definition wins a name, like `unit.function()`.
        for (i, func) in unit.functions.iter().enumerate() {
            let sym = self.names.intern(&func.name);
            self.func_index.entry(sym).or_insert(i as u32);
        }

        // Global initializers run before `main`, in declaration order.
        self.begin_body(true);
        let globals: Vec<VarDecl> = unit.globals.clone();
        for decl in &globals {
            self.lower_decl(decl);
        }
        self.emit_epilogue();
        let global_init = self.take_func(Vec::new());

        let mut funcs = Vec::with_capacity(unit.functions.len());
        for func in &unit.functions {
            let lowered = self.lower_function(func);
            funcs.push(lowered);
        }
        let main = self
            .names
            .get("main")
            .and_then(|s| self.func_index.get(&s))
            .copied();

        CompiledProgram {
            consts: self.consts,
            funcs,
            main,
            global_init,
            global_meta: self.global_meta,
            directives: self.directives,
        }
    }

    fn lower_function(&mut self, func: &Function) -> FuncCode {
        self.begin_body(false);
        self.push_scope();
        let mut params = Vec::with_capacity(func.params.len());
        for param in &func.params {
            let VarRef::Local(slot) = self.declare(&param.name) else {
                unreachable!("params declare local slots");
            };
            let sym = self.names.intern(&param.name);
            params.push(ParamSpec {
                slot,
                coerce: rt::coerce_kind(&param.ty),
                global_fallback: self.global_slots.get(&sym).copied(),
            });
        }
        self.param_count = params.len() as u16;
        for stmt in &func.body.stmts {
            self.lower_stmt(stmt);
        }
        self.emit_epilogue();
        self.pop_scope();
        self.take_func(params)
    }

    /// A function body ends with an implicit `return 0`.
    fn emit_epilogue(&mut self) {
        self.touch_reg(1);
        let idx = self.const_int(0);
        self.emit(Instr::Const { dst: 0, idx });
        self.emit(Instr::Ret { src: 0 });
    }

    fn begin_body(&mut self, lowering_globals: bool) {
        self.code = Vec::new();
        self.pending_steps = 0;
        self.scopes = Vec::new();
        self.slot_meta = Vec::new();
        self.ghosts = HashMap::new();
        self.next_reg = 0;
        self.max_reg = 0;
        self.loops = Vec::new();
        self.regions = Vec::new();
        self.lowering_globals = lowering_globals;
        self.param_count = 0;
    }

    fn take_func(&mut self, params: Vec<ParamSpec>) -> FuncCode {
        debug_assert_eq!(self.pending_steps, 0, "epilogue flushes pending steps");
        FuncCode {
            code: std::mem::take(&mut self.code),
            regs: self.max_reg,
            slots: u16::try_from(self.slot_meta.len()).expect("too many locals"),
            slot_meta: std::mem::take(&mut self.slot_meta),
            params,
        }
    }

    // ------------------------------------------------------------------
    // emitter
    // ------------------------------------------------------------------

    /// Record oracle step charges; adjacent charges coalesce into one
    /// `Step(n)` flushed before the next instruction or label.
    fn charge(&mut self, n: u32) {
        self.pending_steps += n;
    }

    fn flush_steps(&mut self) {
        if self.pending_steps > 0 {
            let n = self.pending_steps;
            self.pending_steps = 0;
            self.code.push(Instr::Step(n));
        }
    }

    fn emit(&mut self, instr: Instr) {
        self.flush_steps();
        self.code.push(instr);
    }

    /// A jump-target position; flushing first keeps pending charges on the
    /// fall-through side of the label (they belong to code *before* it).
    fn label(&mut self) -> u32 {
        self.flush_steps();
        self.code.len() as u32
    }

    fn emit_jump(&mut self) -> usize {
        self.emit(Instr::Jump { target: u32::MAX });
        self.code.len() - 1
    }

    fn emit_jump_if_false(&mut self, cond: u16) -> usize {
        self.emit(Instr::JumpIfFalse {
            cond,
            target: u32::MAX,
        });
        self.code.len() - 1
    }

    fn emit_jump_if_true(&mut self, cond: u16) -> usize {
        self.emit(Instr::JumpIfTrue {
            cond,
            target: u32::MAX,
        });
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump { target: t }
            | Instr::JumpIfFalse { target: t, .. }
            | Instr::JumpIfTrue { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_all(&mut self, patches: Vec<usize>, target: u32) {
        for at in patches {
            self.patch(at, target);
        }
    }

    // ------------------------------------------------------------------
    // registers, constants, names
    // ------------------------------------------------------------------

    fn push_reg(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg = r.checked_add(1).expect("register window overflow");
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn touch_reg(&mut self, upto: u16) {
        self.max_reg = self.max_reg.max(upto);
    }

    fn const_value(&mut self, value: Value) -> u32 {
        match &value {
            Value::Int(i) => {
                if let Some(&idx) = self.int_consts.get(i) {
                    return idx;
                }
                let idx = self.consts.len() as u32;
                self.int_consts.insert(*i, idx);
                self.consts.push(value);
                idx
            }
            Value::Float(f) => {
                let bits = f.to_bits();
                if let Some(&idx) = self.float_consts.get(&bits) {
                    return idx;
                }
                let idx = self.consts.len() as u32;
                self.float_consts.insert(bits, idx);
                self.consts.push(value);
                idx
            }
            Value::Str(s) => {
                let sym = self.names.intern(s);
                if let Some(&idx) = self.str_consts.get(&sym) {
                    return idx;
                }
                let idx = self.consts.len() as u32;
                self.str_consts.insert(sym, idx);
                self.consts.push(value);
                idx
            }
            _ => {
                let idx = self.consts.len() as u32;
                self.consts.push(value);
                idx
            }
        }
    }

    fn const_int(&mut self, i: i64) -> u32 {
        self.const_value(Value::Int(i))
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Declare a fresh slot for a name in the current scope.
    fn declare(&mut self, name: &str) -> VarRef {
        let sym = self.names.intern(name);
        let meta = SlotMeta {
            eval_salt: rt::eval_salt(name),
            place_salt: rt::place_salt(name),
        };
        if self.lowering_globals {
            VarRef::Global(self.global_slots[&sym])
        } else {
            let slot = u16::try_from(self.slot_meta.len()).expect("too many locals");
            self.slot_meta.push(meta);
            self.scopes
                .last_mut()
                .expect("a scope is open")
                .push((sym, slot));
            VarRef::Local(slot)
        }
    }

    /// Innermost-scope-first, then globals — the lexical mirror of the
    /// oracle's dynamic scope-chain walk.
    fn resolve(&mut self, name: &str) -> Option<VarRef> {
        let sym = self.names.intern(name);
        for scope in self.scopes.iter().rev() {
            for (s, slot) in scope.iter().rev() {
                if *s == sym {
                    return Some(VarRef::Local(*slot));
                }
            }
        }
        self.global_slots.get(&sym).copied().map(VarRef::Global)
    }

    /// Resolve a name, falling back to a per-body ghost slot that is never
    /// bound — reproducing the oracle's behaviour for names semantic
    /// analysis would have rejected (segfault on rvalue read, garbage on
    /// place read, late bind on store).
    fn resolve_or_ghost(&mut self, name: &str) -> VarRef {
        if let Some(var) = self.resolve(name) {
            return var;
        }
        let sym = self.names.intern(name);
        if let Some(&var) = self.ghosts.get(&sym) {
            return var;
        }
        let meta = SlotMeta {
            eval_salt: rt::eval_salt(name),
            place_salt: rt::place_salt(name),
        };
        let var = if self.lowering_globals {
            let slot = u16::try_from(self.global_meta.len()).expect("too many globals");
            self.global_meta.push(meta);
            VarRef::Global(slot)
        } else {
            let slot = u16::try_from(self.slot_meta.len()).expect("too many locals");
            self.slot_meta.push(meta);
            VarRef::Local(slot)
        };
        self.ghosts.insert(sym, var);
        var
    }

    /// A variable whose rvalue load can never fault at runtime, making it
    /// safe to fold into a fused instruction whose step charges are
    /// coalesced ahead of the load: a declared non-parameter local
    /// (declaration dominates every use under structured control flow) or,
    /// outside global-initializer code, any global (all global slots are
    /// bound once initialization completes). Parameter slots can be left
    /// unbound by missing call arguments and forward global references are
    /// unbound during initialization, so those take the unfused lowering,
    /// whose charges sit exactly at the oracle's charge points.
    fn fusible_var(&mut self, name: &str) -> Option<VarRef> {
        match self.resolve(name)? {
            VarRef::Local(slot) if slot < self.param_count => None,
            var @ VarRef::Local(_) => Some(var),
            var @ VarRef::Global(_) => (!self.lowering_globals).then_some(var),
        }
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn lower_stmt(&mut self, stmt: &Stmt) {
        let mark = self.next_reg;
        self.charge(1); // the oracle charges one step per statement entry
        match stmt {
            Stmt::Decl(decls) => {
                for decl in decls {
                    self.lower_decl(decl);
                }
            }
            Stmt::Expr(expr) => {
                self.lower_expr_discard(expr);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = self.lower_expr(cond);
                let jf = self.emit_jump_if_false(c);
                self.next_reg = mark;
                self.push_scope();
                self.lower_stmt(then_branch);
                self.pop_scope();
                if let Some(else_branch) = else_branch {
                    let je = self.emit_jump();
                    let else_label = self.label();
                    self.patch(jf, else_label);
                    self.push_scope();
                    self.lower_stmt(else_branch);
                    self.pop_scope();
                    let end = self.label();
                    self.patch(je, end);
                } else {
                    let end = self.label();
                    self.patch(jf, end);
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
                let init_patches = init.as_ref().map(|init| {
                    // The oracle ignores Break/Continue out of a `for`
                    // initializer: execution falls through into the loop.
                    self.loops.push(LoopCtx {
                        break_patches: Vec::new(),
                        continue_patches: Vec::new(),
                        region_depth: self.regions.len(),
                    });
                    self.lower_stmt(init);
                    self.loops.pop().expect("init ctx")
                });
                let head = self.label();
                if let Some(ctx) = init_patches {
                    self.patch_all(ctx.break_patches, head);
                    self.patch_all(ctx.continue_patches, head);
                }
                self.charge(1); // per-iteration step
                let jf = cond.as_ref().map(|cond| {
                    let c = self.lower_expr(cond);
                    let at = self.emit_jump_if_false(c);
                    self.next_reg = mark;
                    at
                });
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    region_depth: self.regions.len(),
                });
                self.lower_stmt(body);
                let ctx = self.loops.pop().expect("loop ctx");
                let cont = self.label();
                self.patch_all(ctx.continue_patches, cont);
                if let Some(step) = step {
                    self.lower_expr_discard(step);
                    self.next_reg = mark;
                }
                self.emit(Instr::Jump { target: head });
                let end = self.label();
                if let Some(jf) = jf {
                    self.patch(jf, end);
                }
                self.patch_all(ctx.break_patches, end);
                self.pop_scope();
            }
            Stmt::While { cond, body, .. } => {
                let head = self.label();
                self.charge(1); // per-iteration step
                let c = self.lower_expr(cond);
                let jf = self.emit_jump_if_false(c);
                self.next_reg = mark;
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    region_depth: self.regions.len(),
                });
                self.lower_stmt(body);
                let ctx = self.loops.pop().expect("loop ctx");
                self.emit(Instr::Jump { target: head });
                let end = self.label();
                self.patch(jf, end);
                self.patch_all(ctx.break_patches, end);
                self.patch_all(ctx.continue_patches, head);
            }
            Stmt::DoWhile { body, cond, .. } => {
                let head = self.label();
                self.charge(1); // per-iteration step
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    region_depth: self.regions.len(),
                });
                self.lower_stmt(body);
                let ctx = self.loops.pop().expect("loop ctx");
                let cont = self.label();
                self.patch_all(ctx.continue_patches, cont);
                let c = self.lower_expr(cond);
                self.emit(Instr::JumpIfTrue {
                    cond: c,
                    target: head,
                });
                self.next_reg = mark;
                let end = self.label();
                self.patch_all(ctx.break_patches, end);
            }
            Stmt::Return(value, _) => {
                let r = match value {
                    Some(expr) => self.lower_expr(expr),
                    None => {
                        let d = self.push_reg();
                        let idx = self.const_int(0);
                        self.emit(Instr::Const { dst: d, idx });
                        d
                    }
                };
                self.emit_region_unwind(0);
                self.emit(Instr::Ret { src: r });
            }
            Stmt::Break(_) => {
                if let Some(depth) = self.loops.last().map(|l| l.region_depth) {
                    self.emit_region_unwind(depth);
                    let j = self.emit_jump();
                    self.loops
                        .last_mut()
                        .expect("loop ctx")
                        .break_patches
                        .push(j);
                } else {
                    // Break outside any loop ends the function with the
                    // default result, after unwinding open regions.
                    self.emit_region_unwind(0);
                    let d = self.push_reg();
                    let idx = self.const_int(0);
                    self.emit(Instr::Const { dst: d, idx });
                    self.emit(Instr::Ret { src: d });
                }
            }
            Stmt::Continue(_) => {
                if let Some(depth) = self.loops.last().map(|l| l.region_depth) {
                    self.emit_region_unwind(depth);
                    let j = self.emit_jump();
                    self.loops
                        .last_mut()
                        .expect("loop ctx")
                        .continue_patches
                        .push(j);
                } else {
                    self.emit_region_unwind(0);
                    let d = self.push_reg();
                    let idx = self.const_int(0);
                    self.emit(Instr::Const { dst: d, idx });
                    self.emit(Instr::Ret { src: d });
                }
            }
            Stmt::Block(block) => {
                self.push_scope();
                for stmt in &block.stmts {
                    self.lower_stmt(stmt);
                }
                self.pop_scope();
            }
            Stmt::Directive { directive, body } => {
                self.lower_directive_stmt(directive, body.as_deref());
            }
            Stmt::Empty(_) => {}
        }
        self.next_reg = mark;
    }

    /// Emit exit actions for every region above `to_depth`, innermost
    /// first — what the oracle's `Flow` propagation does on the way out.
    fn emit_region_unwind(&mut self, to_depth: usize) {
        let to_unwind: Vec<Region> = self.regions[to_depth..].iter().rev().copied().collect();
        for region in to_unwind {
            if region.compute {
                self.emit(Instr::ExitCompute { dir: region.dir });
            } else {
                self.emit(Instr::ExitData { dir: region.dir });
            }
        }
    }

    /// Lower one declarator. In global-initializer code `declare` names
    /// the pre-declared global slot, so globals take this path too (and the
    /// same oracle charges: initializer evaluation only).
    fn lower_decl(&mut self, decl: &VarDecl) {
        if !decl.array_dims.is_empty() {
            let base = self.next_reg;
            for dim in &decl.array_dims {
                self.lower_expr(dim);
            }
            let ndims = u16::try_from(decl.array_dims.len()).expect("too many dims");
            self.emit(Instr::ArrayAlloc {
                dst: base,
                dims: base,
                ndims,
            });
            let var = self.declare(&decl.name);
            self.emit(Instr::StoreVar { var, src: base });
            self.next_reg = base;
        } else if let Some(init) = &decl.init {
            let r = self.lower_expr(init);
            if let Some(kind) = rt::coerce_kind(&decl.ty) {
                self.emit(Instr::Coerce { reg: r, kind });
            }
            let var = self.declare(&decl.name);
            self.emit(Instr::StoreVar { var, src: r });
            self.next_reg = r;
        } else {
            let var = self.declare(&decl.name);
            self.emit(Instr::BindUninit { var });
        }
    }

    // ------------------------------------------------------------------
    // directives
    // ------------------------------------------------------------------

    fn lower_directive_stmt(&mut self, directive: &Directive, body: Option<&Stmt>) {
        if directive.model != Some(self.program.model) {
            // Foreign or unknown pragma: ignored by this compiler/runtime.
            if let Some(body) = body {
                self.lower_stmt(body);
            }
            return;
        }
        let name = directive.display_name();
        let first = directive.name.first().map(String::as_str).unwrap_or("");
        match name.as_str() {
            "enter data" | "target enter data" => {
                let dir = self.directive_ops(directive);
                self.emit(Instr::EnterData { dir });
            }
            "exit data" | "target exit data" => {
                let dir = self.directive_ops(directive);
                self.emit(Instr::ExitData { dir });
            }
            "update" | "target update" => {
                let dir = self.directive_ops(directive);
                self.emit(Instr::UpdateData { dir });
            }
            "data" | "target data" | "host_data" => {
                let dir = self.directive_ops(directive);
                self.emit(Instr::EnterData { dir });
                self.regions.push(Region {
                    dir,
                    compute: false,
                });
                if let Some(body) = body {
                    self.lower_stmt(body);
                }
                self.regions.pop();
                self.emit(Instr::ExitData { dir });
            }
            _ => {
                let is_offload_compute = matches!(
                    first,
                    "parallel" | "kernels" | "serial" | "target" | "teams" | "task" | "taskloop"
                );
                if is_offload_compute {
                    let dir = self.directive_ops(directive);
                    self.emit(Instr::EnterCompute { dir });
                    self.regions.push(Region { dir, compute: true });
                    if let Some(body) = body {
                        self.lower_stmt(body);
                    }
                    self.regions.pop();
                    self.emit(Instr::ExitCompute { dir });
                } else if let Some(body) = body {
                    // Worksharing/synchronization constructs just execute
                    // their body.
                    self.lower_stmt(body);
                }
            }
        }
    }

    /// Pre-resolve a directive's clause variables to slots; the runtime
    /// skips entries whose current value is not a pointer, exactly like the
    /// oracle's dynamic lookup-and-filter.
    fn directive_ops(&mut self, directive: &Directive) -> u32 {
        let mut ops = DirectiveOps::default();
        for clause in &directive.clauses {
            let Some(args) = &clause.args else { continue };
            let kind = match clause.name.as_str() {
                "copyin" => Some(MapKind::ToDevice),
                "copyout" => Some(MapKind::FromDevice),
                "copy" => Some(MapKind::Both),
                "create" | "no_create" | "present" => Some(MapKind::AllocOnly),
                "map" => Some(rt::map_kind_for(args)),
                _ => None,
            };
            let is_delete = clause.name == "delete"
                || (clause.name == "map"
                    && args.trim_start().starts_with("release")
                    && args.contains(':'))
                || (clause.name == "map"
                    && args.trim_start().starts_with("delete")
                    && args.contains(':'));
            if kind.is_some() || is_delete {
                for var in clause_variables(&clause.name, args) {
                    let Some(vr) = self.resolve(&var) else {
                        continue;
                    };
                    if !is_delete {
                        ops.enter
                            .push((vr, kind.expect("kind is Some when not delete")));
                    }
                    ops.exit.push(vr);
                }
            }
            let to_host = matches!(clause.name.as_str(), "self" | "host" | "from");
            let to_device = matches!(clause.name.as_str(), "device" | "to");
            if to_host || to_device {
                for var in clause_variables(&clause.name, args) {
                    let Some(vr) = self.resolve(&var) else {
                        continue;
                    };
                    ops.update.push((vr, to_host));
                }
            }
        }
        let idx = self.directives.len() as u32;
        self.directives.push(ops);
        idx
    }

    // ------------------------------------------------------------------
    // expressions
    // ------------------------------------------------------------------

    /// Lower an expression. Invariant: entered with `next_reg == N`, the
    /// result lands in register `N` and `next_reg` leaves as `N + 1`.
    fn lower_expr(&mut self, expr: &Expr) -> u16 {
        match expr {
            Expr::IntLit(v, _) => {
                self.charge(1);
                let idx = self.const_int(*v);
                let d = self.push_reg();
                self.emit(Instr::Const { dst: d, idx });
                d
            }
            Expr::FloatLit(v, _) => {
                self.charge(1);
                let idx = self.const_value(Value::Float(*v));
                let d = self.push_reg();
                self.emit(Instr::Const { dst: d, idx });
                d
            }
            Expr::StrLit(s, _) => {
                self.charge(1);
                let idx = self.const_value(Value::Str(s.clone()));
                let d = self.push_reg();
                self.emit(Instr::Const { dst: d, idx });
                d
            }
            Expr::CharLit(c, _) => {
                self.charge(1);
                let idx = self.const_int(*c as i64);
                let d = self.push_reg();
                self.emit(Instr::Const { dst: d, idx });
                d
            }
            Expr::Ident(name, _) => {
                self.charge(1);
                let var = self.resolve_or_ghost(name);
                let d = self.push_reg();
                self.emit(Instr::LoadVar { dst: d, var });
                d
            }
            Expr::Unary { op, expr, .. } => match op {
                UnOp::Neg => {
                    self.charge(1);
                    let s = self.lower_expr(expr);
                    self.emit(Instr::Neg { dst: s, src: s });
                    s
                }
                UnOp::Not => {
                    self.charge(1);
                    let s = self.lower_expr(expr);
                    self.emit(Instr::Not { dst: s, src: s });
                    s
                }
                UnOp::BitNot => {
                    self.charge(1);
                    let s = self.lower_expr(expr);
                    self.emit(Instr::BitNot { dst: s, src: s });
                    s
                }
                UnOp::Deref => {
                    self.charge(1);
                    let p = self.lower_expr(expr);
                    self.emit(Instr::DerefRead { dst: p, ptr: p });
                    p
                }
                UnOp::AddrOf => {
                    self.charge(1);
                    let s = self.lower_expr(expr);
                    self.emit(Instr::AddrOf { dst: s, src: s });
                    s
                }
                UnOp::PreIncr | UnOp::PreDecr => {
                    self.charge(1);
                    let delta = if *op == UnOp::PreDecr { -1 } else { 1 };
                    self.lower_prefix_incdec(expr, delta)
                }
            },
            Expr::Binary { op, lhs, rhs, .. } if *op == BinOp::And => {
                self.charge(1);
                let l = self.lower_expr(lhs);
                let jf = self.emit_jump_if_false(l);
                self.next_reg = l;
                self.lower_expr(rhs);
                self.emit(Instr::Truthy { dst: l, src: l });
                let je = self.emit_jump();
                let false_label = self.label();
                self.patch(jf, false_label);
                let idx = self.const_int(0);
                self.emit(Instr::Const { dst: l, idx });
                let end = self.label();
                self.patch(je, end);
                self.next_reg = l + 1;
                l
            }
            Expr::Binary { op, lhs, rhs, .. } if *op == BinOp::Or => {
                self.charge(1);
                let l = self.lower_expr(lhs);
                let jt = self.emit_jump_if_true(l);
                self.next_reg = l;
                self.lower_expr(rhs);
                self.emit(Instr::Truthy { dst: l, src: l });
                let je = self.emit_jump();
                let true_label = self.label();
                self.patch(jt, true_label);
                let idx = self.const_int(1);
                self.emit(Instr::Const { dst: l, idx });
                let end = self.label();
                self.patch(je, end);
                self.next_reg = l + 1;
                l
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.charge(1);
                // Fused shapes, only for variables whose loads provably
                // cannot fault (see `fusible_var`): folding pure loads into
                // the operator instruction preserves the oracle's behaviour
                // and charges the same three steps at the same points.
                if let Expr::Ident(name, _) = lhs.as_ref() {
                    if let Some(var) = self.fusible_var(name) {
                        if let Some(idx) = self.literal_const(rhs) {
                            self.charge(2);
                            let d = self.push_reg();
                            self.emit(Instr::BinVC {
                                op: *op,
                                dst: d,
                                var,
                                idx,
                            });
                            return d;
                        }
                        if let Expr::Ident(rname, _) = rhs.as_ref() {
                            if let Some(rvar) = self.fusible_var(rname) {
                                self.charge(2);
                                let d = self.push_reg();
                                self.emit(Instr::BinVV {
                                    op: *op,
                                    dst: d,
                                    lhs: var,
                                    rhs: rvar,
                                });
                                return d;
                            }
                        }
                    }
                }
                let l = self.lower_expr(lhs);
                if let Some(idx) = self.literal_const(rhs) {
                    self.charge(1);
                    self.emit(Instr::BinRC {
                        op: *op,
                        dst: l,
                        lhs: l,
                        idx,
                    });
                    self.next_reg = l + 1;
                    return l;
                }
                let r = self.lower_expr(rhs);
                self.emit(Instr::Bin {
                    op: *op,
                    dst: l,
                    lhs: l,
                    rhs: r,
                });
                self.next_reg = l + 1;
                l
            }
            Expr::Assign {
                op, target, value, ..
            } => {
                self.charge(1);
                // The oracle evaluates the value first, then the place.
                let rv = self.lower_expr(value);
                let place = self.lower_place(target);
                if *op == AssignOp::Assign {
                    self.emit_place_write(&place, rv);
                } else {
                    let bin = match op {
                        AssignOp::AddAssign => BinOp::Add,
                        AssignOp::SubAssign => BinOp::Sub,
                        AssignOp::MulAssign => BinOp::Mul,
                        AssignOp::DivAssign => BinOp::Div,
                        AssignOp::Assign => unreachable!(),
                    };
                    let old = self.push_reg();
                    self.emit_place_read(&place, old);
                    self.emit(Instr::Bin {
                        op: bin,
                        dst: rv,
                        lhs: old,
                        rhs: rv,
                    });
                    self.emit_place_write(&place, rv);
                }
                self.next_reg = rv + 1;
                rv
            }
            Expr::Call { name, args, .. } => {
                self.charge(1);
                let sym = self.names.intern(name);
                if let Some(&fidx) = self.func_index.get(&sym) {
                    // User-defined functions take precedence over builtins.
                    let base = self.next_reg;
                    for arg in args {
                        self.lower_expr(arg);
                    }
                    let argc = u16::try_from(args.len()).expect("too many args");
                    self.next_reg = base;
                    let d = self.push_reg();
                    self.emit(Instr::Call {
                        dst: d,
                        func: fidx,
                        args: base,
                        argc,
                    });
                    d
                } else {
                    self.lower_builtin(name, args)
                }
            }
            Expr::Index { base, index, .. } => {
                self.charge(1);
                if let (Expr::Ident(bname, _), Expr::Ident(iname, _)) =
                    (base.as_ref(), index.as_ref())
                {
                    if let (Some(bvar), Some(ivar)) =
                        (self.fusible_var(bname), self.fusible_var(iname))
                    {
                        self.charge(2);
                        let d = self.push_reg();
                        self.emit(Instr::IndexReadVV {
                            dst: d,
                            base: bvar,
                            idx: ivar,
                        });
                        return d;
                    }
                }
                let b = self.lower_expr(base);
                let i = self.lower_expr(index);
                self.emit(Instr::IndexRead {
                    dst: b,
                    base: b,
                    idx: i,
                });
                self.next_reg = b + 1;
                b
            }
            Expr::Postfix {
                target, decrement, ..
            } => {
                self.charge(1);
                let delta = if *decrement { -1 } else { 1 };
                let d = self.push_reg();
                let place = self.lower_place(target);
                self.emit_place_read(&place, d); // the old value is the result
                let tmp = self.push_reg();
                let idx = self.const_int(delta);
                self.emit(Instr::Const { dst: tmp, idx });
                self.emit(Instr::Bin {
                    op: BinOp::Add,
                    dst: tmp,
                    lhs: d,
                    rhs: tmp,
                });
                self.emit_place_write(&place, tmp);
                self.next_reg = d + 1;
                d
            }
            Expr::Cast { ty, expr, .. } => {
                self.charge(1);
                let s = self.lower_expr(expr);
                if let Some(kind) = rt::coerce_kind(ty) {
                    self.emit(Instr::Coerce { reg: s, kind });
                }
                s
            }
            Expr::SizeofType { ty, .. } => {
                self.charge(1);
                let size = if ty.is_pointer() {
                    8
                } else {
                    ty.base.size_bytes()
                };
                let idx = self.const_int(size as i64);
                let d = self.push_reg();
                self.emit(Instr::Const { dst: d, idx });
                d
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                self.charge(1);
                let d = self.push_reg();
                self.next_reg = d;
                let c = self.lower_expr(cond);
                let jf = self.emit_jump_if_false(c);
                self.next_reg = d;
                self.lower_expr(then_expr);
                let je = self.emit_jump();
                let else_label = self.label();
                self.patch(jf, else_label);
                self.next_reg = d;
                self.lower_expr(else_expr);
                let end = self.label();
                self.patch(je, end);
                self.next_reg = d + 1;
                d
            }
        }
    }

    /// Lower an expression whose value is discarded (expression statements
    /// and `for`-loop steps): the common increment/accumulate shapes fuse
    /// into single instructions. Charges are identical to [`Self::lower_expr`]
    /// — only the instruction count shrinks.
    fn lower_expr_discard(&mut self, expr: &Expr) {
        let entry = self.next_reg;
        match expr {
            Expr::Postfix {
                target, decrement, ..
            } => {
                if let Expr::Ident(name, _) = target.as_ref() {
                    self.charge(1); // the Postfix node's eval charge
                    let var = self.resolve_or_ghost(name);
                    let delta = if *decrement { -1 } else { 1 };
                    self.emit(Instr::IncVar { var, delta });
                    return;
                }
            }
            Expr::Unary {
                op, expr: inner, ..
            } if matches!(op, UnOp::PreIncr | UnOp::PreDecr) => {
                if let Expr::Ident(name, _) = inner.as_ref() {
                    self.charge(1);
                    let var = self.resolve_or_ghost(name);
                    let delta = if *op == UnOp::PreDecr { -1 } else { 1 };
                    self.emit(Instr::IncVar { var, delta });
                    return;
                }
            }
            Expr::Assign {
                op, target, value, ..
            } if *op != AssignOp::Assign => {
                if let Expr::Ident(name, _) = target.as_ref() {
                    self.charge(1); // the Assign node's eval charge
                    let rv = self.lower_expr(value);
                    let var = self.resolve_or_ghost(name);
                    let bin = match op {
                        AssignOp::AddAssign => BinOp::Add,
                        AssignOp::SubAssign => BinOp::Sub,
                        AssignOp::MulAssign => BinOp::Mul,
                        AssignOp::DivAssign => BinOp::Div,
                        AssignOp::Assign => unreachable!(),
                    };
                    self.emit(Instr::AccumVar {
                        op: bin,
                        var,
                        src: rv,
                    });
                    self.next_reg = entry;
                    return;
                }
            }
            _ => {}
        }
        self.lower_expr(expr);
    }

    fn lower_prefix_incdec(&mut self, target: &Expr, delta: i64) -> u16 {
        let d = self.push_reg();
        let place = self.lower_place(target);
        self.emit_place_read(&place, d);
        let tmp = self.push_reg();
        let idx = self.const_int(delta);
        self.emit(Instr::Const { dst: tmp, idx });
        self.emit(Instr::Bin {
            op: BinOp::Add,
            dst: d,
            lhs: d,
            rhs: tmp,
        });
        self.emit_place_write(&place, d);
        self.next_reg = d + 1;
        d
    }

    /// Lower an lvalue's sub-expressions (leaving them live in registers),
    /// without charging for the place node itself — the oracle's
    /// `resolve_place` does not re-enter `eval` for the target node.
    fn lower_place(&mut self, expr: &Expr) -> LPlace {
        match expr {
            Expr::Ident(name, _) => LPlace::Var(self.resolve_or_ghost(name)),
            Expr::Index { base, index, .. } => {
                if let (Expr::Ident(bname, _), Expr::Ident(iname, _)) =
                    (base.as_ref(), index.as_ref())
                {
                    if let (Some(bvar), Some(ivar)) =
                        (self.fusible_var(bname), self.fusible_var(iname))
                    {
                        self.charge(2); // the two variable-load charges
                        return LPlace::IndexVar {
                            base: bvar,
                            idx: ivar,
                        };
                    }
                }
                let b = self.lower_expr(base);
                let i = self.lower_expr(index);
                LPlace::Index { base: b, idx: i }
            }
            Expr::Unary {
                op: UnOp::Deref,
                expr,
                ..
            } => {
                let p = self.lower_expr(expr);
                LPlace::Deref { ptr: p }
            }
            Expr::Cast { expr, .. } => self.lower_place(expr),
            _ => {
                self.emit(Instr::Trap {
                    fault: RuntimeFault::Segfault,
                });
                LPlace::Invalid
            }
        }
    }

    fn emit_place_read(&mut self, place: &LPlace, dst: u16) {
        match place {
            LPlace::Var(var) => self.emit(Instr::ReadVarPlace { dst, var: *var }),
            LPlace::Index { base, idx } => self.emit(Instr::IndexRead {
                dst,
                base: *base,
                idx: *idx,
            }),
            LPlace::IndexVar { base, idx } => self.emit(Instr::IndexReadVV {
                dst,
                base: *base,
                idx: *idx,
            }),
            LPlace::Deref { ptr } => self.emit(Instr::DerefRead { dst, ptr: *ptr }),
            LPlace::Invalid => {}
        }
    }

    fn emit_place_write(&mut self, place: &LPlace, src: u16) {
        match place {
            LPlace::Var(var) => self.emit(Instr::StoreVar { var: *var, src }),
            LPlace::Index { base, idx } => self.emit(Instr::IndexWrite {
                base: *base,
                idx: *idx,
                src,
            }),
            LPlace::IndexVar { base, idx } => self.emit(Instr::IndexWriteVV {
                base: *base,
                idx: *idx,
                src,
            }),
            LPlace::Deref { ptr } => self.emit(Instr::DerefWrite { ptr: *ptr, src }),
            LPlace::Invalid => {}
        }
    }

    /// The constant-pool index of a numeric literal expression, if it is
    /// one (the fused-operand shapes).
    fn literal_const(&mut self, expr: &Expr) -> Option<u32> {
        match expr {
            Expr::IntLit(v, _) => Some(self.const_int(*v)),
            Expr::FloatLit(v, _) => Some(self.const_value(Value::Float(*v))),
            Expr::CharLit(c, _) => Some(self.const_int(*c as i64)),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // builtins
    // ------------------------------------------------------------------

    /// Lower a builtin call, reproducing the oracle's per-builtin argument
    /// evaluation shape (which arguments are evaluated, in which order).
    fn lower_builtin(&mut self, name: &str, args: &[Expr]) -> u16 {
        let base = self.next_reg;
        match name {
            "malloc" | "acc_malloc" | "omp_target_alloc" => {
                self.lower_alloc_arg(args.first(), base)
            }
            "realloc" => self.lower_alloc_arg(args.get(1), base),
            "calloc" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::CallocCount, base, argc)
            }
            "free" | "acc_free" | "omp_target_free" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Free, base, argc)
            }
            "printf" => {
                let argc = self.lower_leading_args(args, args.len());
                self.finish_builtin(BuiltinOp::Printf, base, argc)
            }
            "puts" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Puts, base, argc)
            }
            "putchar" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Putchar, base, argc)
            }
            "fprintf" => {
                // The stream argument is not evaluated by the oracle.
                let rest = args.get(1..).unwrap_or(&[]);
                let argc = self.lower_leading_args(rest, rest.len());
                self.finish_builtin(BuiltinOp::Fprintf, base, argc)
            }
            "exit" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Exit, base, argc)
            }
            "abort" => self.finish_builtin(BuiltinOp::Abort, base, 0),
            "fabs" | "fabsf" => self.lower_math1(args, base, Math1::Fabs),
            "sqrt" | "sqrtf" => self.lower_math1(args, base, Math1::Sqrt),
            "exp" => self.lower_math1(args, base, Math1::Exp),
            "log" => self.lower_math1(args, base, Math1::Log),
            "sin" => self.lower_math1(args, base, Math1::Sin),
            "cos" => self.lower_math1(args, base, Math1::Cos),
            "tan" => self.lower_math1(args, base, Math1::Tan),
            "floor" => self.lower_math1(args, base, Math1::Floor),
            "ceil" => self.lower_math1(args, base, Math1::Ceil),
            "pow" => {
                let argc = self.lower_leading_args(args, 2);
                self.finish_builtin(BuiltinOp::Pow, base, argc)
            }
            "abs" | "labs" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Abs, base, argc)
            }
            "rand" => self.finish_builtin(BuiltinOp::Rand, base, 0),
            "srand" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Srand, base, argc)
            }
            "memset" | "memcpy" => {
                if args.len() >= 2 {
                    let argc = self.lower_leading_args(args, 2);
                    let op = if name == "memset" {
                        BuiltinOp::Memset
                    } else {
                        BuiltinOp::Memcpy
                    };
                    self.finish_builtin(op, base, argc)
                } else {
                    // The oracle evaluates nothing unless both are present.
                    self.emit_const_zero(base)
                }
            }
            "strlen" => {
                let argc = self.lower_leading_args(args, 1);
                self.finish_builtin(BuiltinOp::Strlen, base, argc)
            }
            "strcmp" => {
                let argc = self.lower_leading_args(args, 2);
                self.finish_builtin(BuiltinOp::Strcmp, base, argc)
            }
            // Runtime library introspection: no arguments are evaluated.
            "acc_get_num_devices" | "omp_get_num_devices" => {
                self.finish_builtin(BuiltinOp::RtOne, base, 0)
            }
            "acc_get_device_num"
            | "omp_get_team_num"
            | "omp_get_thread_num"
            | "acc_set_device_num"
            | "omp_set_num_threads" => self.finish_builtin(BuiltinOp::RtZero, base, 0),
            "omp_get_num_threads" => self.finish_builtin(BuiltinOp::NumThreads, base, 0),
            "omp_get_num_teams" => self.finish_builtin(BuiltinOp::NumTeams, base, 0),
            "omp_is_initial_device" => self.finish_builtin(BuiltinOp::IsInitialDevice, base, 0),
            "omp_get_wtime" => self.finish_builtin(BuiltinOp::Wtime, base, 0),
            _ => {
                // Implicitly declared function: arguments are evaluated for
                // their effects, the call returns 0.
                for arg in args {
                    self.lower_expr(arg);
                }
                self.emit_const_zero(base)
            }
        }
    }

    /// Evaluate the first `max` arguments (all that exist), in order.
    fn lower_leading_args(&mut self, args: &[Expr], max: usize) -> u16 {
        let n = args.len().min(max);
        for arg in &args[..n] {
            self.lower_expr(arg);
        }
        u16::try_from(n).expect("too many args")
    }

    fn finish_builtin(&mut self, op: BuiltinOp, base: u16, argc: u16) -> u16 {
        self.next_reg = base;
        let d = self.push_reg();
        self.emit(Instr::Builtin {
            dst: d,
            op,
            args: base,
            argc,
        });
        d
    }

    fn emit_const_zero(&mut self, base: u16) -> u16 {
        self.next_reg = base;
        let idx = self.const_int(0);
        let d = self.push_reg();
        self.emit(Instr::Const { dst: d, idx });
        d
    }

    fn lower_math1(&mut self, args: &[Expr], base: u16, op: Math1) -> u16 {
        let argc = self.lower_leading_args(args, 1);
        self.finish_builtin(BuiltinOp::Math(op), base, argc)
    }

    /// `malloc`-family size argument: the oracle recognizes the
    /// `count * sizeof(T)` idiom and evaluates only the count side.
    fn lower_alloc_arg(&mut self, arg: Option<&Expr>, base: u16) -> u16 {
        match arg {
            None => self.finish_builtin(BuiltinOp::AllocCount, base, 0),
            Some(Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
                ..
            }) if matches!(rhs.as_ref(), Expr::SizeofType { .. }) => {
                self.lower_expr(lhs);
                self.finish_builtin(BuiltinOp::AllocCount, base, 1)
            }
            Some(Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
                ..
            }) if matches!(lhs.as_ref(), Expr::SizeofType { .. }) => {
                self.lower_expr(rhs);
                self.finish_builtin(BuiltinOp::AllocCount, base, 1)
            }
            Some(expr) => {
                self.lower_expr(expr);
                self.finish_builtin(BuiltinOp::AllocBytes, base, 1)
            }
        }
    }
}
