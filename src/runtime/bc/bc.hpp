// Compact typed register bytecode for Mini-C (the "compile once, execute
// thousands of schedules" representation).
//
// A Module is compiled from a resolved TranslationUnit once and then shared
// (read-only) by every run of that unit: the dynamic detector's replay
// loop, the schedule explorer's PCT sweep, and the repair verify loop all
// execute the same chunks under different schedules. Compiled code is the
// only code that evaluates Mini-C during a run. There are three kinds of
// chunk:
//   - body chunks, found by their statement (Module::find): a function
//     body, an OpenMP construct body, a worksharing loop's innermost body
//     or init declaration, or a sections child;
//   - expression chunks, found by their expression (Module::find_expr),
//     which leave the value in register 0: every expression an OpenMP
//     handler evaluates (clause arguments, worksharing loop bounds, an
//     atomic statement and its target's address) and every builtin-call
//     argument;
//   - one chunk declaring the globals, run before main.
//
// Every instrumented memory access carries a pre-rendered source spelling
// (AccessSite), so race reports, schedule decision traces, and coverage
// signatures come out exactly as pinned in
// tests/golden/runtime_fingerprints.txt. ExecStmt hands an OpenMP construct
// to the runtime's construct handlers (the only statement kind verify()
// admits there); CallBuiltin hands a builtin call to the runtime's builtin
// library. Both evaluate what they need through expression chunks and
// enter every body through its body chunk; the run faults on a body or an
// expression that has none.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minic/ast.hpp"
#include "runtime/value.hpp"

namespace drbml::runtime::bc {

enum class Op : std::uint8_t {
  Const,         // regs[a] = consts[imm]
  StrObj,        // regs[a] = pointer to the cached string object strings[imm]
  LoadScalar,    // site=sites[imm]: slot lookup, read event, regs[a] = load
  ArrayAddr,     // site=sites[imm]: regs[a] = &slot (array decay, no event)
  VarAddr,       // site=sites[imm]: regs[a] = &slot (ident lvalue, no event)
  LoadElem,      // site=sites[imm]: read event on regs[b], regs[a] = load
  StoreElem,     // site=sites[imm]: write event on regs[a], store regs[b]
  IncDec,        // site=sites[imm]: ++/-- through regs[b]; n = flag bits
  IndexAddr,     // info=index_infos[imm]: regs[a] = &base[regs[b..b+n-1]]
  CheckPtr,      // fault messages[imm] unless regs[a] is a valid pointer
  BinOp,         // regs[a] = regs[b] <BinaryOp(n)> regs[c]
  ApplyBin,      // regs[a] = compound-assign combine of regs[b], regs[c]
  Neg,           // regs[a] = -regs[b]
  NotOp,         // regs[a] = !regs[b]
  BitNotOp,      // regs[a] = ~regs[b]
  ToBool,        // regs[a] = regs[b] ? 1 : 0
  CastDbl,       // regs[a] = (double)regs[b]
  CastInt,       // regs[a] = (int)regs[b]
  Jump,          // pc = imm
  JumpIfFalse,   // if (!regs[a]) pc = imm
  JumpIfTrue,    // if (regs[a]) pc = imm
  PushFrame,     // push an (empty) binding frame
  PopFrame,      // pop n frames (invalidates caches if any was non-empty)
  DeclArray,     // declare decls[imm] with dims regs[c..c+n-1]; regs[a] = &obj
  DeclScalar,    // declare the scalar decls[imm]; regs[a] = &slot
  StoreDeclInit, // store regs[b] at element imm of the object regs[a] (no event)
  CallUser,      // info=call_infos[imm]: regs[a] = user function call
  CallBuiltin,   // call=builtin_calls[imm]: regs[a] = builtin result
  ExecStmt,      // run OpenMP flow_infos[imm].node; route Break/Continue
  RetValue,      // return Flow::Return, regs[a] the returned value
  RetFlow,       // return Flow (n: kFlowBreak / kFlowContinue)
  FaultOp,       // throw RuntimeFault(messages[imm])
  Halt,          // return Flow::Normal
};

inline constexpr int kOpCount = static_cast<int>(Op::Halt) + 1;

// IncDec flag bits (Instr::n).
inline constexpr std::uint16_t kIncDecPre = 1;  // pre-form: result is `next`
inline constexpr std::uint16_t kIncDecNeg = 2;  // decrement

// RetFlow selectors (Instr::n).
inline constexpr std::uint16_t kFlowBreak = 1;
inline constexpr std::uint16_t kFlowContinue = 2;

/// "No cache register" sentinel for AccessSite::cache.
inline constexpr std::int32_t kNoCache = -1;

struct Instr {
  Op op = Op::Halt;
  std::uint16_t n = 0;           // small operand: op selector / flags / count
  std::uint16_t a = 0;           // register operands
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::int32_t imm = -1;         // jump target or pool index
};

/// The runtime's builtin functions, resolved from the callee's name at
/// compile time.
enum class Builtin : std::uint8_t {
  Printf, Fprintf, Puts, Putchar,
  Malloc, Calloc, Free, Memset, Sizeof,
  OmpGetThreadNum, OmpGetNumThreads, OmpGetMaxThreads, OmpGetNumProcs,
  OmpInParallel, OmpSetNumThreads, OmpGetWtime,
  OmpInitLock, OmpDestroyLock, OmpInitNestLock, OmpDestroyNestLock,
  OmpSetLock, OmpUnsetLock, OmpSetNestLock, OmpUnsetNestLock, OmpTestLock,
  Fabs, Sqrt, Sin, Cos, Exp, Log, Floor, Ceil,
  Pow, Fmax, Fmin, Abs, Labs,
  Rand, Srand, Atoi, Atol, Atof,
  Assert, Exit, Abort,
};

inline constexpr int kBuiltinCount = static_cast<int>(Builtin::Abort) + 1;

/// The builtin called `name`, if there is one.
[[nodiscard]] std::optional<Builtin> builtin_named(std::string_view name);

/// The loops a worksharing or `simd` construct distributes, outermost
/// first: its body with single-statement blocks unwrapped, then for
/// `collapse(n)` each next loop found the same way, n in all. Stops at a
/// level that is not a for loop, leaving `complete` false.
struct LoopNest {
  std::vector<const minic::ForStmt*> loops;
  bool complete = false;
};
[[nodiscard]] LoopNest loop_nest(const minic::OmpStmt& s);

/// What an `atomic` construct evaluates: its statement, when the body
/// (single-statement blocks unwrapped) is an expression statement, and
/// the location that statement updates -- or reads, under `atomic read`
/// -- when that is an identifier or a subscript. Null when absent; with
/// no statement the body runs as a block.
struct AtomicParts {
  const minic::Expr* stmt = nullptr;
  const minic::Expr* target = nullptr;
};
[[nodiscard]] AtomicParts atomic_parts(const minic::OmpStmt& s);

/// One instrumented access site: everything on_read_at/on_write_at needs,
/// rendered at compile time so the hot path does no string building.
struct AccessSite {
  const minic::VarDecl* decl = nullptr;  // for variable ops; null for elems
  std::string text;                      // source spelling of the access
  minic::SourceLoc loc;                  // innermost-base coordinate
  std::int32_t cache = kNoCache;         // chunk cache slot for the lookup
};

/// Base resolution for an IndexAddr (subscript chain) instruction.
struct IndexInfo {
  bool base_is_ident = false;
  bool base_is_array = false;
  std::int32_t base_site = -1;  // sites[]: decl+cache (+read event when ptr)
  std::int32_t null_msg = -1;   // messages[]: null-base fault text
};

/// A compiled user-function call: arguments live in a consecutive register
/// span evaluated left-to-right before the frame swap.
struct CallInfo {
  const minic::FunctionDecl* fn = nullptr;
  std::uint16_t arg_base = 0;
  std::uint16_t argc = 0;
};

/// A compiled builtin call. The builtin evaluates the arguments it uses,
/// in its own order, through their expression chunks.
struct BuiltinCall {
  const minic::Call* node = nullptr;
  Builtin fn = Builtin::Printf;
  std::int32_t message = -1;  // messages[]: assert's failure text
};

/// Flow routing for an ExecStmt (an OpenMP construct): where a Break or
/// Continue escaping the construct lands in this chunk, and how many
/// compiled frames must be popped on the way (the binding frames of the
/// enclosing compounds).
struct FlowInfo {
  const minic::Stmt* node = nullptr;
  std::int32_t brk = -1;        // -1: propagate the flow out of the chunk
  std::int32_t cont = -1;
  std::uint16_t brk_pops = 0;   // frames to pop before jumping to `brk`
  std::uint16_t cont_pops = 0;
  std::uint16_t exit_pops = 0;  // frames to pop when propagating out
};

struct Chunk {
  std::string label;             // e.g. "fn main", for verifier diagnostics
  std::vector<Instr> code;
  std::uint32_t num_regs = 0;    // data registers
  std::uint32_t num_caches = 0;  // trailing variable-lookup cache registers

  [[nodiscard]] std::uint32_t frame_size() const noexcept {
    return num_regs + num_caches;
  }
};

/// A compiled translation unit. Pools are shared across chunks; all node
/// pointers reference the TranslationUnit the module was compiled from,
/// which must outlive the module.
struct Module {
  std::vector<Chunk> chunks;
  std::unordered_map<const minic::Stmt*, std::uint32_t> entries;  // body -> chunk
  /// Expression -> chunk that leaves its value in register 0.
  std::unordered_map<const minic::Expr*, std::uint32_t> expr_entries;
  std::uint32_t globals = 0;  // the chunk declaring the globals
  /// Per task construct, the variables its body refers to, in
  /// declaration-pointer order: the candidates for implicit firstprivate.
  std::unordered_map<const minic::Stmt*, std::vector<const minic::VarDecl*>>
      task_captures;
  /// Per worksharing or `simd` construct, the loops it distributes
  /// (loop_nest).
  std::unordered_map<const minic::Stmt*, LoopNest> loop_nests;
  std::vector<Value> consts;
  std::vector<AccessSite> sites;
  std::vector<IndexInfo> index_infos;
  std::vector<CallInfo> call_infos;
  std::vector<BuiltinCall> builtin_calls;
  std::vector<FlowInfo> flow_infos;
  std::vector<const minic::StringLit*> strings;
  std::vector<const minic::VarDecl*> decls;     // DeclArray / DeclScalar
  std::vector<std::string> messages;            // fault texts
  /// Largest chunk frame (registers + caches); sizes the per-thread
  /// register arena so fresh contexts do not pay for a worst-case arena.
  std::uint32_t max_frame = 0;
  /// Set by verify() after all structural checks pass. run_program refuses
  /// to execute a module whose verified flag is unset.
  bool verified = false;

  [[nodiscard]] const Chunk* find(const minic::Stmt* s) const {
    auto it = entries.find(s);
    return it == entries.end() ? nullptr : &chunks[it->second];
  }
  [[nodiscard]] const Chunk* find_expr(const minic::Expr* e) const {
    auto it = expr_entries.find(e);
    return it == expr_entries.end() ? nullptr : &chunks[it->second];
  }
};

}  // namespace drbml::runtime::bc
