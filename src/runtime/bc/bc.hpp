// Compact typed register bytecode for Mini-C (the "compile once, execute
// thousands of schedules" representation).
//
// A Module is compiled from a resolved TranslationUnit once and then shared
// (read-only) by every run of that unit: the dynamic detector's replay
// loop, the schedule explorer's PCT sweep, and the repair verify loop all
// execute the same chunks under different schedules. One Chunk is the code
// of one structured body the interpreter enters through a boundary the
// scheduler knows about: a function body, an OpenMP construct body, a
// worksharing loop's innermost body, or a sections child.
//
// Every instrumented memory access carries a pre-rendered source spelling
// (AccessSite), so race reports, schedule decision traces, and coverage
// signatures come out exactly as pinned in
// tests/golden/runtime_fingerprints.txt. Constructs the compiler does not
// lower call into the interpreter's AST handlers: ExecStmt runs an OpenMP
// construct (the only statement kind verify() admits there), EvalExpr a
// builtin call or unbound identifier, DeclVar an array or
// brace-initialized declaration. Every body those handlers enter must
// have a chunk of its own; the run faults on one that does not.
#pragma once

#include <cstdint>
#include <string>
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
  DeclVar,       // declare decls[imm] via declare_var (arrays, init lists)
  DeclScalar,    // fast-path scalar declare of decls[imm]; regs[a] = &slot
  StoreDeclInit, // store regs[b] through regs[a] (initializer, no event)
  CallUser,      // info=call_infos[imm]: regs[a] = user function call
  EvalExpr,      // regs[a] = AST-evaluate exprs[imm] (fallback)
  ExecStmt,      // run OpenMP flow_infos[imm].node; route Break/Continue
  RetValue,      // throw ReturnSignal{regs[a]}
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

/// "No cache register" sentinel for Instr::b on DeclVar/DeclScalar and for
/// AccessSite::cache.
inline constexpr std::int32_t kNoCache = -1;

struct Instr {
  Op op = Op::Halt;
  std::uint16_t n = 0;           // small operand: op selector / flags / count
  std::uint16_t a = 0;           // register operands
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::int32_t imm = -1;         // jump target or pool index
};

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
  const minic::Subscript* node = nullptr;  // outermost subscript (debug)
  bool base_is_ident = false;
  bool base_is_array = false;
  std::int32_t base_site = -1;  // sites[]: decl+cache (+read event when ptr)
  std::int32_t null_msg = -1;   // messages[]: null-base fault text
};

/// A compiled user-function call: arguments live in a consecutive register
/// span evaluated left-to-right before the frame swap.
struct CallInfo {
  const minic::FunctionDecl* fn = nullptr;
  const minic::Call* node = nullptr;
  std::uint16_t arg_base = 0;
  std::uint16_t argc = 0;
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
  const minic::Stmt* entry = nullptr;
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
  std::vector<Value> consts;
  std::vector<AccessSite> sites;
  std::vector<IndexInfo> index_infos;
  std::vector<CallInfo> call_infos;
  std::vector<FlowInfo> flow_infos;
  std::vector<const minic::Expr*> exprs;        // EvalExpr fallback nodes
  std::vector<const minic::StringLit*> strings;
  std::vector<const minic::VarDecl*> decls;     // DeclVar / DeclScalar
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
};

}  // namespace drbml::runtime::bc
