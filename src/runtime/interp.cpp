#include "runtime/interp.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "minic/int_ops.hpp"
#include "obs/catalog.hpp"
#include "runtime/bc/bc.hpp"
#include "runtime/bc/compile.hpp"
#include "runtime/memory.hpp"
#include "runtime/sched.hpp"
#include "runtime/strategy.hpp"
#include "runtime/vc.hpp"
#include "support/hash.hpp"

namespace drbml::runtime {

using namespace minic;

namespace {

using Frame = std::map<const VarDecl*, ObjRef>;

/// How a chunk ended. Return leaves the returned value in ThreadCtx::ret;
/// a `return` in the body of an OpenMP construct unwinds out of the
/// construct's handler as a ReturnSignal instead (exec_body).
enum class Flow { Normal, Break, Continue, Return };

struct LockState {
  bool held = false;
  VectorClock vc;
};

struct OrderedLoopState {
  std::int64_t next = 0;
  VectorClock vc;
};

/// Shared state of one thread team.
struct TeamState {
  int size = 1;
  CoopScheduler* sched = nullptr;

  // Explicit/implicit barriers.
  VectorClock bar_acc;
  VectorClock bar_result;
  int bar_arrived = 0;

  // single construct claims: construct -> number of visits claimed.
  std::map<const void*, int> single_claimed;

  // critical sections by name; OpenMP locks by address; atomics by element.
  std::map<std::string, LockState> critical;
  std::map<std::pair<int, std::int64_t>, LockState> locks;
  std::map<std::pair<int, std::int64_t>, VectorClock> atomic_vc;
  LockState reduction_lock;

  // ordered constructs, keyed by the worksharing loop.
  std::map<const void*, OrderedLoopState> ordered;

  // tasks
  std::vector<VectorClock> finished_task_vcs;
  std::map<const VarDecl*, VectorClock> depend_out;
  std::map<const VarDecl*, VectorClock> depend_in_acc;
};

/// A lastprivate binding awaiting write-back from the last iteration.
struct LastSlot {
  const VarDecl* decl = nullptr;
  ObjRef priv;
  ObjRef shared_ref;
};

/// Per-logical-thread execution context.
struct ThreadCtx {
  int tid = 0;         // logical id for vector clocks
  int team_index = 0;  // OpenMP thread number within the team
  TeamState* team = nullptr;
  VectorClock vc;
  std::vector<Frame> frames;
  std::vector<VectorClock> my_task_vcs;
  std::map<const void*, int> single_visits;
  // ordered-loop bookkeeping while running a worksharing loop.
  OrderedLoopState* ordered_state = nullptr;
  std::int64_t cur_iter = 0;
  int no_yield_depth = 0;  // inside atomic: suppress preemption
  int call_depth = 0;      // nested user-function calls (kMaxCallDepth)
  std::vector<LastSlot> last_slots;
  Value ret;  // the value of the `return` that ended a chunk (Flow::Return)

  // VM register arena: bump-allocated frames for nested chunk
  // invocations. Sized once and never reallocated (live RegSpans hold
  // pointers into it).
  std::vector<Value> reg_arena;
  std::size_t reg_top = 0;
};

/// Hard cap on the per-ThreadCtx register arena; frames beyond it spill
/// to the heap. The actual arena is sized per module (a multiple of its
/// largest chunk frame), because a fresh ThreadCtx exists per worker per
/// parallel region and value-initializing a worst-case arena each time
/// dominated the VM's runtime.
constexpr std::size_t kRegArenaCap = 4096;

/// RAII register frame for one chunk invocation, carved from the
/// context's arena (or heap-allocated on overflow). `arena_size` is the
/// lazily-applied first-use size of the context's arena (live RegSpans
/// hold raw pointers into it, so it never grows afterwards).
struct RegSpan {
  ThreadCtx& ctx;
  std::size_t saved_top;
  Value* regs = nullptr;
  std::vector<Value> overflow;

  RegSpan(ThreadCtx& c, std::size_t need, std::size_t arena_size)
      : ctx(c), saved_top(c.reg_top) {
    if (ctx.reg_arena.empty()) ctx.reg_arena.resize(arena_size);
    if (ctx.reg_top + need <= ctx.reg_arena.size()) {
      regs = ctx.reg_arena.data() + ctx.reg_top;
      ctx.reg_top += need;
    } else {
      overflow.resize(need);
      regs = overflow.data();
    }
  }
  RegSpan(const RegSpan&) = delete;
  RegSpan& operator=(const RegSpan&) = delete;
  ~RegSpan() { ctx.reg_top = saved_top; }
};

}  // namespace

/// Everything the serial prefix can change, as it stood when `main`'s own
/// chunk was about to fork its first team.
struct PrefixSnapshot::State {
  /// The run options that shape the prefix: all but the schedule fields.
  struct Key {
    const bc::Module* module = nullptr;
    int num_threads = 0;
    int preempt_every = 0;
    std::uint64_t step_limit = 0;
    std::size_t max_output = 0;
    int max_pairs = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };
  static Key key_of(const RunOptions& o) {
    return {o.module,     o.num_threads, o.preempt_every,
            o.step_limit, o.max_output,  o.max_pairs};
  }

  Key key;
  const bc::Chunk* chunk = nullptr;  // main's own chunk
  std::size_t pc = 0;                // its ExecStmt that forks the team
  /// main's context without its register arena; the arena's one live
  /// frame, main's, is `regs`, which a resumed run puts back at the
  /// bottom of a fresh arena.
  ThreadCtx main;
  std::vector<Value> regs;
  Memory mem;  // objects with their shadow cells, string literals included
  std::string output;
  std::map<const void*, ObjRef> string_cache;
  std::map<std::pair<int, std::int64_t>, LockState> global_locks;
  std::uint64_t rand_state = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t serial_steps = 0;
  std::uint64_t silent_back_edges = 0;
  int next_tid = 0;
  int num_threads = 0;  // after any omp_set_num_threads
};

PrefixSnapshot::PrefixSnapshot() = default;
PrefixSnapshot::~PrefixSnapshot() = default;

namespace {

/// A pending reduction: combine `priv` into `shared_ref` with `op`.
struct PendingReduction {
  const VarDecl* decl = nullptr;
  std::string op;
  ObjRef priv;
  ObjRef shared_ref;
};

/// Result of applying data-sharing clauses at construct entry.
struct ClauseResult {
  std::vector<PendingReduction> reductions;
  int last_slots_pushed = 0;
};

/// Signals `exit(n)` unwinding the whole program.
struct ExitSignal {
  int code = 0;
};

struct LoopBounds {
  const VarDecl* induction = nullptr;
  std::int64_t first = 0;
  std::int64_t count = 0;  // number of iterations
  std::int64_t step = 1;
};

Value identity_for(const std::string& op, bool floating) {
  if (op == "*") return floating ? Value::of_double(1.0) : Value::of_int(1);
  if (op == "&") return Value::of_int(-1);
  if (op == "&&") return Value::of_int(1);
  if (op == "min") {
    return floating ? Value::of_double(std::numeric_limits<double>::infinity())
                    : Value::of_int(std::numeric_limits<std::int64_t>::max());
  }
  if (op == "max") {
    return floating
               ? Value::of_double(-std::numeric_limits<double>::infinity())
               : Value::of_int(std::numeric_limits<std::int64_t>::min());
  }
  // +, -, |, ^, ||
  return floating ? Value::of_double(0.0) : Value::of_int(0);
}

Value combine_for(const std::string& op, const Value& a, const Value& b,
                  bool floating) {
  if (floating) {
    const double x = a.as_double();
    const double y = b.as_double();
    if (op == "+") return Value::of_double(x + y);
    if (op == "-") return Value::of_double(x + y);  // OpenMP `-` sums too
    if (op == "*") return Value::of_double(x * y);
    if (op == "min") return Value::of_double(std::min(x, y));
    if (op == "max") return Value::of_double(std::max(x, y));
    if (op == "&&") return Value::of_int((x != 0.0 && y != 0.0) ? 1 : 0);
    if (op == "||") return Value::of_int((x != 0.0 || y != 0.0) ? 1 : 0);
    return Value::of_double(x + y);
  }
  const std::int64_t x = a.as_int();
  const std::int64_t y = b.as_int();
  if (op == "+") return Value::of_int(int_add(x, y));
  if (op == "-") return Value::of_int(int_add(x, y));
  if (op == "*") return Value::of_int(int_mul(x, y));
  if (op == "&") return Value::of_int(x & y);
  if (op == "|") return Value::of_int(x | y);
  if (op == "^") return Value::of_int(x ^ y);
  if (op == "&&") return Value::of_int((x != 0 && y != 0) ? 1 : 0);
  if (op == "||") return Value::of_int((x != 0 || y != 0) ? 1 : 0);
  if (op == "min") return Value::of_int(std::min(x, y));
  if (op == "max") return Value::of_int(std::max(x, y));
  return Value::of_int(int_add(x, y));
}

/// Signals a `return` unwinding out of an OpenMP construct's handler to
/// the enclosing function call (see Flow).
struct ReturnSignal {
  Value value;
};

/// The value of an integer `/` or `%`; faults on a zero divisor or an
/// unrepresentable quotient.
std::int64_t quotient_or_fault(IntQuotient q, const char* zero_divisor) {
  if (q.ok()) return q.value;
  throw RuntimeFault(q.status == IntQuotient::Status::ZeroDivisor
                         ? zero_divisor
                         : "integer division overflow");
}

/// Faults on a body, expression or task the module has no compiled form
/// for.
[[noreturn]] void missing_from_module(const char* what, SourceLoc loc) {
  throw RuntimeFault("bytecode module has no " + std::string(what) +
                     " at line " + std::to_string(loc.line) + ":" +
                     std::to_string(loc.col));
}

/// `a * b` as an element count; faults when the product overflows.
std::int64_t element_count(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    throw RuntimeFault(
        "allocation too large for the interpreter: element count overflows");
  }
  return out;
}

class Interp {
 public:
  Interp(const TranslationUnit& tu, const analysis::Resolution& res,
         const RunOptions& opts)
      : tu_(tu),
        res_(res),
        opts_(opts),
        module_(*opts.module),
        reg_arena_size_(std::min(
            kRegArenaCap,
            std::max<std::size_t>(
                64, 4 * static_cast<std::size_t>(module_.max_frame)))),
        prefix_key_(PrefixSnapshot::State::key_of(opts)) {}

  RunResult run() {
    RunResult result;
    const PrefixSnapshot::State* snap =
        opts_.prefix != nullptr ? opts_.prefix->state.get() : nullptr;
    try {
      ThreadCtx main_ctx;
      Value ret = Value::of_int(0);
      try {
        ret = snap != nullptr && snap->key == prefix_key_
                  ? resume_main(main_ctx, *snap)
                  : run_main(main_ctx);
      } catch (ReturnSignal& sig) {
        ret = sig.value;  // a `return` inside an OpenMP construct
      } catch (const ExitSignal& sig) {
        ret = Value::of_int(sig.code);
      }
      result.exit_code = static_cast<int>(ret.as_int());
    } catch (const Error& e) {
      result.faulted = true;
      result.fault_message = e.what();
    }
    result.report = std::move(report_);
    result.report.race_detected = !result.report.pairs.empty();
    result.output = std::move(output_);
    result.steps = steps_total_;
    // Assembled on the fault path too: a step-budget abort must still
    // surface the decision prefix and the coverage observed so far.
    result.trace = std::move(trace_);
    result.coverage.assign(coverage_.begin(), coverage_.end());
    return result;
  }

 private:
  // ------------------------------------------------------------ main

  /// Runs the globals' initializers, then main from its first statement;
  /// returns main's value. While the run's prefix snapshot is empty,
  /// main's own chunk offers each of its ExecStmts to capture_prefix.
  Value run_main(ThreadCtx& main_ctx) {
    main_ctx.tid = next_tid_++;
    main_ctx.vc.set(main_ctx.tid, 1);
    main_ctx.frames.emplace_back();
    // A global initializer may call exit() too.
    run_chunk(main_ctx, module_.chunks[module_.globals]);
    const FunctionDecl* main_fn = tu_.find_function("main");
    if (main_fn == nullptr || !main_fn->body) {
      throw RuntimeFault("program has no main()");
    }
    // main's argc/argv (argc = 1, argv unused).
    main_ctx.frames.emplace_back();
    for (const auto& p : main_fn->params) {
      declare_param(main_ctx, *p,
                    p->type.is_pointer() ? Value::of_ptr({})
                                         : Value::of_int(1));
    }
    const bc::Chunk& body = chunk_for(*main_fn->body);
    if (opts_.prefix != nullptr && opts_.prefix->state == nullptr) {
      capture_chunk_ = &body;
    }
    return main_value(main_ctx, run_chunk(main_ctx, body));
  }

  /// Puts back the state `snap` holds and runs main on from the ExecStmt
  /// it was taken at; returns main's value.
  Value resume_main(ThreadCtx& main_ctx, const PrefixSnapshot::State& snap) {
    static obs::Counter& restores =
        obs::metrics().counter(obs::kVmPrefixRestores);
    static obs::Counter& steps_reused =
        obs::metrics().counter(obs::kVmPrefixStepsReused);
    restores.add();
    steps_reused.add(snap.steps_total);
    mem_ = snap.mem;
    output_ = snap.output;
    string_cache_ = snap.string_cache;
    global_locks_ = snap.global_locks;
    rand_state_ = snap.rand_state;
    steps_total_ = snap.steps_total;
    serial_steps_ = snap.serial_steps;
    silent_back_edges_ = snap.silent_back_edges;
    next_tid_ = snap.next_tid;
    opts_.num_threads = snap.num_threads;
    main_ctx = snap.main;
    RegSpan span(main_ctx, snap.chunk->frame_size(), reg_arena_size_);
    std::copy(snap.regs.begin(), snap.regs.end(), span.regs);
    const Flow flow =
        run_chunk_frame(main_ctx, *snap.chunk, span.regs, snap.pc);
    return main_value(main_ctx, flow);
  }

  /// main's value: what its `return` returned, or 0 when it ran off its
  /// end.
  static Value main_value(const ThreadCtx& main_ctx, Flow flow) {
    return flow == Flow::Return ? main_ctx.ret : Value::of_int(0);
  }

  /// Offered each ExecStmt of main's own chunk (`ch`, at `pc`) while the
  /// run's prefix snapshot is empty. Captures the run when the statement
  /// forks the run's first team from main's top level; stops looking once
  /// any team was forked.
  void capture_prefix(const ThreadCtx& ctx, const OmpStmt& s,
                      const bc::Chunk& ch, const Value* regs, std::size_t pc) {
    if (ctx.call_depth != 0) return;  // main called from the program
    if (region_counter_ != 0) {
      capture_chunk_ = nullptr;
      return;
    }
    if (!forks_team(s.directive.kind)) return;
    capture_chunk_ = nullptr;
    auto snap = std::make_unique<PrefixSnapshot::State>();
    snap->key = prefix_key_;
    snap->chunk = &ch;
    snap->pc = pc;
    snap->main = ctx;
    snap->main.reg_arena = {};
    snap->main.reg_top = 0;
    snap->regs.assign(regs, regs + ch.frame_size());
    snap->mem = mem_;
    snap->output = output_;
    snap->string_cache = string_cache_;
    snap->global_locks = global_locks_;
    snap->rand_state = rand_state_;
    snap->steps_total = steps_total_;
    snap->serial_steps = serial_steps_;
    snap->silent_back_edges = silent_back_edges_;
    snap->next_tid = next_tid_;
    snap->num_threads = opts_.num_threads;
    opts_.prefix->state = std::move(snap);
  }

  // ------------------------------------------------------------ environment

  /// Allocates the object of declaration `d` (zero-filled, in elements)
  /// and binds it in the innermost frame.
  ObjRef declare_object(ThreadCtx& ctx, const VarDecl& d,
                        std::vector<std::int64_t> dims, std::int64_t count) {
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    const Value init = d.type.is_pointer() ? Value::of_ptr({})
                       : is_float          ? Value::of_double(0.0)
                                           : Value::of_int(0);
    const int obj = mem_.allocate(d.name, &d, std::move(dims), count, init,
                                  /*thread_local_object=*/ctx.team != nullptr);
    mem_.object(obj).elem_float = is_float;
    const ObjRef slot{obj, 0};
    ctx.frames.back()[&d] = slot;
    return slot;
  }

  void declare_param(ThreadCtx& ctx, const VarDecl& d, Value v) {
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    const int obj = mem_.allocate(d.name, &d, {}, 1,
                                  is_float ? Value::of_double(0.0)
                                           : Value::of_int(0),
                                  true);
    mem_.object(obj).elem_float = is_float;
    store_raw(obj, 0, v);
    ctx.frames.back()[&d] = ObjRef{obj, 0};
  }

  [[nodiscard]] ObjRef lookup(const ThreadCtx& ctx, const VarDecl* d) const {
    for (auto it = ctx.frames.rbegin(); it != ctx.frames.rend(); ++it) {
      auto found = it->find(d);
      if (found != it->end()) return found->second;
    }
    throw RuntimeFault("unbound variable '" + (d ? d->name : "?") + "'");
  }

  [[nodiscard]] std::pair<const VarDecl*, ObjRef> find_by_name(
      const ThreadCtx& ctx, const std::string& name) const {
    for (auto it = ctx.frames.rbegin(); it != ctx.frames.rend(); ++it) {
      for (const auto& [decl, ref] : *it) {
        if (decl->name == name) return {decl, ref};
      }
    }
    throw RuntimeFault("clause names unknown variable '" + name + "'");
  }

  // ------------------------------------------------------------ shadow/race

  void note_step(ThreadCtx& ctx) {
    silent_back_edges_ = 0;
    if (ctx.team != nullptr && ctx.team->sched != nullptr &&
        ctx.no_yield_depth == 0) {
      ctx.team->sched->yield_point();
    } else {
      ++serial_steps_;
      if (serial_steps_ > opts_.step_limit) {
        throw RuntimeFault("serial step limit exceeded (infinite loop?)");
      }
    }
    ++steps_total_;
  }

  /// A loop back-edge, a worksharing iteration or a user call. A run of
  /// them with no instrumented access between (which would count a step)
  /// faults at kMaxSilentBackEdges, so a loop that touches no memory
  /// cannot hang the run.
  void note_back_edge() {
    if (++silent_back_edges_ > kMaxSilentBackEdges) {
      throw RuntimeFault("silent loop limit exceeded: " +
                         std::to_string(kMaxSilentBackEdges) +
                         " back-edges without a memory access");
    }
  }

  /// Interleaving-coverage signature: for every shared access we hash its
  /// source site; when consecutive shared accesses come from different
  /// logical threads we record both the ordered site pair (which
  /// cross-thread orderings ran) and the switched-to site (where a
  /// context switch was observed to land). The exploration engine unions
  /// these sets across schedules to measure how much new interleaving
  /// behaviour each schedule bought.
  void note_coverage(const ThreadCtx& ctx, SourceLoc loc, bool write) {
    if (!opts_.collect_coverage || ctx.team == nullptr) return;
    const std::uint64_t site = hash_combine(
        mix64((static_cast<std::uint64_t>(loc.line) << 24) ^
              static_cast<std::uint64_t>(loc.col)),
        write ? 2u : 1u);
    if (cov_last_tid_ >= 0 && cov_last_tid_ != ctx.tid) {
      coverage_.insert(hash_combine(cov_last_site_, site));
      coverage_.insert(mix64(site ^ 0x70726565'6d707440ULL));
    }
    cov_last_tid_ = ctx.tid;
    cov_last_site_ = site;
  }

  void report_race(const AccessStamp& prev, char prev_op,
                   const std::string* cur_text, SourceLoc cur_loc,
                   char cur_op, const MemObject& obj) {
    if (static_cast<int>(report_.pairs.size()) >= opts_.max_pairs) return;
    analysis::RaceAccess a;
    a.expr_text = *prev.text;
    a.var_name = obj.decl != nullptr ? obj.decl->name : obj.name;
    a.loc = prev.loc;
    a.op = prev_op;
    analysis::RaceAccess b;
    b.expr_text = *cur_text;
    b.var_name = a.var_name;
    b.loc = cur_loc;
    b.op = cur_op;
    analysis::RacePair pair;
    // Writer first (DRB convention).
    if (cur_op == 'w' && prev_op != 'w') {
      pair.first = b;
      pair.second = a;
    } else {
      pair.first = a;
      pair.second = b;
    }
    pair.note = "dynamic: unordered accesses (happens-before violation)";
    report_.add_pair(std::move(pair));
  }

  /// Instrumented read of `ref`. `text` must outlive the run (see
  /// AccessStamp).
  void on_read_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                  SourceLoc loc) {
    note_step(ctx);
    mem_.check_bounds(ref);
    MemObject& obj = mem_.object(ref.object);
    if (obj.thread_local_object) return;
    note_coverage(ctx, loc, /*write=*/false);
    ShadowCell& cell = obj.shadow[static_cast<std::size_t>(ref.offset)];
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'r', obj);
    }
    // About to promote the read epoch? Move its provenance into the
    // per-tid map first so the shared-mode write check can find it.
    if (!cell.reads.shared() && cell.reads.epoch().valid() &&
        cell.reads.epoch().tid != ctx.tid) {
      cell.last_reads[cell.reads.epoch().tid] = cell.read_stamp;
    }
    cell.reads.record(ctx.tid, ctx.vc.get(ctx.tid));
    const AccessStamp stamp{text, loc, ctx.tid};
    if (cell.reads.shared()) {
      cell.last_reads[ctx.tid] = stamp;
    } else {
      cell.read_stamp = stamp;
    }
  }

  /// Instrumented write of `ref`; `text` as for on_read_at.
  void on_write_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                   SourceLoc loc) {
    note_step(ctx);
    mem_.check_bounds(ref);
    MemObject& obj = mem_.object(ref.object);
    if (obj.thread_local_object) return;
    note_coverage(ctx, loc, /*write=*/true);
    ShadowCell& cell = obj.shadow[static_cast<std::size_t>(ref.offset)];
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'w', obj);
    }
    if (!cell.reads.leq(ctx.vc)) {
      if (cell.reads.shared()) {
        for (const auto& [tid, stamp] : cell.last_reads) {
          if (tid == ctx.tid) continue;
          if (cell.reads.get(tid) > ctx.vc.get(tid)) {
            report_race(stamp, 'r', text, loc, 'w', obj);
          }
        }
      } else {
        // Epoch mode with an unordered read: the reader is necessarily a
        // different thread (a thread's own reads are always <= its clock).
        report_race(cell.read_stamp, 'r', text, loc, 'w', obj);
      }
    }
    cell.write = Epoch{ctx.tid, ctx.vc.get(ctx.tid)};
    cell.last_write = AccessStamp{text, loc, ctx.tid};
    cell.reads.clear();
    cell.last_reads.clear();
  }

  // ------------------------------------------------------------ locks

  void acquire(ThreadCtx& ctx, LockState& lock) {
    if (ctx.team != nullptr && ctx.team->sched != nullptr) {
      ctx.team->sched->block_until([&] { return !lock.held; });
    } else if (lock.held) {
      throw RuntimeFault("self-deadlock on lock");
    }
    lock.held = true;
    ctx.vc.join(lock.vc);
  }

  void release(ThreadCtx& ctx, LockState& lock) {
    lock.vc = ctx.vc;
    ctx.vc.tick(ctx.tid);
    lock.held = false;
  }

  void team_barrier(ThreadCtx& ctx) {
    TeamState& team = *ctx.team;
    // Tasks complete at barriers.
    for (const auto& v : ctx.my_task_vcs) ctx.vc.join(v);
    ctx.my_task_vcs.clear();
    team.bar_acc.join(ctx.vc);
    ++team.bar_arrived;
    if (team.bar_arrived >= team.sched->live()) {
      team.bar_result = team.bar_acc;
      team.bar_acc = VectorClock{};
      team.bar_arrived = 0;
    }
    team.sched->barrier_wait();
    ctx.vc.join(team.bar_result);
    ctx.vc.tick(ctx.tid);
  }

  // ------------------------------------------------------------ values

  /// Flattened element offset of a subscript chain on `obj`: row-major
  /// multi-dim indexing with the interpreter's partial-index conventions.
  /// `indices` are in source order (outermost dimension first).
  [[nodiscard]] static std::int64_t subscript_offset(
      const MemObject& obj, ObjRef base, const std::int64_t* indices,
      std::size_t count) {
    std::int64_t offset = base.offset;
    if (!obj.dims.empty() && count > 1) {
      // Row-major multi-dim indexing. Fewer indices than dimensions
      // address the innermost ones; more indices than dimensions map the
      // first ones to the dimensions, and the extra ones have stride 1.
      // A dimension's stride is the product of the dimensions inside it,
      // built up from the innermost (the operators wrap, so the order of
      // the sums and products does not matter).
      const std::size_t mapped = std::min(obj.dims.size(), count);
      const std::size_t first_dim = obj.dims.size() - mapped;
      for (std::size_t i = mapped; i < count; ++i) {
        offset = int_add(offset, indices[i]);
      }
      std::int64_t stride = 1;
      for (std::size_t i = mapped; i-- > 0;) {
        offset = int_add(offset, int_mul(indices[i], stride));
        stride = int_mul(stride, obj.dims[first_dim + i]);
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        offset = int_add(offset, indices[i]);
      }
      if (!obj.dims.empty() && count == 1 && obj.dims.size() > 1) {
        // a[i] on a 2-D array: scale by the row stride.
        std::int64_t stride = 1;
        for (std::size_t i = 1; i < obj.dims.size(); ++i) {
          stride = int_mul(stride, obj.dims[i]);
        }
        offset = int_add(base.offset, int_mul(indices[0], stride));
      }
    }
    return offset;
  }

  void store_raw(int obj, std::int64_t offset, Value v) {
    MemObject& o = mem_.object(obj);
    // Coerce to the element type (heap objects are untyped).
    if (!v.is_ptr() && !o.elem_any) {
      v = o.elem_float ? Value::of_double(v.as_double())
                       : Value::of_int(v.as_int());
    }
    mem_.store(ObjRef{obj, offset}, v);
  }

  /// Strict (non-short-circuit) binary operator on already-evaluated
  /// operands (the VM's BinOp).
  static Value eval_binop_values(Value l, Value r, BinaryOp op) {
    // Pointer arithmetic.
    if (l.is_ptr() || r.is_ptr()) {
      if (op == BinaryOp::Add) {
        ObjRef p = l.is_ptr() ? l.as_ptr() : r.as_ptr();
        const std::int64_t k = l.is_ptr() ? r.as_int() : l.as_int();
        return Value::of_ptr({p.object, int_add(p.offset, k)});
      }
      if (op == BinaryOp::Sub && l.is_ptr() && !r.is_ptr()) {
        ObjRef p = l.as_ptr();
        return Value::of_ptr({p.object, int_sub(p.offset, r.as_int())});
      }
      if (op == BinaryOp::Sub && l.is_ptr() && r.is_ptr()) {
        return Value::of_int(int_sub(l.as_ptr().offset, r.as_ptr().offset));
      }
      if (op == BinaryOp::Eq) {
        return Value::of_int(l.as_ptr() == r.as_ptr() ? 1 : 0);
      }
      if (op == BinaryOp::Ne) {
        return Value::of_int(l.as_ptr() == r.as_ptr() ? 0 : 1);
      }
    }

    const bool fl = l.kind() == Value::Kind::Double ||
                    r.kind() == Value::Kind::Double;
    if (fl) {
      const double x = l.as_double();
      const double y = r.as_double();
      switch (op) {
        case BinaryOp::Add: return Value::of_double(x + y);
        case BinaryOp::Sub: return Value::of_double(x - y);
        case BinaryOp::Mul: return Value::of_double(x * y);
        case BinaryOp::Div: return Value::of_double(x / y);
        case BinaryOp::Lt: return Value::of_int(x < y ? 1 : 0);
        case BinaryOp::Gt: return Value::of_int(x > y ? 1 : 0);
        case BinaryOp::Le: return Value::of_int(x <= y ? 1 : 0);
        case BinaryOp::Ge: return Value::of_int(x >= y ? 1 : 0);
        case BinaryOp::Eq: return Value::of_int(x == y ? 1 : 0);
        case BinaryOp::Ne: return Value::of_int(x != y ? 1 : 0);
        default:
          throw RuntimeFault("invalid floating operation");
      }
    }
    const std::int64_t x = l.as_int();
    const std::int64_t y = r.as_int();
    switch (op) {
      case BinaryOp::Lt: return Value::of_int(x < y ? 1 : 0);
      case BinaryOp::Gt: return Value::of_int(x > y ? 1 : 0);
      case BinaryOp::Le: return Value::of_int(x <= y ? 1 : 0);
      case BinaryOp::Ge: return Value::of_int(x >= y ? 1 : 0);
      case BinaryOp::Eq: return Value::of_int(x == y ? 1 : 0);
      case BinaryOp::Ne: return Value::of_int(x != y ? 1 : 0);
      case BinaryOp::LogicalAnd:
      case BinaryOp::LogicalOr:
      case BinaryOp::Comma:
        throw RuntimeFault("unsupported binary operator");
      default:
        return int_binop(x, y, op);
    }
  }

  /// The arithmetic and bitwise integer operators, with Mini-C's
  /// semantics (minic/int_ops.hpp).
  static Value int_binop(std::int64_t x, std::int64_t y, BinaryOp op) {
    switch (op) {
      case BinaryOp::Add: return Value::of_int(int_add(x, y));
      case BinaryOp::Sub: return Value::of_int(int_sub(x, y));
      case BinaryOp::Mul: return Value::of_int(int_mul(x, y));
      case BinaryOp::Div:
        return Value::of_int(
            quotient_or_fault(int_div(x, y), "integer division by zero"));
      case BinaryOp::Mod:
        return Value::of_int(
            quotient_or_fault(int_mod(x, y), "integer modulo by zero"));
      case BinaryOp::Shl: return Value::of_int(int_shl(x, y));
      case BinaryOp::Shr: return Value::of_int(int_shr(x, y));
      case BinaryOp::BitAnd: return Value::of_int(x & y);
      case BinaryOp::BitOr: return Value::of_int(x | y);
      case BinaryOp::BitXor: return Value::of_int(x ^ y);
      default: return Value::of_int(int_add(x, y));
    }
  }

  /// Compound-assignment combine of the old value and the right-hand side
  /// (the VM's ApplyBin).
  static Value apply_binop(Value l, Value r, BinaryOp op) {
    if (l.is_ptr() && op == BinaryOp::Add) {
      return Value::of_ptr(
          {l.as_ptr().object, int_add(l.as_ptr().offset, r.as_int())});
    }
    if (l.is_ptr() && op == BinaryOp::Sub) {
      return Value::of_ptr(
          {l.as_ptr().object, int_sub(l.as_ptr().offset, r.as_int())});
    }
    const bool fl = l.kind() == Value::Kind::Double ||
                    r.kind() == Value::Kind::Double;
    if (fl) {
      const double x = l.as_double();
      const double y = r.as_double();
      switch (op) {
        case BinaryOp::Add: return Value::of_double(x + y);
        case BinaryOp::Sub: return Value::of_double(x - y);
        case BinaryOp::Mul: return Value::of_double(x * y);
        case BinaryOp::Div: return Value::of_double(x / y);
        default: return Value::of_double(x + y);
      }
    }
    return int_binop(l.as_int(), r.as_int(), op);
  }

  [[nodiscard]] ObjRef string_object(const StringLit& s) {
    auto it = string_cache_.find(&s);
    if (it != string_cache_.end()) return it->second;
    const std::int64_t n = static_cast<std::int64_t>(s.value.size()) + 1;
    const int obj = mem_.allocate("<string>", nullptr, {}, n,
                                  Value::of_int(0), true);
    for (std::size_t i = 0; i < s.value.size(); ++i) {
      mem_.store(ObjRef{obj, static_cast<std::int64_t>(i)},
                 Value::of_int(s.value[i]));
    }
    ObjRef ref{obj, 0};
    string_cache_[&s] = ref;
    return ref;
  }

  /// Calls a user-defined function with already-evaluated arguments (the
  /// VM's CallUser); faults past kMaxCallDepth nested calls. Defined in
  /// interp_builtins.inc.
  Value invoke_user(ThreadCtx& ctx, const FunctionDecl& fn,
                    std::vector<Value> args);
  /// Runs a builtin (the VM's CallBuiltin). Defined in interp_builtins.inc.
  Value call_builtin(ThreadCtx& ctx, const bc::BuiltinCall& call);

  // ------------------------------------------------------------ vm
  // Defined in interp_vm.inc.

  /// Executes a structured body as its compiled chunk. Every body-level
  /// entry point (function bodies, OpenMP construct bodies, sections
  /// children) routes through here.
  Flow exec_body(ThreadCtx& ctx, const Stmt& s);
  /// The compiled chunk of body `s`; faults, naming the body, when the
  /// module has none.
  [[nodiscard]] const bc::Chunk& chunk_for(const Stmt& s) const;
  /// Evaluates `e` through its expression chunk; faults, naming the
  /// expression, when the module has none.
  Value run_expr(ThreadCtx& ctx, const Expr& e);
  Flow run_chunk(ThreadCtx& ctx, const bc::Chunk& ch, Value* result = nullptr);
  /// Runs `ch` on the register frame `regs` from instruction `pc`.
  Flow run_chunk_frame(ThreadCtx& ctx, const bc::Chunk& ch, Value* regs,
                       std::size_t pc = 0);
  [[nodiscard]] ObjRef cached_slot(const ThreadCtx& ctx, Value* regs,
                                   const bc::Chunk& ch,
                                   const bc::AccessSite& site);

  // ------------------------------------------------------------ OpenMP

  /// The constructs exec_omp forks a team for outside any team.
  static bool forks_team(OmpDirectiveKind kind);
  Flow exec_omp(ThreadCtx& ctx, const OmpStmt& s);
  Flow run_body(ThreadCtx& ctx, const OmpStmt& s);
  void exec_parallel_region(ThreadCtx& parent, const OmpStmt& s);
  void exec_region_worker(ThreadCtx& worker, const OmpStmt& s);
  void exec_worksharing_loop(ThreadCtx& ctx, const OmpStmt& s,
                             bool simd_chunked);
  void exec_sections(ThreadCtx& ctx, const OmpStmt& s);
  void exec_task(ThreadCtx& ctx, const OmpStmt& s);
  [[nodiscard]] LoopBounds eval_loop_bounds(ThreadCtx& ctx,
                                            const ForStmt& loop);
  ClauseResult apply_data_clauses(ThreadCtx& ctx, const OmpDirective& dir);
  void pop_data_clauses(ThreadCtx& ctx, const ClauseResult& cr);
  void finish_reductions(ThreadCtx& ctx,
                         const std::vector<PendingReduction>& reds);
  void capture_lastprivate(ThreadCtx& ctx, SourceLoc loc);
  [[nodiscard]] ObjRef clone_object(ObjRef src, const VarDecl* decl,
                                    bool copy_values);
  [[nodiscard]] ObjRef get_threadprivate(const VarDecl* decl, int team_index,
                                         ObjRef master);

  // ------------------------------------------------------------ io

  void do_printf(ThreadCtx& ctx, const Call& c, std::size_t first_arg);
  [[nodiscard]] std::string read_cstring(ObjRef ref) const;
  void output_append(const std::string& s);

  const TranslationUnit& tu_;
  const analysis::Resolution& res_;
  RunOptions opts_;
  Memory mem_;
  std::string output_;
  analysis::RaceReport report_;
  int next_tid_ = 0;
  std::uint64_t steps_total_ = 0;
  std::uint64_t serial_steps_ = 0;
  int region_counter_ = 0;
  ScheduleTrace trace_;
  std::set<std::uint64_t> coverage_;
  int cov_last_tid_ = -1;
  std::uint64_t cov_last_site_ = 0;
  std::map<const void*, ObjRef> string_cache_;
  std::map<std::pair<const VarDecl*, int>, ObjRef> threadprivate_;
  std::map<std::pair<int, std::int64_t>, LockState> global_locks_;
  std::uint64_t silent_back_edges_ = 0;  // since the last note_step
  std::uint64_t rand_state_ = 0x853c49e6748fea9bULL;
  const bc::Module& module_;        // verified bytecode for tu_
  std::size_t reg_arena_size_ = 0;  // per-ThreadCtx arena first-use size
  const PrefixSnapshot::State::Key prefix_key_;  // from the options as given
  /// main's own chunk while the run's prefix snapshot is empty.
  const bc::Chunk* capture_chunk_ = nullptr;
};

// Implementation of the OpenMP construct handlers and builtin calls lives
// in textually included units to keep file sizes manageable. They define
// further members of Interp and must stay inside this anonymous namespace.
#include "runtime/interp_builtins.inc"
#include "runtime/interp_omp.inc"
#include "runtime/interp_vm.inc"

}  // namespace

RunResult run_program(const TranslationUnit& unit,
                      const analysis::Resolution& res,
                      const RunOptions& opts) {
  RunOptions o = opts;
  std::unique_ptr<bc::Module> owned;
  if (o.module == nullptr) {
    // One-shot caller: compile (and verify) for this run only.
    owned = std::make_unique<bc::Module>(bc::compile_verified(unit));
    o.module = owned.get();
  } else if (!o.module->verified) {
    throw Error(
        "bytecode module is not verified; refusing to execute "
        "(pass it through bc::verify or use bc::compile_verified)");
  }
  static obs::Counter& runs = obs::metrics().counter(obs::kVmRuns);
  runs.add();
  Interp interp(unit, res, o);
  return interp.run();
}

}  // namespace drbml::runtime
