#include "runtime/interp.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string_view>

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

/// How a chunk ended. Return leaves the returned value in ThreadCtx::ret;
/// a `return` in the body of an OpenMP construct unwinds out of the
/// construct's handler as a ReturnSignal instead (exec_body).
enum class Flow { Normal, Break, Continue, Return };

// Hashes of SmallMap keys.
std::uint64_t key_hash(const void* p) {
  return mix64(reinterpret_cast<std::uintptr_t>(p));
}
std::uint64_t key_hash(std::int64_t v) {
  return mix64(static_cast<std::uint64_t>(v));
}
std::uint64_t key_hash(std::string_view s) { return fnv1a64(s); }
template <class A, class B>
std::uint64_t key_hash(const std::pair<A, B>& k) {
  return hash_combine(key_hash(k.first), key_hash(k.second));
}

/// A map of a run's few synchronization objects and caches, as a vector of
/// (key, value) pairs in insertion order: a lookup scans it, or, past
/// kScan entries, an open-addressing index over it. clear() and
/// copy-assignment keep the capacity, so the next run reuses it. An
/// insertion may move every value, so anything held across a yield, a
/// nested construct or a call is an index (slot), not a reference.
template <class K, class V>
class SmallMap {
 public:
  /// The index of `key`'s value, inserted value-initialized when missing.
  std::size_t slot(const K& key) {
    if (const std::size_t i = index_of(key); i != kMissing) return i;
    items_.emplace_back(key, V{});
    if (!table_.empty() && 2 * items_.size() > table_.size()) {
      rehash(2 * table_.size());
    } else if (!table_.empty()) {
      insert_index(items_.size() - 1);
    } else if (items_.size() > kScan) {
      rehash(4 * kScan);
    }
    return items_.size() - 1;
  }
  V& operator[](const K& key) { return items_[slot(key)].second; }
  [[nodiscard]] V& at(std::size_t i) { return items_[i].second; }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = index_of(key);
    return i == kMissing ? nullptr : &items_[i].second;
  }
  void clear() noexcept {
    items_.clear();
    table_.clear();
  }

 private:
  static constexpr std::size_t kScan = 8;
  static constexpr std::size_t kMissing = ~std::size_t{0};

  [[nodiscard]] std::size_t index_of(const K& key) const {
    if (table_.empty()) {
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (items_[i].first == key) return i;
      }
      return kMissing;
    }
    const std::size_t mask = table_.size() - 1;
    for (std::size_t h = key_hash(key) & mask;; h = (h + 1) & mask) {
      const std::uint32_t e = table_[h];
      if (e == 0) return kMissing;
      if (items_[e - 1].first == key) return e - 1;
    }
  }
  void insert_index(std::size_t i) {
    const std::size_t mask = table_.size() - 1;
    std::size_t h = key_hash(items_[i].first) & mask;
    while (table_[h] != 0) h = (h + 1) & mask;
    table_[h] = static_cast<std::uint32_t>(i + 1);
  }
  void rehash(std::size_t size) {
    table_.assign(size, 0);
    for (std::size_t i = 0; i < items_.size(); ++i) insert_index(i);
  }

  std::vector<std::pair<K, V>> items_;
  std::vector<std::uint32_t> table_;  // item index + 1; 0 = empty
};

/// An OpenMP lock or the element it lives at: (object, offset).
using LockKey = std::pair<int, std::int64_t>;

struct LockState {
  bool held = false;
  VectorClock vc;
};

struct OrderedLoopState {
  std::int64_t next = 0;
  VectorClock vc;
};

/// Shared state of one thread team. One per team nesting level, reused by
/// every team forked at that level.
struct TeamState {
  int size = 1;
  CoopScheduler* sched = nullptr;
  const OmpStmt* construct = nullptr;  // the construct that forked it

  // Explicit/implicit barriers.
  VectorClock bar_acc;
  VectorClock bar_result;
  int bar_arrived = 0;

  // single construct claims: construct -> number of visits claimed.
  SmallMap<const void*, int> single_claimed;

  // critical sections by name; OpenMP locks by address; atomics by element.
  SmallMap<std::string_view, LockState> critical;
  SmallMap<LockKey, LockState> locks;
  SmallMap<LockKey, VectorClock> atomic_vc;
  LockState reduction_lock;

  // ordered constructs, keyed by the worksharing loop.
  SmallMap<const void*, OrderedLoopState> ordered;

  // tasks. An empty clock in depend_in_acc stands for no entry.
  std::vector<VectorClock> finished_task_vcs;
  SmallMap<const VarDecl*, VectorClock> depend_out;
  SmallMap<const VarDecl*, VectorClock> depend_in_acc;

  void reset(int n, CoopScheduler* s, const OmpStmt* c) {
    size = n;
    sched = s;
    construct = c;
    bar_acc.clear();
    bar_result.clear();
    bar_arrived = 0;
    single_claimed.clear();
    critical.clear();
    locks.clear();
    atomic_vc.clear();
    reduction_lock.held = false;
    reduction_lock.vc.clear();
    ordered.clear();
    finished_task_vcs.clear();
    depend_out.clear();
    depend_in_acc.clear();
  }
};

/// `n` values of T: inside the object up to N, on the heap past it. The
/// inline ones are default-initialized (an integer is left unset, as the
/// hot paths that use it write every element before reading it).
template <class T, std::size_t N>
class StackBuffer {
 public:
  explicit StackBuffer(std::size_t n) : size_(n) {
    if (n > N) heap_.resize(n);
  }
  StackBuffer(const StackBuffer&) = delete;
  StackBuffer& operator=(const StackBuffer&) = delete;

  [[nodiscard]] T* data() noexcept { return size_ > N ? heap_.data() : buf_; }
  [[nodiscard]] std::span<T> span() noexcept { return {data(), size_}; }

 private:
  std::size_t size_;
  T buf_[N];
  std::vector<T> heap_;
};

/// A pending reduction: combine `priv` into `shared_ref` with `op`.
struct PendingReduction {
  const VarDecl* decl = nullptr;
  const std::string* op = nullptr;  // the clause's operator
  ObjRef priv;
  ObjRef shared_ref;
};

/// A lastprivate binding awaiting write-back from the last iteration.
struct LastSlot {
  const VarDecl* decl = nullptr;
  ObjRef priv;
  ObjRef shared_ref;
};

/// A thread's variable bindings: one flat vector of (declaration, object)
/// pairs, cut into frames by start marks. Frame 0 holds the globals. A
/// user call hides its caller's frames: lookups see frame 0 and the
/// frames from `base` up. Within one frame a declaration is bound once.
struct Bindings {
  struct Binding {
    const VarDecl* decl = nullptr;
    ObjRef ref;
  };
  std::vector<Binding> items;
  std::vector<std::uint32_t> marks;  // start of each frame in `items`
  std::uint32_t base = 1;            // frames [1, base) are hidden

  void push() { marks.push_back(static_cast<std::uint32_t>(items.size())); }
  /// Pops the innermost frame; true when it held bindings.
  bool pop() {
    const std::uint32_t start = marks.back();
    marks.pop_back();
    const bool any = items.size() > start;
    items.resize(start);
    return any;
  }
  /// Binds `d` in the innermost frame, replacing a binding it has there.
  void bind(const VarDecl* d, ObjRef ref) {
    for (std::size_t i = marks.back(); i < items.size(); ++i) {
      if (items[i].decl == d) {
        items[i].ref = ref;
        return;
      }
    }
    items.push_back({d, ref});
  }
  [[nodiscard]] bool bound_innermost(const VarDecl* d) const {
    for (std::size_t i = marks.back(); i < items.size(); ++i) {
      if (items[i].decl == d) return true;
    }
    return false;
  }
  /// `d`'s binding in the innermost visible frame that has one.
  [[nodiscard]] const ObjRef* find(const VarDecl* d) const {
    const std::size_t low = base > 1 ? marks[base] : 0;
    for (std::size_t i = items.size(); i-- > low;) {
      if (items[i].decl == d) return &items[i].ref;
    }
    if (base > 1) {
      for (std::size_t i = marks[1]; i-- > 0;) {
        if (items[i].decl == d) return &items[i].ref;
      }
    }
    return nullptr;
  }
  /// The binding of a declaration named `name`: from the innermost visible
  /// frame that has one, the one with the lowest declaration address.
  [[nodiscard]] const Binding* find_by_name(const std::string& name) const {
    for (std::size_t f = marks.size(); f-- > 0;) {
      if (f >= 1 && f < base) continue;
      const std::size_t end =
          f + 1 < marks.size() ? marks[f + 1] : items.size();
      const Binding* best = nullptr;
      for (std::size_t i = marks[f]; i < end; ++i) {
        if (items[i].decl->name == name &&
            (best == nullptr ||
             std::less<const VarDecl*>{}(items[i].decl, best->decl))) {
          best = &items[i];
        }
      }
      if (best != nullptr) return best;
    }
    return nullptr;
  }
  void clear() noexcept {
    items.clear();
    marks.clear();
    base = 1;
  }
};

/// A fiber's register stack: bump-allocated frames for nested chunk
/// invocations. The arena is sized when no frame is live and never moves
/// while one is (live RegSpans hold pointers into it). Tasks run inline on
/// their spawner's stack.
struct RegStack {
  std::vector<Value> arena;
  std::size_t top = 0;
};

/// Per-logical-thread execution context.
struct ThreadCtx {
  int tid = 0;         // logical id for vector clocks
  int team_index = 0;  // OpenMP thread number within the team
  TeamState* team = nullptr;
  VectorClock vc;
  Bindings bindings;
  std::vector<VectorClock> my_task_vcs;
  SmallMap<const void*, int> single_visits;
  // ordered-loop bookkeeping while running a worksharing loop: the loop's
  // slot in team->ordered, or -1.
  std::int64_t ordered_state = -1;
  std::int64_t cur_iter = 0;
  int no_yield_depth = 0;  // inside atomic: suppress preemption
  int call_depth = 0;      // nested user-function calls (kMaxCallDepth)
  std::vector<PendingReduction> reductions;
  std::vector<LastSlot> last_slots;
  Value ret;  // the value of the `return` that ended a chunk (Flow::Return)
  RegStack* stack = nullptr;

  /// A fresh context on `regs`, keeping the buffers' capacity.
  void reset(RegStack* regs) {
    tid = 0;
    team_index = 0;
    team = nullptr;
    vc.clear();
    bindings.clear();
    my_task_vcs.clear();
    single_visits.clear();
    ordered_state = -1;
    cur_iter = 0;
    no_yield_depth = 0;
    call_depth = 0;
    reductions.clear();
    last_slots.clear();
    ret = Value();
    stack = regs;
  }
};

/// Hard cap on a register stack's arena; frames beyond it spill to the
/// heap. The arena is sized per module (a multiple of its largest chunk
/// frame), so a context does not pay for a worst-case arena.
constexpr std::size_t kRegArenaCap = 4096;

/// RAII register frame for one chunk invocation, carved from the context's
/// register stack (or heap-allocated on overflow). `arena_size` is the
/// module's arena size, applied while no frame is live.
struct RegSpan {
  RegStack& stack;
  std::size_t saved_top;
  Value* regs = nullptr;
  std::vector<Value> overflow;

  RegSpan(ThreadCtx& c, std::size_t need, std::size_t arena_size)
      : stack(*c.stack), saved_top(c.stack->top) {
    if (stack.top == 0 && stack.arena.size() < arena_size) {
      stack.arena.resize(arena_size);
    }
    if (stack.top + need <= stack.arena.size()) {
      regs = stack.arena.data() + stack.top;
      stack.top += need;
    } else {
      overflow.resize(need);
      regs = overflow.data();
    }
  }
  RegSpan(const RegSpan&) = delete;
  RegSpan& operator=(const RegSpan&) = delete;
  ~RegSpan() { stack.top = saved_top; }
};

/// Everything a run's serial prefix can change, as plain data: what a
/// prefix snapshot copies, and what a resumed run copies back.
struct RunState {
  Memory mem;
  ThreadCtx main;
  std::string output;
  SmallMap<const void*, ObjRef> strings;  // string literal -> its object
  SmallMap<LockKey, LockState> global_locks;
  SmallMap<std::pair<const VarDecl*, int>, ObjRef> threadprivate;
  std::uint64_t rand_state = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t serial_steps = 0;
  std::uint64_t silent_back_edges = 0;  // since the last note_step
  int next_tid = 0;
  int num_threads = 0;  // after any omp_set_num_threads

  /// The state a run starts from `main` with, keeping every capacity.
  void reset(int threads, RegStack* main_stack) {
    mem.clear();
    main.reset(main_stack);
    output.clear();
    strings.clear();
    global_locks.clear();
    threadprivate.clear();
    rand_state = 0x853c49e6748fea9bULL;
    steps_total = 0;
    serial_steps = 0;
    silent_back_edges = 0;
    next_tid = 0;
    num_threads = threads;
  }
};

/// What one team nesting level keeps between its teams: the team state,
/// the workers' contexts and register stacks, their jobs, the deciders and
/// the scheduler with its fibers.
struct TeamSlot {
  TeamState team;
  std::vector<ThreadCtx> workers;
  std::vector<RegStack> stacks;
  std::vector<std::function<void()>> jobs;
  Deciders deciders;
  // Handed each team's decider before the team runs.
  CoopScheduler sched{deciders.for_region(RunOptions{}, 0)};
};

}  // namespace

/// A run's reusable storage (see PrefixSnapshot::storage).
struct PrefixSnapshot::Storage {
  RunState state;
  RegStack main_stack;
  /// One per team nesting level, created on first use.
  std::vector<std::unique_ptr<TeamSlot>> teams;
  std::vector<std::uint64_t> coverage;  // unsorted; duplicates until dedup
  /// The run's teams, one per region it entered (PrefixSnapshot::regions).
  std::vector<TeamRecord> regions;
};

/// The run state as it stood when `main`'s own chunk was about to fork its
/// first team, with what resuming there takes.
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
  /// main's register frame, which a resumed run puts back at the bottom of
  /// main's register stack.
  std::vector<Value> regs;
  RunState run;
};

PrefixSnapshot::PrefixSnapshot() = default;
PrefixSnapshot::~PrefixSnapshot() = default;

std::span<const TeamRecord> PrefixSnapshot::regions() const {
  if (storage == nullptr) return {};
  return storage->regions;
}

bool same_prefix_options(const RunOptions& a, const RunOptions& b) {
  return PrefixSnapshot::State::key_of(a) == PrefixSnapshot::State::key_of(b);
}

namespace {

/// Result of applying data-sharing clauses at construct entry: the
/// construct's range of the context's pending reductions, and how many
/// lastprivate slots it pushed.
struct ClauseResult {
  std::size_t reductions_begin = 0;
  std::size_t reductions_end = 0;
  int last_slots_pushed = 0;
};

/// Signals `exit(n)` unwinding the whole program.
struct ExitSignal {
  int code = 0;
};

struct LoopBounds {
  const VarDecl* induction = nullptr;
  ObjRef slot;  // the induction variable's object
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
         const RunOptions& opts, PrefixSnapshot::Storage& storage)
      : tu_(tu),
        res_(res),
        opts_(opts),
        storage_(storage),
        st_(storage.state),
        mem_(storage.state.mem),
        coverage_(storage.coverage),
        regions_(storage.regions),
        module_(*opts.module),
        reg_arena_size_(std::min(
            kRegArenaCap,
            std::max<std::size_t>(
                64, 4 * static_cast<std::size_t>(module_.max_frame)))),
        prefix_key_(PrefixSnapshot::State::key_of(opts)) {
    coverage_.clear();
    regions_.clear();
  }

  RunResult run() {
    RunResult result;
    const PrefixSnapshot::State* snap =
        opts_.prefix != nullptr ? opts_.prefix->state.get() : nullptr;
    try {
      Value ret = Value::of_int(0);
      try {
        ret = snap != nullptr && snap->key == prefix_key_ ? resume_main(*snap)
                                                          : run_main();
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
    result.output = st_.output;
    result.steps = st_.steps_total;
    // Assembled on the fault path too: a step-budget abort must still
    // surface the decision prefix and the coverage observed so far.
    result.trace = std::move(trace_);
    dedup_coverage();
    result.coverage = coverage_;
    return result;
  }

 private:
  // ------------------------------------------------------------ main

  /// Runs the globals' initializers, then main from its first statement;
  /// returns main's value. While the run's prefix snapshot is empty,
  /// main's own chunk offers each of its ExecStmts to capture_prefix.
  Value run_main() {
    st_.reset(opts_.num_threads, &storage_.main_stack);
    storage_.main_stack.top = 0;
    ThreadCtx& main_ctx = st_.main;
    main_ctx.tid = st_.next_tid++;
    main_ctx.vc.set(main_ctx.tid, 1);
    main_ctx.bindings.push();
    // A global initializer may call exit() too.
    run_chunk(main_ctx, module_.chunks[module_.globals]);
    const FunctionDecl* main_fn = tu_.find_function("main");
    if (main_fn == nullptr || !main_fn->body) {
      throw RuntimeFault("program has no main()");
    }
    // main's argc/argv (argc = 1, argv unused).
    main_ctx.bindings.push();
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
  Value resume_main(const PrefixSnapshot::State& snap) {
    static obs::Counter& restores =
        obs::metrics().counter(obs::kVmPrefixRestores);
    static obs::Counter& steps_reused =
        obs::metrics().counter(obs::kVmPrefixStepsReused);
    restores.add();
    steps_reused.add(snap.run.steps_total);
    st_ = snap.run;  // into the previous run's capacity
    ThreadCtx& main_ctx = st_.main;
    main_ctx.stack = &storage_.main_stack;
    storage_.main_stack.top = 0;
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
    if (!regions_.empty()) {
      capture_chunk_ = nullptr;
      return;
    }
    if (!forks_team(s.directive.kind)) return;
    capture_chunk_ = nullptr;
    auto snap = std::make_unique<PrefixSnapshot::State>();
    snap->key = prefix_key_;
    snap->chunk = &ch;
    snap->pc = pc;
    snap->regs.assign(regs, regs + ch.frame_size());
    snap->run = st_;
    opts_.prefix->state = std::move(snap);
  }

  // ------------------------------------------------------------ environment

  /// Allocates the object of declaration `d` (zero-filled, in elements)
  /// and binds it in the innermost frame.
  ObjRef declare_object(ThreadCtx& ctx, const VarDecl& d,
                        std::span<const std::int64_t> dims,
                        std::int64_t count) {
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    const Value init = d.type.is_pointer() ? Value::of_ptr({})
                       : is_float          ? Value::of_double(0.0)
                                           : Value::of_int(0);
    const int obj = mem_.allocate(&d.name, &d, dims, count, init,
                                  /*thread_local_object=*/ctx.team != nullptr);
    mem_.object(obj).elem_float = is_float;
    const ObjRef slot{obj, 0};
    ctx.bindings.bind(&d, slot);
    return slot;
  }

  void declare_param(ThreadCtx& ctx, const VarDecl& d, Value v) {
    const bool is_float = d.type.is_floating() && !d.type.is_pointer();
    const int obj = mem_.allocate(&d.name, &d, {}, 1,
                                  is_float ? Value::of_double(0.0)
                                           : Value::of_int(0),
                                  true);
    mem_.object(obj).elem_float = is_float;
    mem_.store(ObjRef{obj, 0}, v);
    ctx.bindings.bind(&d, ObjRef{obj, 0});
  }

  [[nodiscard]] ObjRef lookup(const ThreadCtx& ctx, const VarDecl* d) const {
    if (const ObjRef* ref = ctx.bindings.find(d)) return *ref;
    throw RuntimeFault("unbound variable '" + (d ? d->name : "?") + "'");
  }

  [[nodiscard]] std::pair<const VarDecl*, ObjRef> find_by_name(
      const ThreadCtx& ctx, const std::string& name) const {
    if (const Bindings::Binding* b = ctx.bindings.find_by_name(name)) {
      return {b->decl, b->ref};
    }
    throw RuntimeFault("clause names unknown variable '" + name + "'");
  }

  // ------------------------------------------------------------ shadow/race

  void note_step(ThreadCtx& ctx) {
    st_.silent_back_edges = 0;
    if (ctx.team != nullptr && ctx.team->sched != nullptr &&
        ctx.no_yield_depth == 0) {
      ctx.team->sched->yield_point();
    } else {
      ++st_.serial_steps;
      if (st_.serial_steps > opts_.step_limit) {
        throw RuntimeFault("serial step limit exceeded (infinite loop?)");
      }
    }
    ++st_.steps_total;
  }

  /// A loop back-edge, a worksharing iteration or a user call. A run of
  /// them with no instrumented access between (which would count a step)
  /// faults at kMaxSilentBackEdges, so a loop that touches no memory
  /// cannot hang the run.
  void note_back_edge() {
    if (++st_.silent_back_edges > kMaxSilentBackEdges) {
      throw RuntimeFault("silent loop limit exceeded: " +
                         std::to_string(kMaxSilentBackEdges) +
                         " back-edges without a memory access");
    }
  }

  /// Interleaving-coverage signature: when consecutive shared accesses
  /// come from different logical threads we record both the ordered pair
  /// of their source sites (which cross-thread orderings ran) and the
  /// switched-to site (where a context switch was observed to land). The
  /// exploration engine unions these sets across schedules to measure how
  /// much new interleaving behaviour each schedule bought. Every shared
  /// access only notes its thread and site; sites are hashed at switches.
  void note_coverage(const ThreadCtx& ctx, SourceLoc loc, bool write) {
    if (!opts_.collect_coverage || ctx.team == nullptr) return;
    if (cov_last_tid_ >= 0 && cov_last_tid_ != ctx.tid) {
      const std::uint64_t site = coverage_site(loc, write);
      coverage_.push_back(
          hash_combine(coverage_site(cov_last_loc_, cov_last_write_), site));
      coverage_.push_back(mix64(site ^ 0x70726565'6d707440ULL));
      if (coverage_.size() >= cov_dedup_at_) {
        dedup_coverage();
        cov_dedup_at_ = std::max<std::size_t>(kCoverageDedupMin,
                                              2 * coverage_.size());
      }
    }
    cov_last_tid_ = ctx.tid;
    cov_last_loc_ = loc;
    cov_last_write_ = write;
  }

  /// The coverage hash of an access site: its location and operation.
  static std::uint64_t coverage_site(SourceLoc loc, bool write) {
    return hash_combine(mix64((static_cast<std::uint64_t>(loc.line) << 24) ^
                              static_cast<std::uint64_t>(loc.col)),
                        write ? 2u : 1u);
  }

  /// Sorts the coverage hashes and drops duplicates.
  void dedup_coverage() {
    std::sort(coverage_.begin(), coverage_.end());
    coverage_.erase(std::unique(coverage_.begin(), coverage_.end()),
                    coverage_.end());
  }

  void report_race(const AccessStamp& prev, char prev_op,
                   const std::string* cur_text, SourceLoc cur_loc,
                   char cur_op, const ObjectRecord& obj) {
    if (static_cast<int>(report_.pairs.size()) >= opts_.max_pairs) return;
    analysis::RaceAccess a;
    a.expr_text = *prev.text;
    a.var_name = obj.decl != nullptr ? obj.decl->name : *obj.name;
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

  /// Instrumented read of `ref`: counts the step (a possible yield),
  /// checks `ref` once, and runs the read check. Returns the element's
  /// index in the value arena, good until the next yield or allocation.
  /// `text` must outlive the run (see AccessStamp).
  std::size_t on_read_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                         SourceLoc loc) {
    note_step(ctx);
    const ObjectRecord& obj = mem_.checked(ref);
    const std::size_t at = obj.values + static_cast<std::size_t>(ref.offset);
    if (obj.thread_local_object) return at;
    note_coverage(ctx, loc, /*write=*/false);
    ShadowCell& cell = mem_.cell(obj, ref.offset);
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'r', obj);
    }
    mem_.read_sets().record(cell, ctx.vc.get(ctx.tid),
                            AccessStamp{text, loc, ctx.tid});
    return at;
  }

  /// Instrumented write of `ref`; as on_read_at.
  std::size_t on_write_at(ThreadCtx& ctx, ObjRef ref, const std::string* text,
                          SourceLoc loc) {
    note_step(ctx);
    const ObjectRecord& obj = mem_.checked(ref);
    const std::size_t at = obj.values + static_cast<std::size_t>(ref.offset);
    if (obj.thread_local_object) return at;
    note_coverage(ctx, loc, /*write=*/true);
    ShadowCell& cell = mem_.cell(obj, ref.offset);
    if (!cell.write.before(ctx.vc) && cell.last_write.tid != ctx.tid) {
      report_race(cell.last_write, 'w', text, loc, 'w', obj);
    }
    ReadSets& reads = mem_.read_sets();
    if (!reads.leq(cell, ctx.vc)) {
      if (cell.read_set != kNoReadSet) {
        for (const AccessStamp& stamp : reads.readers(cell)) {
          if (stamp.tid == ctx.tid) continue;
          if (reads.get(cell, stamp.tid) > ctx.vc.get(stamp.tid)) {
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
    reads.clear(cell);
    return at;
  }

  // ------------------------------------------------------------ locks

  /// Acquires the lock `lock()` returns. The lock is fetched anew after
  /// every wait: a peer may have moved it by inserting into its table.
  template <class GetLock>
  void acquire(ThreadCtx& ctx, GetLock lock) {
    if (ctx.team != nullptr && ctx.team->sched != nullptr) {
      ctx.team->sched->block_until([&] { return !lock().held; });
    } else if (lock().held) {
      throw RuntimeFault("self-deadlock on lock");
    }
    LockState& held = lock();
    held.held = true;
    ctx.vc.join(held.vc);
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
      team.bar_acc.clear();
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
      std::span<const std::int64_t> dims, ObjRef base,
      const std::int64_t* indices, std::size_t count) {
    std::int64_t offset = base.offset;
    if (!dims.empty() && count > 1) {
      // Row-major multi-dim indexing. Fewer indices than dimensions
      // address the innermost ones; more indices than dimensions map the
      // first ones to the dimensions, and the extra ones have stride 1.
      // A dimension's stride is the product of the dimensions inside it,
      // built up from the innermost (the operators wrap, so the order of
      // the sums and products does not matter).
      const std::size_t mapped = std::min(dims.size(), count);
      const std::size_t first_dim = dims.size() - mapped;
      for (std::size_t i = mapped; i < count; ++i) {
        offset = int_add(offset, indices[i]);
      }
      std::int64_t stride = 1;
      for (std::size_t i = mapped; i-- > 0;) {
        offset = int_add(offset, int_mul(indices[i], stride));
        stride = int_mul(stride, dims[first_dim + i]);
      }
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        offset = int_add(offset, indices[i]);
      }
      if (!dims.empty() && count == 1 && dims.size() > 1) {
        // a[i] on a 2-D array: scale by the row stride.
        std::int64_t stride = 1;
        for (std::size_t i = 1; i < dims.size(); ++i) {
          stride = int_mul(stride, dims[i]);
        }
        offset = int_add(base.offset, int_mul(indices[0], stride));
      }
    }
    return offset;
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
    const std::size_t slot = st_.strings.slot(&s);
    ObjRef& cached = st_.strings.at(slot);
    if (cached.valid()) return cached;
    const std::int64_t n = static_cast<std::int64_t>(s.value.size()) + 1;
    const int obj = mem_.allocate(&Memory::kStringName, nullptr, {}, n,
                                  Value::of_int(0), true);
    for (std::size_t i = 0; i < s.value.size(); ++i) {
      mem_.store(ObjRef{obj, static_cast<std::int64_t>(i)},
                 Value::of_int(s.value[i]));
    }
    cached = ObjRef{obj, 0};
    return cached;
  }

  /// Calls a user-defined function with already-evaluated arguments (the
  /// VM's CallUser); faults past kMaxCallDepth nested calls. Defined in
  /// interp_builtins.inc.
  Value invoke_user(ThreadCtx& ctx, const FunctionDecl& fn,
                    const Value* args, std::size_t argc);
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
  /// Combines the reductions `cr` pushed into their shared variables.
  void finish_reductions(ThreadCtx& ctx, const ClauseResult& cr);
  void capture_lastprivate(ThreadCtx& ctx, SourceLoc loc);
  [[nodiscard]] ObjRef clone_object(ObjRef src, const VarDecl* decl,
                                    bool copy_values) {
    return ObjRef{mem_.clone(src.object, decl, copy_values), 0};
  }
  [[nodiscard]] ObjRef get_threadprivate(const VarDecl* decl, int team_index,
                                         ObjRef master);
  /// The storage of the team forked at the current nesting depth.
  [[nodiscard]] TeamSlot& team_slot();

  // ------------------------------------------------------------ io

  void do_printf(ThreadCtx& ctx, const Call& c, std::size_t first_arg);
  [[nodiscard]] std::string read_cstring(ObjRef ref) const;
  void output_append(const std::string& s);

  /// Coverage hashes gathered before a deduplication, at the least.
  static constexpr std::size_t kCoverageDedupMin = 256;

  const TranslationUnit& tu_;
  const analysis::Resolution& res_;
  const RunOptions opts_;
  PrefixSnapshot::Storage& storage_;
  RunState& st_;  // storage_.state
  Memory& mem_;   // st_.mem
  analysis::RaceReport report_;
  std::size_t team_depth_ = 0;  // teams running, enclosing the current one
  ScheduleTrace trace_;
  std::vector<std::uint64_t>& coverage_;  // storage_.coverage
  /// One per region entered so far, its index (storage_.regions).
  std::vector<TeamRecord>& regions_;
  std::size_t cov_dedup_at_ = kCoverageDedupMin;
  int cov_last_tid_ = -1;
  SourceLoc cov_last_loc_;  // the last shared in-team access
  bool cov_last_write_ = false;
  const bc::Module& module_;        // verified bytecode for tu_
  std::size_t reg_arena_size_ = 0;  // register-stack arena size
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
  // A run with a snapshot reuses the storage its previous runs left there;
  // a bare run gets fresh storage.
  std::unique_ptr<PrefixSnapshot::Storage> fresh;
  PrefixSnapshot::Storage* storage = nullptr;
  if (o.prefix != nullptr) {
    if (o.prefix->storage == nullptr) {
      o.prefix->storage = std::make_unique<PrefixSnapshot::Storage>();
    }
    storage = o.prefix->storage.get();
  } else {
    fresh = std::make_unique<PrefixSnapshot::Storage>();
    storage = fresh.get();
  }
  Interp interp(unit, res, o, *storage);
  return interp.run();
}

}  // namespace drbml::runtime
