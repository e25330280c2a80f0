#include "runtime/fiber.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/mman.h>

#if DRBML_FIBER_TSAN
// ThreadSanitizer's fiber API (sanitizer/tsan_interface.h). Without it
// every fiber would share its OS thread's sanitizer state: the frames a
// finished fiber leaves on the shared shadow call stack are never
// popped, and the stack depot grows with every run.
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if DRBML_FIBER_ASAN
// AddressSanitizer's fiber API (sanitizer/common_interface_defs.h).
// Without it ASan keeps assuming the OS thread's stack: unwinding an
// exception on a fiber stack then unpoisons the wrong range and reports
// a false stack-buffer-overflow.
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

namespace drbml::runtime {

namespace {

// 8 MiB of lazily-committed address space per fiber -- matching the
// default pthread stack, so a worker fiber and the thread driving the run
// share one recursion-depth budget -- plus a PROT_NONE guard page that
// turns stack overflow into a clean fault instead of silent corruption.
// Freed stacks recycle through a per-thread pool, and a scheduler re-arms
// its fibers for each team, so stacks are mapped once per scheduler, not
// once per parallel region.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kGuardBytes = 4096;
#if DRBML_FIBER_ASAN
// A finished fiber never returns from its final switch, so the redzones
// of the frames it left there stay poisoned, and GCC's frame set-up only
// writes redzones: the next entry run on the stack could trip a false
// stack-buffer-underflow on them. start() unpoisons this much of the top
// of the stack, far more than those frames take.
constexpr std::size_t kAsanUnpoisonBytes = std::size_t{64} << 10;
#endif

struct StackPool {
  std::vector<void*> free_list;
  ~StackPool() {
    for (void* p : free_list) ::munmap(p, kGuardBytes + kStackBytes);
  }
};
thread_local StackPool t_pool;

void* acquire_stack() {
  if (!t_pool.free_list.empty()) {
    void* p = t_pool.free_list.back();
    t_pool.free_list.pop_back();
    return p;
  }
  void* p = ::mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) std::abort();
  ::mprotect(p, kGuardBytes, PROT_NONE);
  return p;
}

void release_stack(void* p) { t_pool.free_list.push_back(p); }

// The fiber being resumed for the first time. Its trampoline reads the
// entry/arg pair from here: a fresh fiber's initial frame is synthesized
// by start() and cannot carry C++ arguments through the restore sequence.
thread_local Fiber* t_starting = nullptr;

#if DRBML_FIBER_ASAN
// The fiber the running context was just switched out of; the switched-to
// side records its stack bounds.
thread_local Fiber* t_asan_left = nullptr;
#endif

}  // namespace

struct FiberAccess {
#if DRBML_FIBER_ASAN
  static void asan_finish_switch(void* fake_stack) {
    Fiber* left = t_asan_left;
    __sanitizer_finish_switch_fiber(fake_stack, &left->asan_bottom_,
                                    &left->asan_size_);
  }
#endif

  [[noreturn]] static void run_starting() {
#if DRBML_FIBER_ASAN
    asan_finish_switch(nullptr);
#endif
    Fiber* self = t_starting;
    t_starting = nullptr;
    Fiber::Entry entry = self->entry_;
    self->entry_ = nullptr;  // armed -> running; transfers now plain resumes
    entry(self->arg_);
    // Entries transfer away for the last time instead of returning; there
    // is no frame to return into.
    std::abort();
  }
};

extern "C" [[noreturn]] void drbml_fiber_trampoline() {
  FiberAccess::run_starting();
}

Fiber::~Fiber() {
#if DRBML_FIBER_TSAN
  if (stack_ != nullptr && tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
#endif
  if (stack_ != nullptr) release_stack(stack_);
}

#if DRBML_FIBER_ASM

// SysV x86-64 cooperative switch. Everything caller-saved is dead across
// a call by the C ABI, so only rbp/rbx/r12-r15 and the FP control words
// (mxcsr, x87 cw) need saving: push them on the current stack, publish
// rsp through save_sp, adopt new_sp, restore, and `ret` -- which either
// resumes a suspended drbml_fiber_switch call or enters a fresh fiber's
// trampoline through the frame start() synthesized.
asm(".text\n"
    ".align 16\n"
    ".globl drbml_fiber_switch\n"
    ".hidden drbml_fiber_switch\n"
    ".type drbml_fiber_switch, @function\n"
    "drbml_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size drbml_fiber_switch, . - drbml_fiber_switch\n");

extern "C" void drbml_fiber_switch(void** save_sp, void* new_sp);

void Fiber::start(Entry entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
  if (stack_ == nullptr) stack_ = acquire_stack();
  const auto base = reinterpret_cast<std::uintptr_t>(stack_);
  const std::uintptr_t top =
      (base + kGuardBytes + kStackBytes) & ~std::uintptr_t{15};
  // Synthesize the frame drbml_fiber_switch expects to restore, bottom to
  // top: [mxcsr|fcw] [r15 r14 r13 r12 rbx rbp] [retaddr = trampoline].
  // top-72 keeps rsp == 8 (mod 16) at the trampoline's first instruction,
  // exactly as if it had been reached by a call.
  const std::uintptr_t sp = top - 72;
  std::memset(reinterpret_cast<void*>(sp), 0, 72);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  std::memcpy(reinterpret_cast<void*>(sp), &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<void*>(sp + 4), &fcw, sizeof(fcw));
  void (*tramp)() = &drbml_fiber_trampoline;
  std::memcpy(reinterpret_cast<void*>(sp + 56), &tramp, sizeof(tramp));
  sp_ = reinterpret_cast<void*>(sp);
}

void Fiber::transfer(Fiber& from, Fiber& to) {
  if (to.entry_ != nullptr) t_starting = &to;
  drbml_fiber_switch(&from.sp_, to.sp_);
}

#else  // ucontext

void Fiber::start(Entry entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
  if (stack_ == nullptr) stack_ = acquire_stack();
  if (getcontext(&uc_) != 0) std::abort();
  uc_.uc_stack.ss_sp = static_cast<char*>(stack_) + kGuardBytes;
  uc_.uc_stack.ss_size = kStackBytes;
  uc_.uc_link = nullptr;  // entries never return through the trampoline
  makecontext(&uc_, reinterpret_cast<void (*)()>(&drbml_fiber_trampoline), 0);
#if DRBML_FIBER_TSAN
  // A re-armed fiber gets a fresh sanitizer context: its old one still
  // holds the frames of the entry's final switch.
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
#if DRBML_FIBER_ASAN
  asan_bottom_ = uc_.uc_stack.ss_sp;
  asan_size_ = kStackBytes;
  __asan_unpoison_memory_region(
      static_cast<char*>(stack_) + kGuardBytes + kStackBytes -
          kAsanUnpoisonBytes,
      kAsanUnpoisonBytes);
#endif
}

void Fiber::transfer(Fiber& from, Fiber& to) {
  if (to.entry_ != nullptr) t_starting = &to;
#if DRBML_FIBER_TSAN
  // An adopted save slot stands for whichever context suspends into it
  // (the thread that called run_team, or an outer team's worker fiber).
  if (from.stack_ == nullptr) from.tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);  // 0: the switch synchronizes
#endif
#if DRBML_FIBER_ASAN
  // `to` is an adopted slot only after something switched out of it, so
  // its bounds are known by the time anything switches back in.
  void* fake_stack = nullptr;
  t_asan_left = &from;
  __sanitizer_start_switch_fiber(&fake_stack, to.asan_bottom_, to.asan_size_);
#endif
  if (swapcontext(&from.uc_, &to.uc_) != 0) std::abort();
#if DRBML_FIBER_ASAN
  FiberAccess::asan_finish_switch(fake_stack);
#endif
}

#endif

}  // namespace drbml::runtime
