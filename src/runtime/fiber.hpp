// User-space stackful fibers: the execution substrate of the scheduler.
//
// CoopScheduler is strictly token-passing -- exactly one worker of a
// simulated team runs at any instant -- so a team does not need OS
// threads at all. Every worker is multiplexed onto the calling thread and
// the token moves with a user-space context switch (~25ns) instead of a
// condition-variable round trip through the kernel (~2us).
//
// Two implementations behind one interface:
//   - bare x86-64 SysV switch: saves the callee-saved registers plus the
//     FP control words and swaps stack pointers (fiber.cpp, top-level
//     asm). Used in plain builds.
//   - ucontext_t swapcontext: used under Thread/AddressSanitizer and off
//     x86-64. Every switch is announced to the sanitizer: ThreadSanitizer
//     gives each fiber its own context through the __tsan fiber API (so
//     its shadow call stack is freed with it and each switch is a
//     happens-before edge); AddressSanitizer learns the stack bounds of
//     the context it switches to through __sanitizer_start_switch_fiber /
//     __sanitizer_finish_switch_fiber, without which unwinding an
//     exception on a fiber stack reports a false stack-buffer-overflow.
// A platform with neither does not build.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define DRBML_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DRBML_FIBER_TSAN 1
#endif
#endif
#ifndef DRBML_FIBER_TSAN
#define DRBML_FIBER_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define DRBML_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DRBML_FIBER_ASAN 1
#endif
#endif
#ifndef DRBML_FIBER_ASAN
#define DRBML_FIBER_ASAN 0
#endif

#define DRBML_FIBER_SANITIZED (DRBML_FIBER_TSAN || DRBML_FIBER_ASAN)

#if defined(__x86_64__) && defined(__linux__) && !DRBML_FIBER_SANITIZED
#define DRBML_FIBER_ASM 1
#else
#define DRBML_FIBER_ASM 0
#endif

#if !DRBML_FIBER_ASM && defined(__unix__)
#define DRBML_FIBER_UCONTEXT 1
#include <ucontext.h>
#else
#define DRBML_FIBER_UCONTEXT 0
#endif

#if !DRBML_FIBER_ASM && !DRBML_FIBER_UCONTEXT
#error "fibers need x86-64 Linux or ucontext"
#endif

namespace drbml::runtime {

/// One suspended execution context. A default-constructed Fiber is an
/// empty save slot: the first transfer *out of* it adopts the calling
/// thread's context (this is how the scheduler's driver suspends itself
/// while worker fibers run). start() instead arms the fiber to run an
/// entry function on a fresh guarded stack at its first resume.
///
/// Lifecycle rules the scheduler upholds: an armed fiber's entry must
/// never return -- it transfers away for the last time and is then never
/// resumed again, though start() may arm it again for a new entry on the
/// same stack. A fiber runs on one OS thread at a time; stacks recycle
/// through a per-thread pool.
class Fiber {
 public:
  using Entry = void (*)(void*);

  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arms the fiber: entry(arg) starts running at the first transfer into
  /// it. Allocates (or reuses) a lazily-committed stack with a PROT_NONE
  /// guard page below it; a fiber armed before keeps its stack, and its
  /// previous entry's suspended frames are dropped.
  void start(Entry entry, void* arg);

  /// Saves the current context into `from` and resumes `to`. Returns when
  /// something transfers back into `from`.
  static void transfer(Fiber& from, Fiber& to);

 private:
  friend struct FiberAccess;

  Entry entry_ = nullptr;  // non-null until first resume
  void* arg_ = nullptr;
  void* stack_ = nullptr;  // mmap'd block; null for adopted contexts
#if DRBML_FIBER_ASM
  void* sp_ = nullptr;
#else
  ucontext_t uc_{};
#endif
#if DRBML_FIBER_TSAN
  // ThreadSanitizer's context for this fiber: created by start(), the
  // calling context's for an adopted save slot.
  void* tsan_fiber_ = nullptr;
#endif
#if DRBML_FIBER_ASAN
  // Stack bounds announced to AddressSanitizer when switching into this
  // fiber: set by start(); an adopted save slot learns them from the first
  // switch out of it.
  const void* asan_bottom_ = nullptr;
  std::size_t asan_size_ = 0;
#endif
};

}  // namespace drbml::runtime
