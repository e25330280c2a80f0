// Interpreter memory: objects, elements, and per-element shadow state for
// happens-before race detection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "minic/ast.hpp"
#include "runtime/value.hpp"
#include "runtime/vc.hpp"
#include "support/error.hpp"

namespace drbml::runtime {

/// Provenance of the last accesses to one element, for race reporting.
///
/// `text` points at the access's source spelling in storage that outlives
/// the run: the bytecode module's AccessSite pool, an AST VarDecl name, or
/// a static literal. A stamp never owns a string; report_race copies the
/// text only for a reported pair.
struct AccessStamp {
  const std::string* text = nullptr;
  minic::SourceLoc loc;
  int tid = -1;

  [[nodiscard]] bool valid() const noexcept { return tid >= 0; }
};

/// Shadow state of one memory element (FastTrack-style).
struct ShadowCell {
  Epoch write;
  AdaptiveReadClock reads;
  AccessStamp last_write;
  /// Provenance of the epoch-mode (single) reader; once `reads` promotes,
  /// per-tid provenance moves to `last_reads`.
  AccessStamp read_stamp;
  std::map<int, AccessStamp> last_reads;  // per tid (shared mode)
};

/// One allocated object: a scalar (size 1) or a flattened array.
struct MemObject {
  std::string name;
  const minic::VarDecl* decl = nullptr;  // null for heap allocations
  std::vector<Value> data;
  /// One cell per element; empty for thread-local objects, which the
  /// detector never checks.
  std::vector<ShadowCell> shadow;
  std::vector<std::int64_t> dims;  // row-major dimensions (empty = scalar)
  bool elem_float = false;         // elements coerce to double on store
  bool elem_any = false;           // heap: no coercion on store
  bool freed = false;
  /// Objects private to one thread are exempt from race checking.
  bool thread_local_object = false;

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(data.size());
  }
};

/// The interpreter heap/stack store of one run.
class Memory {
 public:
  /// Cap on the elements one run may allocate in total, so a program
  /// cannot exhaust the host's memory (an element with its shadow cell
  /// costs about 160 bytes).
  static constexpr std::int64_t kMaxRunElements = 1 << 20;

  /// Allocates an object with `count` elements, all initialized to `init`.
  /// Throws RuntimeFault when the run's total would exceed kMaxRunElements.
  int allocate(std::string name, const minic::VarDecl* decl,
               std::vector<std::int64_t> dims, std::int64_t count,
               Value init, bool thread_local_object);

  [[nodiscard]] MemObject& object(int id) {
    if (id < 0 || static_cast<std::size_t>(id) >= objects_.size()) {
      invalid_object();
    }
    return objects_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const MemObject& object(int id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= objects_.size()) {
      invalid_object();
    }
    return objects_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] Value load(ObjRef ref) const {
    return check(ref).data[static_cast<std::size_t>(ref.offset)];
  }
  void store(ObjRef ref, Value v) {
    check(ref);
    objects_[static_cast<std::size_t>(ref.object)]
        .data[static_cast<std::size_t>(ref.offset)] = v;
  }

  /// Throws RuntimeFault on freed objects or out-of-range offsets.
  void check_bounds(ObjRef ref) const { (void)check(ref); }

 private:
  const MemObject& check(ObjRef ref) const {
    const MemObject& obj = object(ref.object);
    if (obj.freed) use_after_free(obj);
    if (ref.offset < 0 || ref.offset >= obj.size()) out_of_bounds(obj, ref);
    return obj;
  }

  // Fault-message helpers, kept out of line so the inline checks above
  // stay small.
  [[noreturn]] static void invalid_object();
  [[noreturn]] static void use_after_free(const MemObject& obj);
  [[noreturn]] static void out_of_bounds(const MemObject& obj, ObjRef ref);

  std::vector<MemObject> objects_;
  std::int64_t allocated_elements_ = 0;
};

}  // namespace drbml::runtime
