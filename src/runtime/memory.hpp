// Interpreter memory: objects, elements, and per-element shadow state for
// happens-before race detection.
//
// A run's memory is plain data: three arenas (element values, shadow
// cells, dimensions) and a table of fixed-size object records, plus the
// read sets of the cells several threads read. Copying a Memory is a few
// block copies, and clear() keeps every buffer's capacity, so the runs of
// one program reuse it (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
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

/// No read-set entry (ShadowCell::read_set).
inline constexpr std::uint32_t kNoReadSet = ~std::uint32_t{0};

/// Shadow state of one memory element (FastTrack-style). While at most one
/// thread has read the element since its last write, `read` is that
/// thread's epoch (an adaptive read clock in epoch mode); the first read
/// by a second thread moves the reads into a ReadSets entry, which
/// `read_set` names until the next write.
struct ShadowCell {
  Epoch write;
  Epoch read;  // epoch mode only
  AccessStamp last_write;
  AccessStamp read_stamp;  // provenance of `read`
  std::uint32_t read_set = kNoReadSet;
};
static_assert(std::is_trivially_copyable_v<ShadowCell>,
              "shadow cells are copied as blocks");

/// The read sets of the shadow cells that two or more threads read since
/// their last write: per cell, the readers' vector clock and the
/// provenance of each reader's last read, ascending by thread id (which
/// decides the order write checks report pairs in). A write returns its
/// cell's entry to a free list. Entries past the live ones are kept for
/// their buffers: reset() and copy-assignment keep every entry's capacity.
class ReadSets {
 public:
  ReadSets() = default;
  ReadSets(const ReadSets&) = default;
  ReadSets& operator=(const ReadSets& o);

  /// Records a read of `cell` by `stamp.tid` at that thread's clock `now`;
  /// promotes the cell to an entry on the first read by a second thread.
  void record(ShadowCell& cell, std::uint32_t now, const AccessStamp& stamp);

  /// True if every recorded read of `cell` happens-before-or-equals `c`.
  [[nodiscard]] bool leq(const ShadowCell& cell,
                         const VectorClock& c) const noexcept {
    if (cell.read_set != kNoReadSet) {
      return entries_[cell.read_set].clock.leq(c);
    }
    return cell.read.before(c);
  }

  /// The clock of `tid`'s last recorded read of `cell` (0 when none).
  [[nodiscard]] std::uint32_t get(const ShadowCell& cell,
                                  int tid) const noexcept {
    if (cell.read_set != kNoReadSet) {
      return entries_[cell.read_set].clock.get(tid);
    }
    return cell.read.valid() && cell.read.tid == tid ? cell.read.clock : 0;
  }

  /// The last read of each reader of a promoted cell, ascending tid.
  [[nodiscard]] const std::vector<AccessStamp>& readers(
      const ShadowCell& cell) const {
    return entries_[cell.read_set].stamps;
  }

  /// Forgets every read of `cell` (a write resets its read set).
  void clear(ShadowCell& cell) {
    if (cell.read_set != kNoReadSet) free_.push_back(cell.read_set);
    cell.read_set = kNoReadSet;
    cell.read = Epoch{};
  }

  /// Forgets every entry.
  void reset() noexcept {
    used_ = 0;
    free_.clear();
  }

 private:
  struct Entry {
    VectorClock clock;
    std::vector<AccessStamp> stamps;  // ascending tid, one per reader
  };

  std::vector<Entry> entries_;  // [0, used_) handed out; the rest spare
  std::size_t used_ = 0;
  std::vector<std::uint32_t> free_;  // returned entries, reused first
};

/// No shadow cells (ObjectRecord::cells): a thread-local object.
inline constexpr std::uint32_t kNoCells = ~std::uint32_t{0};

/// One allocated object: a scalar (size 1) or a flattened array. Its
/// elements, cells and dimensions are ranges of the Memory's arenas.
struct ObjectRecord {
  /// The declaration's name, or a static "<heap>" / "<string>".
  const std::string* name = nullptr;
  const minic::VarDecl* decl = nullptr;  // null for heap allocations
  std::uint32_t values = 0;        // first element in the value arena
  std::uint32_t count = 0;         // elements
  std::uint32_t cells = kNoCells;  // first shadow cell
  std::uint32_t dims = 0;          // first dimension in the dims arena
  std::uint32_t rank = 0;          // dimensions (0 = scalar)
  bool elem_float = false;         // elements coerce to double on store
  bool elem_any = false;           // heap: no coercion on store
  bool freed = false;
  /// Objects private to one thread are exempt from race checking and get
  /// no shadow cells.
  bool thread_local_object = false;

  [[nodiscard]] std::int64_t size() const noexcept { return count; }
};

/// The interpreter heap/stack store of one run.
class Memory {
 public:
  /// Cap on the elements one run may allocate in total, so a program
  /// cannot exhaust the host's memory. An element costs 16 bytes, plus a
  /// 72-byte shadow cell when it is shared.
  static constexpr std::int64_t kMaxRunElements = 1 << 20;

  static const std::string kHeapName;    // "<heap>"
  static const std::string kStringName;  // "<string>"

  /// Allocates an object with `count` elements, all initialized to `init`;
  /// `name` must outlive the run. Throws RuntimeFault on a negative count
  /// or when the run's total would exceed kMaxRunElements.
  int allocate(const std::string* name, const minic::VarDecl* decl,
               std::span<const std::int64_t> dims, std::int64_t count,
               Value init, bool thread_local_object);

  /// A thread-local copy of object `src` bound to `decl`: same name,
  /// dimensions and element type, its elements copied or zero.
  int clone(int src, const minic::VarDecl* decl, bool copy_values);

  [[nodiscard]] ObjectRecord& object(int id) {
    if (id < 0 || static_cast<std::size_t>(id) >= objects_.size()) {
      invalid_object();
    }
    return objects_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ObjectRecord& object(int id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= objects_.size()) {
      invalid_object();
    }
    return objects_[static_cast<std::size_t>(id)];
  }

  /// `ref`'s object; throws RuntimeFault on a freed object or an
  /// out-of-range offset.
  [[nodiscard]] const ObjectRecord& checked(ObjRef ref) const {
    const ObjectRecord& obj = object(ref.object);
    if (obj.freed) use_after_free(obj);
    if (ref.offset < 0 || ref.offset >= obj.size()) out_of_bounds(obj, ref);
    return obj;
  }

  [[nodiscard]] Value load(ObjRef ref) const {
    return values_[checked(ref).values + static_cast<std::size_t>(ref.offset)];
  }
  /// Stores `v` converted to the element type of `ref`'s object.
  void store(ObjRef ref, Value v) {
    const ObjectRecord& obj = checked(ref);
    values_[obj.values + static_cast<std::size_t>(ref.offset)] =
        coerce(obj, v);
  }

  /// An element by its value-arena index, for an access checked already.
  [[nodiscard]] Value value(std::size_t at) const { return values_[at]; }
  /// Stores into element `at` of object `object`, both checked already.
  void store_at(int object, std::size_t at, Value v) {
    values_[at] = coerce(objects_[static_cast<std::size_t>(object)], v);
  }
  /// Sets every element of object `id` to `v`, as it is.
  void fill(int id, Value v);

  /// Element `offset`'s shadow cell of a shared object. The reference
  /// lasts until the next allocation.
  [[nodiscard]] ShadowCell& cell(const ObjectRecord& obj,
                                 std::int64_t offset) {
    return cells_[obj.cells + static_cast<std::size_t>(offset)];
  }
  [[nodiscard]] ReadSets& read_sets() noexcept { return read_sets_; }

  [[nodiscard]] std::span<const std::int64_t> dims(
      const ObjectRecord& obj) const {
    return {dims_.data() + obj.dims, obj.rank};
  }

  /// Forgets every object, keeping every buffer's capacity.
  void clear() noexcept;

 private:
  static Value coerce(const ObjectRecord& obj, Value v) {
    // Heap objects are untyped; pointers are stored as they are.
    if (v.is_ptr() || obj.elem_any) return v;
    return obj.elem_float ? Value::of_double(v.as_double())
                          : Value::of_int(v.as_int());
  }

  // Fault-message helpers, kept out of line so the inline checks above
  // stay small.
  [[noreturn]] static void invalid_object();
  [[noreturn]] static void use_after_free(const ObjectRecord& obj);
  [[noreturn]] static void out_of_bounds(const ObjectRecord& obj, ObjRef ref);

  std::vector<ObjectRecord> objects_;
  std::vector<Value> values_;
  std::vector<ShadowCell> cells_;
  std::vector<std::int64_t> dims_;
  ReadSets read_sets_;
};

}  // namespace drbml::runtime
