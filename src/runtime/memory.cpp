#include "runtime/memory.hpp"

#include <algorithm>

namespace drbml::runtime {

ReadSets& ReadSets::operator=(const ReadSets& o) {
  if (this == &o) return *this;
  // Element-wise, so that each entry reuses its clock's and stamps'
  // buffers; entries past o's live ones stay as spares.
  if (entries_.size() < o.used_) entries_.resize(o.used_);
  for (std::size_t i = 0; i < o.used_; ++i) entries_[i] = o.entries_[i];
  used_ = o.used_;
  free_ = o.free_;
  return *this;
}

void ReadSets::record(ShadowCell& cell, std::uint32_t now,
                      const AccessStamp& stamp) {
  if (cell.read_set == kNoReadSet) {
    if (!cell.read.valid() || cell.read.tid == stamp.tid) {
      cell.read = Epoch{stamp.tid, now};
      cell.read_stamp = stamp;
      return;
    }
    // Second distinct reader: promote. While a single thread reads, the
    // full read set would be exactly {its tid: its last read clock} (a
    // thread's own clock only advances), which is what the epoch holds,
    // so promotion never changes a happens-before answer.
    std::uint32_t id = 0;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      if (used_ == entries_.size()) entries_.emplace_back();
      id = static_cast<std::uint32_t>(used_++);
    }
    Entry& e = entries_[id];
    e.clock.clear();
    e.stamps.clear();
    e.clock.set(cell.read.tid, cell.read.clock);
    e.stamps.push_back(cell.read_stamp);
    cell.read_set = id;
  }
  Entry& e = entries_[cell.read_set];
  e.clock.set(stamp.tid, now);
  auto it = std::lower_bound(
      e.stamps.begin(), e.stamps.end(), stamp.tid,
      [](const AccessStamp& s, int tid) { return s.tid < tid; });
  if (it != e.stamps.end() && it->tid == stamp.tid) {
    *it = stamp;
  } else {
    e.stamps.insert(it, stamp);
  }
}

const std::string Memory::kHeapName = "<heap>";
const std::string Memory::kStringName = "<string>";

int Memory::allocate(const std::string* name, const minic::VarDecl* decl,
                     std::span<const std::int64_t> dims, std::int64_t count,
                     Value init, bool thread_local_object) {
  if (count < 0) throw RuntimeFault("negative allocation size");
  if (count > kMaxRunElements - static_cast<std::int64_t>(values_.size())) {
    throw RuntimeFault("allocation too large for the interpreter: " +
                       std::to_string(count));
  }
  ObjectRecord obj;
  obj.name = name;
  obj.decl = decl;
  obj.values = static_cast<std::uint32_t>(values_.size());
  obj.count = static_cast<std::uint32_t>(count);
  obj.dims = static_cast<std::uint32_t>(dims_.size());
  obj.rank = static_cast<std::uint32_t>(dims.size());
  obj.thread_local_object = thread_local_object;
  values_.resize(values_.size() + static_cast<std::size_t>(count), init);
  if (!thread_local_object) {
    obj.cells = static_cast<std::uint32_t>(cells_.size());
    cells_.resize(cells_.size() + static_cast<std::size_t>(count));
  }
  for (const std::int64_t d : dims) dims_.push_back(d);
  objects_.push_back(obj);
  return static_cast<int>(objects_.size()) - 1;
}

int Memory::clone(int src, const minic::VarDecl* decl, bool copy_values) {
  // Copy the record first: allocate() moves the arenas and the table.
  const ObjectRecord from = object(src);
  const std::size_t rank = from.rank;
  // allocate() appends the clone's dimensions from the arena itself:
  // reserve first so that the source span stays valid.
  dims_.reserve(dims_.size() + rank);
  const int id = allocate(from.name, decl, dims(from), from.count,
                          Value::of_int(0), /*thread_local_object=*/true);
  ObjectRecord& to = objects_[static_cast<std::size_t>(id)];
  to.elem_float = from.elem_float;
  to.elem_any = from.elem_any;
  if (copy_values) {
    std::copy_n(values_.begin() + from.values, from.count,
                values_.begin() + to.values);
  }
  return id;
}

void Memory::fill(int id, Value v) {
  const ObjectRecord& obj = object(id);
  std::fill_n(values_.begin() + obj.values, obj.count, v);
}

void Memory::clear() noexcept {
  objects_.clear();
  values_.clear();
  cells_.clear();
  dims_.clear();
  read_sets_.reset();
}

void Memory::invalid_object() { throw RuntimeFault("invalid object id"); }

void Memory::use_after_free(const ObjectRecord& obj) {
  throw RuntimeFault("use after free of '" + *obj.name + "'");
}

void Memory::out_of_bounds(const ObjectRecord& obj, ObjRef ref) {
  throw RuntimeFault("out-of-bounds access to '" + *obj.name +
                     "' at index " + std::to_string(ref.offset) + " (size " +
                     std::to_string(obj.size()) + ")");
}

}  // namespace drbml::runtime
