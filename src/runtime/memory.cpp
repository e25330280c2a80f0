#include "runtime/memory.hpp"

namespace drbml::runtime {

int Memory::allocate(std::string name, const minic::VarDecl* decl,
                     std::vector<std::int64_t> dims, std::int64_t count,
                     Value init, bool thread_local_object) {
  if (count < 0) throw RuntimeFault("negative allocation size");
  if (count > kMaxRunElements - allocated_elements_) {
    throw RuntimeFault("allocation too large for the interpreter: " +
                       std::to_string(count));
  }
  allocated_elements_ += count;
  MemObject obj;
  obj.name = std::move(name);
  obj.decl = decl;
  obj.dims = std::move(dims);
  obj.data.assign(static_cast<std::size_t>(count), init);
  if (!thread_local_object) {
    obj.shadow.assign(static_cast<std::size_t>(count), ShadowCell{});
  }
  obj.thread_local_object = thread_local_object;
  objects_.push_back(std::move(obj));
  return static_cast<int>(objects_.size()) - 1;
}

void Memory::invalid_object() { throw RuntimeFault("invalid object id"); }

void Memory::use_after_free(const MemObject& obj) {
  throw RuntimeFault("use after free of '" + obj.name + "'");
}

void Memory::out_of_bounds(const MemObject& obj, ObjRef ref) {
  throw RuntimeFault("out-of-bounds access to '" + obj.name + "' at index " +
                     std::to_string(ref.offset) + " (size " +
                     std::to_string(obj.size()) + ")");
}

}  // namespace drbml::runtime
