// Span collection for traced runs: the benchmark's own spans around each
// public call, merged with the spans the program already emits through
// obs::tracer(), and the self-time ledger computed from both.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Thread id for spans not bound to one thread (a serve operation runs
/// from the generator's submit to a worker's response callback).
inline constexpr int kCrossThread = -1;

/// One closed interval. `op` is the benchmark operation it belongs to;
/// -1 means "inherit from the enclosing span".
struct SpanRec {
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int tid = 0;
  std::int64_t op = -1;
  bool from_program = false;
};

/// In-memory span store for one run.
class SpanLog {
 public:
  /// Clears and enables the program's tracer; nothing may be in flight.
  void begin_traced_slice();
  /// Disables the tracer and moves its events into the log, rebased onto
  /// now_ns(). `serve.request` spans take their op from the request id
  /// (`q<op>`); other program spans inherit it from their parent.
  void end_traced_slice();

  void add(const char* name, std::uint64_t start, std::uint64_t end,
           int tid, std::int64_t op) {
    spans_.push_back(SpanRec{name, start, end, tid, op, false});
  }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

  /// Chrome trace_event JSON of every span (loads in Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<SpanRec> spans_;
  std::uint64_t epoch_ = 0;
};

/// Where the traced operations spent their time.
struct Ledger {
  std::uint64_t ops = 0;
  /// Σ self time (span duration minus the union of its children's
  /// intervals) per layer metric, in ns. A span whose name has no layer
  /// gives its self time to its parent's layer.
  std::map<std::string, double> self_ns;
  /// Every duration per span name, in ms.
  std::map<std::string, std::vector<double>> durations_ms;
  /// Σ self time of the operation roots: time no layer span covers.
  double unattributed_ns = 0;
  /// Program spans that fell outside every operation.
  std::uint64_t orphans = 0;

  [[nodiscard]] double self_ms_per_op(const std::string& layer) const;
  /// Σ duration of spans named `name`, in ms per operation.
  [[nodiscard]] double total_ms_per_op(const std::string& name) const;
};

/// Nests spans per thread by interval, attaches cross-thread spans and
/// per-thread roots to the operation with the same id, and sums self
/// times into `layer_of[span name]`. Operation roots are spans named
/// "op".
[[nodiscard]] Ledger build_ledger(
    const std::vector<SpanRec>& spans,
    const std::map<std::string, std::string>& layer_of);

}  // namespace perfbench
