#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace perfbench {

namespace {

// The tracer rebases events onto an epoch it reads inside clear(); the
// benchmark reads its clock right after clear() returns, so program spans
// can appear up to a few tens of ns late against the benchmark's own
// spans. Containment of a program span in a benchmark span tolerates that.
constexpr std::uint64_t kRebaseSlackNs = 1000;

struct Node {
  SpanRec rec;
  int parent = -1;
  std::vector<int> children;
};

bool encloses(const SpanRec& outer, const SpanRec& inner) {
  const std::uint64_t slack =
      !outer.from_program && inner.from_program ? kRebaseSlackNs : 0;
  return inner.start + slack >= outer.start && inner.end <= outer.end + slack;
}

/// Length of the union of `intervals` clipped to [lo, hi].
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void SpanLog::begin_traced_slice() {
  drbml::obs::tracer().clear();
  epoch_ = now_ns();
  drbml::obs::tracer().set_enabled(true);
}

void SpanLog::end_traced_slice() {
  drbml::obs::tracer().set_enabled(false);
  for (const drbml::obs::TraceEvent& e : drbml::obs::tracer().snapshot()) {
    SpanRec r;
    r.name = e.name;
    r.start = epoch_ + e.start_ns;
    r.end = r.start + e.dur_ns;
    r.tid = e.tid;
    r.from_program = true;
    if (std::strcmp(e.name, "serve.request") == 0 && e.detail.size() > 1 &&
        e.detail[0] == 'q') {
      r.op = std::stoll(e.detail.substr(1));
    }
    spans_.push_back(r);
  }
  drbml::obs::tracer().clear();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const SpanRec& s : spans_) t0 = std::min(t0, s.start);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  for (const SpanRec& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%lld}}",
                  first ? "" : ",\n", s.name,
                  s.from_program ? "program" : "perfbench",
                  static_cast<double>(s.start - t0) / 1000.0,
                  static_cast<double>(s.end - s.start) / 1000.0,
                  s.tid == kCrossThread ? 1000 : s.tid,
                  static_cast<long long>(s.op));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Ledger::self_ms_per_op(const std::string& layer) const {
  const auto it = self_ns.find(layer);
  if (it == self_ns.end() || ops == 0) return 0.0;
  return it->second / 1e6 / static_cast<double>(ops);
}

double Ledger::total_ms_per_op(const std::string& name) const {
  const auto it = durations_ms.find(name);
  if (it == durations_ms.end() || ops == 0) return 0.0;
  double sum = 0;
  for (double d : it->second) sum += d;
  return sum / static_cast<double>(ops);
}

Ledger build_ledger(const std::vector<SpanRec>& spans,
                    const std::map<std::string, std::string>& layer_of) {
  std::vector<Node> nodes;
  nodes.reserve(spans.size());
  for (const SpanRec& s : spans) nodes.push_back(Node{s, -1, {}});

  // Per-thread nesting by interval.
  std::unordered_map<int, std::vector<int>> by_tid;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[i].rec.tid != kCrossThread) by_tid[nodes[i].rec.tid].push_back(i);
  }
  for (auto& [tid, idx] : by_tid) {
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
      const SpanRec& x = nodes[a].rec;
      const SpanRec& y = nodes[b].rec;
      if (x.start != y.start) return x.start < y.start;
      if (x.end != y.end) return x.end > y.end;
      return !x.from_program && y.from_program;
    });
    std::vector<int> stack;
    for (int i : idx) {
      while (!stack.empty() && !encloses(nodes[stack.back()].rec, nodes[i].rec)) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Node& parent = nodes[stack.back()];
        nodes[i].parent = stack.back();
        nodes[i].rec.start = std::max(nodes[i].rec.start, parent.rec.start);
        nodes[i].rec.end = std::min(nodes[i].rec.end, parent.rec.end);
        if (nodes[i].rec.op < 0) nodes[i].rec.op = parent.rec.op;
      }
      stack.push_back(i);
    }
  }

  // Cross-thread operation roots adopt per-thread roots and cross-thread
  // spans that carry their op id.
  std::unordered_map<std::int64_t, int> cross_root;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const SpanRec& r = nodes[i].rec;
    if (r.tid == kCrossThread && std::strcmp(r.name, "op") == 0) {
      cross_root[r.op] = i;
    }
  }
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    Node& n = nodes[i];
    if (n.parent >= 0 || std::strcmp(n.rec.name, "op") == 0) continue;
    const auto it = cross_root.find(n.rec.op);
    if (it != cross_root.end()) n.parent = it->second;
  }
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[i].parent >= 0) nodes[nodes[i].parent].children.push_back(i);
  }

  Ledger ledger;
  // Parents before children: resolve each span's layer from its ancestry.
  std::vector<const std::string*> layer(nodes.size(), nullptr);
  std::vector<char> in_op(nodes.size(), 0);
  std::vector<int> order;
  order.reserve(nodes.size());
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[i].parent < 0) order.push_back(i);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (int c : nodes[order[k]].children) order.push_back(c);
  }
  static const std::string kUnattributed = "unattributed";
  for (int i : order) {
    const Node& n = nodes[i];
    const bool is_op = std::strcmp(n.rec.name, "op") == 0;
    if (is_op) {
      in_op[i] = 1;
      layer[i] = &kUnattributed;
      ++ledger.ops;
    } else if (n.parent >= 0 && in_op[n.parent]) {
      in_op[i] = 1;
      const auto it = layer_of.find(n.rec.name);
      layer[i] = it != layer_of.end() ? &it->second : layer[n.parent];
    }
    if (!in_op[i]) {
      if (n.rec.from_program) ++ledger.orphans;
      continue;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    iv.reserve(n.children.size());
    for (int c : n.children) iv.emplace_back(nodes[c].rec.start, nodes[c].rec.end);
    const std::uint64_t dur = n.rec.end - n.rec.start;
    const double self =
        static_cast<double>(dur - covered(iv, n.rec.start, n.rec.end));
    if (is_op) {
      ledger.unattributed_ns += self;
    } else {
      ledger.self_ns[*layer[i]] += self;
    }
    ledger.durations_ms[n.rec.name].push_back(static_cast<double>(dur) / 1e6);
  }
  return ledger;
}

}  // namespace perfbench
