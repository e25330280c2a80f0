#include "analysis/depgraph.hpp"

#include "analysis/access.hpp"
#include "analysis/depend.hpp"
#include "analysis/resolve.hpp"
#include "minic/parser.hpp"

namespace drbml::analysis {

const char* dep_edge_kind_name(DepEdgeKind k) noexcept {
  switch (k) {
    case DepEdgeKind::TrueDep: return "true";
    case DepEdgeKind::AntiDep: return "anti";
    case DepEdgeKind::OutputDep: return "output";
    case DepEdgeKind::SameThread: return "loop-independent";
  }
  return "?";
}

int DependenceGraph::cross_thread_edges() const noexcept {
  int n = 0;
  for (const auto& e : edges) {
    if (e.cross_thread) ++n;
  }
  return n;
}

std::string DependenceGraph::to_text() const {
  std::string out;
  for (const auto& n : nodes) {
    out += "n" + std::to_string(n.id) + ": " + n.access + " @" +
           std::to_string(n.line) + ":" + std::to_string(n.col) + " " +
           (n.op == 'w' ? "W" : "R") + " [" + n.sharing + "]\n";
  }
  for (const auto& e : edges) {
    out += "d: n" + std::to_string(e.src) + " -> n" + std::to_string(e.dst) +
           " " + dep_edge_kind_name(e.kind) +
           (e.cross_thread ? " cross-thread" : " intra-thread") + "\n";
  }
  if (edges.empty()) out += "d: (no dependences)\n";
  return out;
}

std::string DependenceGraph::to_dot() const {
  std::string out = "digraph dependences {\n";
  for (const auto& n : nodes) {
    out += "  n" + std::to_string(n.id) + " [label=\"" + n.access + "\\n@" +
           std::to_string(n.line) + ":" + std::to_string(n.col) +
           (n.op == 'w' ? " W" : " R") + "\"];\n";
  }
  for (const auto& e : edges) {
    out += "  n" + std::to_string(e.src) + " -> n" + std::to_string(e.dst) +
           " [label=\"" + dep_edge_kind_name(e.kind) + "\"";
    if (e.cross_thread) out += ", color=red";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

DependenceGraph build_dependence_graph(minic::TranslationUnit& unit) {
  DependenceGraph g;
  Resolution res = resolve(unit);
  const std::vector<ParallelRegion> regions = collect_regions(unit, res);
  DependOptions dep_opts;

  for (const auto& region : regions) {
    // Shared accesses become nodes.
    std::vector<int> node_of(region.accesses.size(), -1);
    for (std::size_t i = 0; i < region.accesses.size(); ++i) {
      const AccessInfo& a = region.accesses[i];
      if (a.sharing != Sharing::Shared || a.var == nullptr) continue;
      DepNode node;
      node.id = static_cast<int>(g.nodes.size());
      node.access = a.text;
      node.line = a.loc.line;
      node.col = a.loc.col;
      node.op = a.is_write ? 'w' : 'r';
      node.sharing = sharing_name(a.sharing);
      node_of[i] = node.id;
      g.nodes.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < region.accesses.size(); ++i) {
      if (node_of[i] < 0) continue;
      for (std::size_t j = i; j < region.accesses.size(); ++j) {
        if (node_of[j] < 0) continue;
        const AccessInfo& a = region.accesses[i];
        const AccessInfo& b = region.accesses[j];
        if (a.var != b.var) continue;
        if (!a.is_write && !b.is_write) continue;
        if (i == j && !a.is_write) continue;
        const ConflictKind kind =
            classify_conflict(a, b, *region.consts, dep_opts);
        if (kind == ConflictKind::None) continue;
        DepEdge edge;
        edge.src = node_of[i];
        edge.dst = node_of[j];
        edge.cross_thread = kind == ConflictKind::CrossThread;
        if (a.is_write && b.is_write) {
          edge.kind = DepEdgeKind::OutputDep;
        } else if (a.is_write) {
          edge.kind = DepEdgeKind::TrueDep;
        } else {
          edge.kind = DepEdgeKind::AntiDep;
        }
        if (kind == ConflictKind::SameThread) {
          edge.kind = DepEdgeKind::SameThread;
        }
        g.edges.push_back(edge);
      }
    }
  }
  return g;
}

DependenceGraph build_dependence_graph(const std::string& source) {
  minic::Program prog = minic::parse_program(source);
  return build_dependence_graph(*prog.unit);
}

}  // namespace drbml::analysis
