// Golden serve fingerprints: the bytes `drbml serve` answers a fixed set of
// request lines with, pinned in a committed file.
//
// tests/golden/serve_fingerprints.txt holds one line per request:
//
//   PART NAME LABEL len=N hash=H
//
// where N is the response line's length in bytes and H the 64-bit FNV-1a
// hash of those bytes. Every request goes through Server::handle_line on
// a one-worker server. The parts, in file order:
//
//   corpus NAME ...   the 202 corpus files, each as `analyze` under
//                     static, dynamic, hybrid, lint, explore,
//                     explore:uniform and explore:pct, then `lint`, `fix`
//                     and `explore`;
//   synth NAME ...    the same ten requests for the 200 synth kernels of
//                     seed 7 that the runtime golden file uses;
//   entry NAME ...    every corpus entry by name (`entry` instead of
//                     `code`) under `analyze` with the default detector,
//                     `lint`, `fix` and `explore`;
//   edge K ...        fixed edge lines: malformed JSON, unknown verbs and
//                     detectors, an llm:* detector, missing code, unknown
//                     entries, ids and code holding quotes, backslashes,
//                     control characters and bytes >= 0x80, and programs
//                     that do not parse.
//
// `stats` is left out: its counters depend on what ran before. So are
// programs that fault before they fork a team: the dynamic detector runs
// such a program once, whatever its seed list.
//
// A serializer, protocol or detector change that moves one response byte
// fails here. Regenerate the file (only for an intended behaviour change)
// with
//
//   build/tests/serve_golden_test --regenerate
//
// which rewrites it and exits.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "serve/server.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

#ifndef DRBML_GOLDEN_FILE
#error "DRBML_GOLDEN_FILE must name tests/golden/serve_fingerprints.txt"
#endif

namespace drbml {
namespace {

/// One request line and the label its fingerprint line carries.
struct Request {
  std::string label;
  std::string line;
};

std::string code_request(const std::string& id, const std::string& verb,
                         const std::string& code,
                         const std::string& detector) {
  std::string line = "{\"id\":\"" + json::escape(id) + "\",\"verb\":\"" +
                     verb + "\"";
  if (!detector.empty()) line += ",\"detector\":\"" + detector + "\"";
  return line + ",\"code\":\"" + json::escape(code) + "\"}";
}

/// The ten requests of one program: analyze under every non-LLM spec,
/// then the lint, fix and explore verbs.
void add_program(std::vector<Request>& out, const std::string& part,
                 const std::string& name, const std::string& code) {
  static const char* const kSpecs[] = {
      "static",  "dynamic",         "hybrid",      "lint",
      "explore", "explore:uniform", "explore:pct",
  };
  for (const char* spec : kSpecs) {
    const std::string label = std::string("analyze:") + spec;
    out.push_back({part + " " + name + " " + label,
                   code_request(name + "/" + label, "analyze", code, spec)});
  }
  for (const char* verb : {"lint", "fix", "explore"}) {
    out.push_back({part + " " + name + " " + verb,
                   code_request(name + "/" + verb, verb, code, "")});
  }
}

std::vector<Request> corpus_requests() {
  std::vector<Request> out;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    add_program(out, "corpus", e.name, drb::drb_code(e));
  }
  return out;
}

std::vector<Request> synth_requests() {
  drb::SynthConfig config;
  config.count = 200;
  config.seed = 7;
  std::vector<Request> out;
  for (const drb::SynthEntry& e : drb::synthesize(config)) {
    add_program(out, "synth", e.name, e.code);
  }
  return out;
}

std::vector<Request> entry_requests() {
  std::vector<Request> out;
  for (const drb::CorpusEntry& e : drb::corpus()) {
    for (const char* verb : {"analyze", "lint", "fix", "explore"}) {
      out.push_back({std::string("entry ") + e.name + " " + verb,
                     "{\"id\":\"" + e.name + "/entry/" + verb +
                         "\",\"verb\":\"" + verb + "\",\"entry\":\"" +
                         e.name + "\"}"});
    }
  }
  return out;
}

/// Fixed edge lines. Each program here either forks a team, runs to its
/// end without one, or does not parse.
std::vector<Request> edge_requests() {
  const std::string serial = "int main() { return 0; }\n";
  const std::string racy =
      "int main() {\n"
      "  int sum = 0;\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < 8; i++) sum = sum + i;\n"
      "  return sum;\n"
      "}\n";
  // String literals with escapes, a comment with bytes >= 0x80 and one
  // with a control character.
  const std::string quoting =
      "// caf\xc3\xa9 \x01 \"quoted\" back\\slash\n"
      "int main() {\n"
      "  int x = 0;\n"
      "#pragma omp parallel\n"
      "  {\n"
      "    printf(\"a \\\"b\\\" c\\\\d\\n\");\n"
      "    x = x + 1;\n"
      "  }\n"
      "  return x;\n"
      "}\n";
  const std::string unparseable = "int main( { this will not parse";
  const std::string stray_control = "int main() { int x = 1; \x02 return x; }";
  const std::string stray_high = "int main() { int \xc3\xa9 = 1; return 0; }";
  std::string nested_50 = "0";
  for (int i = 0; i < 50; ++i) nested_50 = "[" + nested_50 + "]";

  const std::vector<std::string> lines = {
      // Malformed JSON.
      "this is not json",
      "{",
      "{\"id\":\"t\",\"verb\":\"analyze\",\"code\":\"int main",
      "{\"id\":\"t\",\"verb\":\"analyze\",\"code\":\"x\\q\"}",
      "{\"id\":\"t\",\"verb\":\"analyze\",\"code\":\"\\u12G4\"}",
      "{\"id\":\"t\",\"verb\":\"lint\"} trailing",
      "{\"id\":\"t\",\"verb\":\"lint\",}",
      "{\"id\":\"t\" \"verb\":\"lint\"}",
      "{\"id\":\"t\",\"verb\":tru}",
      "{\"id\":\"t\",\"priority\":-}",
      "\"just a string\"",
      "[1,2,3]",
      "null",
      // Valid JSON, invalid requests.
      "{\"verb\":\"lint\"}",
      "{\"id\":\"\",\"verb\":\"lint\"}",
      "{\"id\":7,\"verb\":\"lint\"}",
      "{\"id\":\"v\"}",
      "{\"id\":\"v\",\"verb\":\"frobnicate\"}",
      "{\"id\":\"v\",\"verb\":3}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"detector\":\"llm:gpt4:p1\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"detector\":\"llm:\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"detector\":\"explore:dfs\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"detector\":\"psychic\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"detector\":5}",
      "{\"id\":\"v\",\"verb\":\"analyze\"}",
      "{\"id\":\"v\",\"verb\":\"lint\",\"code\":\"\"}",
      "{\"id\":\"v\",\"verb\":\"fix\"}",
      "{\"id\":\"v\",\"verb\":\"explore\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":7}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"entry\":\"no-such-entry.c\"}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"entry\":[]}",
      "{\"id\":\"v\",\"verb\":\"analyze\",\"code\":\"int main(){}\","
      "\"entry\":\"DRB001-antidep1-orig-yes.c\"}",
      "{\"id\":\"v\",\"verb\":\"lint\",\"code\":\"int main(){}\","
      "\"deadline_ms\":-5}",
      "{\"id\":\"v\",\"verb\":\"lint\",\"code\":\"int main(){}\","
      "\"priority\":\"high\"}",
      "{\"id\":\"v\",\"verb\":\"lint\",\"code\":\"int main(){}\","
      "\"priority\":99999999999999999999}",
      "{\"id\":\"v\",\"verb\":\"lint\",\"code\":\"int main(){}\","
      "\"priority\":1.5}",
      // Ids that need escaping, duplicate keys, extra keys.
      code_request("q\"uo\\te", "analyze", racy, "static"),
      code_request("ctl\x01\x1f\t\n\r\b\f", "lint", serial, ""),
      code_request("caf\xc3\xa9 \xe2\x9c\x93 \xff", "analyze", serial,
                   "dynamic"),
      "{\"id\":\"\\u00e9\\u2713\\u0001\\/\",\"verb\":\"lint\","
      "\"code\":\"int main() { return 0; }\"}",
      "{\"id\":\"first\",\"id\":\"second\",\"verb\":\"lint\","
      "\"code\":\"int main() { return 0; }\"}",
      "{\"id\":\"x\",\"verb\":\"lint\",\"verb\":\"explore\","
      "\"code\":\"int main() { return 0; }\"}",
      "{\"id\":\"x\",\"verb\":\"lint\",\"unknown\":{\"a\":[1,2,{}]},"
      "\"nested\":" + nested_50 + ",\"code\":\"int main() { return 0; }\"}",
      "  {\"id\":\"ws\" , \"verb\" : \"lint\" , \"code\" : "
      "\"int main() { return 0; }\" , \"priority\" : 3 , "
      "\"deadline_ms\" : 60000 }  ",
      // Code that needs escaping in responses.
      code_request("quoting", "analyze", quoting, "static"),
      code_request("quoting", "analyze", quoting, "hybrid"),
      code_request("quoting", "lint", quoting, ""),
      code_request("quoting", "fix", quoting, ""),
      code_request("quoting", "explore", quoting, ""),
      code_request("serial", "analyze", serial, "hybrid"),
      code_request("serial", "fix", serial, ""),
      code_request("serial", "explore", serial, ""),
      // Programs that do not parse.
      code_request("unparseable", "analyze", unparseable, "static"),
      code_request("unparseable", "analyze", unparseable, "dynamic"),
      code_request("unparseable", "analyze", unparseable, "hybrid"),
      code_request("unparseable", "analyze", unparseable, "lint"),
      code_request("unparseable", "analyze", unparseable, "explore"),
      code_request("unparseable", "lint", unparseable, ""),
      code_request("unparseable", "fix", unparseable, ""),
      code_request("unparseable", "explore", unparseable, ""),
      code_request("stray-control", "analyze", stray_control, "static"),
      code_request("stray-control", "lint", stray_control, ""),
      code_request("stray-high", "analyze", stray_high, "hybrid"),
      code_request("stray-high", "fix", stray_high, ""),
  };
  std::vector<Request> out;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    out.push_back({"edge " + std::to_string(k), lines[k]});
  }
  return out;
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

enum class Part { Corpus, Synth, Entry, Edge };
constexpr Part kParts[] = {Part::Corpus, Part::Synth, Part::Entry, Part::Edge};

const char* part_prefix(Part part) {
  switch (part) {
    case Part::Corpus: return "corpus ";
    case Part::Synth: return "synth ";
    case Part::Entry: return "entry ";
    case Part::Edge: return "edge ";
  }
  return "?";
}

/// The golden lines of one part, in file order.
std::vector<std::string> compute(Part part) {
  std::vector<Request> requests;
  switch (part) {
    case Part::Corpus: requests = corpus_requests(); break;
    case Part::Synth: requests = synth_requests(); break;
    case Part::Entry: requests = entry_requests(); break;
    case Part::Edge: requests = edge_requests(); break;
  }
  serve::ServerOptions opts;
  opts.jobs = 1;
  serve::Server server(opts);
  std::vector<std::string> out;
  out.reserve(requests.size());
  for (const Request& r : requests) {
    const std::string response = server.handle_line(r.line);
    out.push_back(r.label + " len=" + std::to_string(response.size()) +
                  " hash=" + hex(fnv1a64(response)));
  }
  return out;
}

std::vector<std::string> golden_lines(Part part) {
  std::ifstream in(DRBML_GOLDEN_FILE);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(part_prefix(part), 0) == 0) out.push_back(line);
  }
  return out;
}

void expect_matches_golden(Part part) {
  const std::vector<std::string> want = golden_lines(part);
  ASSERT_FALSE(want.empty()) << "no golden lines in " << DRBML_GOLDEN_FILE;
  const std::vector<std::string> got = compute(part);
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] != got[i]) {
      FAIL() << "first differing line (" << i + 1 << " of the "
             << part_prefix(part) << "lines):\n  golden: " << want[i]
             << "\n  actual: " << got[i];
    }
  }
  EXPECT_EQ(want.size(), got.size()) << "line count differs";
}

TEST(ServeGolden, CorpusResponsesMatchGolden) {
  expect_matches_golden(Part::Corpus);
}

TEST(ServeGolden, SynthResponsesMatchGolden) {
  expect_matches_golden(Part::Synth);
}

TEST(ServeGolden, EntryResponsesMatchGolden) {
  expect_matches_golden(Part::Entry);
}

TEST(ServeGolden, EdgeLineResponsesMatchGolden) {
  expect_matches_golden(Part::Edge);
}

int regenerate() {
  std::ofstream out(DRBML_GOLDEN_FILE);
  for (Part part : kParts) {
    for (const std::string& line : compute(part)) out << line << "\n";
  }
  out.close();
  if (!out) {
    std::cerr << "cannot write " << DRBML_GOLDEN_FILE << "\n";
    return 1;
  }
  std::cout << "wrote " << DRBML_GOLDEN_FILE << "\n";
  return 0;
}

}  // namespace
}  // namespace drbml

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--regenerate") == 0) {
    return drbml::regenerate();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
