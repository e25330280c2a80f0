#include "serve/protocol.hpp"

#include "core/detector.hpp"
#include "drb/corpus.hpp"
#include "lint/emit.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace drbml::serve {

const char* verb_name(Verb v) noexcept {
  switch (v) {
    case Verb::Analyze: return "analyze";
    case Verb::Lint: return "lint";
    case Verb::Fix: return "fix";
    case Verb::Explore: return "explore";
    case Verb::Stats: return "stats";
    case Verb::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

ParseOutcome fail(std::string id, const char* kind, std::string message) {
  ParseOutcome out;
  out.error_kind = kind;
  out.error_message = std::move(message);
  out.id = std::move(id);
  return out;
}

bool verb_from_name(const std::string& name, Verb& out) {
  if (name == "analyze") out = Verb::Analyze;
  else if (name == "lint") out = Verb::Lint;
  else if (name == "fix") out = Verb::Fix;
  else if (name == "explore") out = Verb::Explore;
  else if (name == "stats") out = Verb::Stats;
  else if (name == "shutdown") out = Verb::Shutdown;
  else return false;
  return true;
}

bool needs_code(Verb v) noexcept {
  return v == Verb::Analyze || v == Verb::Lint || v == Verb::Fix ||
         v == Verb::Explore;
}

}  // namespace

ParseOutcome parse_request(const std::string& line) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const Error& e) {
    return fail("", "bad_json", e.what());
  }
  if (!doc.is_object()) {
    return fail("", "bad_request", "request must be a JSON object");
  }
  const json::Object& obj = doc.as_object();

  std::string id;
  if (const json::Value* v = obj.find("id")) {
    if (!v->is_string()) return fail("", "bad_request", "'id' must be a string");
    id = v->as_string();
  }
  if (id.empty()) return fail("", "bad_request", "missing non-empty 'id'");

  const json::Value* verb_val = obj.find("verb");
  if (verb_val == nullptr || !verb_val->is_string()) {
    return fail(id, "bad_request", "missing 'verb' string");
  }
  Request req;
  req.id = id;
  if (!verb_from_name(verb_val->as_string(), req.verb)) {
    return fail(id, "bad_request",
                "unknown verb '" + verb_val->as_string() + "'");
  }

  if (const json::Value* v = obj.find("priority")) {
    if (!v->is_int()) return fail(id, "bad_request", "'priority' must be an integer");
    req.priority = static_cast<int>(v->as_int());
  }
  if (const json::Value* v = obj.find("deadline_ms")) {
    if (!v->is_int() || v->as_int() < 0) {
      return fail(id, "bad_request", "'deadline_ms' must be a non-negative integer");
    }
    req.deadline_ms = v->as_int();
  }
  if (const json::Value* v = obj.find("detector")) {
    if (!v->is_string()) return fail(id, "bad_request", "'detector' must be a string");
    req.detector = v->as_string();
    if (starts_with(req.detector, "llm:")) {
      return fail(id, "bad_request",
                  "'detector' may not be an llm:* spec: a response has no "
                  "field for the model's reply");
    }
    try {
      (void)core::make_detector(req.detector);
    } catch (const Error& e) {
      return fail(id, "bad_request", std::string("'detector': ") + e.what());
    }
  }

  const json::Value* code_val = obj.find("code");
  const json::Value* entry_val = obj.find("entry");
  if (code_val != nullptr && entry_val != nullptr) {
    return fail(id, "bad_request", "'code' and 'entry' are exclusive");
  }
  if (code_val != nullptr) {
    if (!code_val->is_string()) {
      return fail(id, "bad_request", "'code' must be a string");
    }
    req.code = code_val->as_string();
  } else if (entry_val != nullptr) {
    if (!entry_val->is_string()) {
      return fail(id, "bad_request", "'entry' must be a string");
    }
    const drb::CorpusEntry* e = drb::find_entry(entry_val->as_string());
    if (e == nullptr) {
      return fail(id, "bad_request",
                  "no such corpus entry '" + entry_val->as_string() + "'");
    }
    req.code = drb::drb_code(*e);
  }
  if (needs_code(req.verb) && req.code.empty()) {
    return fail(id, "bad_request",
                std::string("'") + verb_name(req.verb) +
                    "' requires 'code' or 'entry'");
  }

  ParseOutcome out;
  out.ok = true;
  out.request = std::move(req);
  out.id = std::move(id);
  return out;
}

std::string make_error_response(std::string_view id, std::string_view kind,
                                std::string_view message) {
  std::string out;
  json::Writer w(out);
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("error").begin_object();
  w.key("kind").value(kind);
  w.key("message").value(message);
  w.end_object();
  w.end_object();
  return out;
}

json::Object access_to_json(const analysis::RaceAccess& a) {
  json::Object o;
  o.set("expr", json::Value(a.expr_text));
  o.set("var", json::Value(a.var_name));
  o.set("line", json::Value(a.loc.line));
  o.set("col", json::Value(a.loc.col));
  o.set("op", json::Value(std::string(1, a.op)));
  return o;
}

namespace {

void write_access(json::Writer& w, const analysis::RaceAccess& a) {
  w.begin_object();
  w.key("expr").value(a.expr_text);
  w.key("var").value(a.var_name);
  w.key("line").value(a.loc.line);
  w.key("col").value(a.loc.col);
  w.key("op").value(std::string_view(&a.op, 1));
  w.end_object();
}

}  // namespace

void write_analyze_result(json::Writer& w, const analysis::RaceReport& r,
                          int tokens) {
  w.begin_object();
  w.key("race").value(r.race_detected);
  w.key("pairs").begin_array();
  for (const analysis::RacePair& p : r.pairs) {
    w.begin_object();
    w.key("first");
    write_access(w, p.first);
    w.key("second");
    write_access(w, p.second);
    if (!p.note.empty()) w.key("note").value(p.note);
    w.end_object();
  }
  w.end_array();
  w.key("discharged").value(static_cast<std::int64_t>(r.discharged.size()));
  w.key("diagnostics").begin_array();
  for (const std::string& d : r.diagnostics) w.value(d);
  w.end_array();
  w.key("tokens").value(tokens);
  w.end_object();
}

void write_lint_result(json::Writer& w, const lint::LintReport& r,
                       int tokens) {
  w.begin_object();
  w.key("race").value(r.race.race_detected);
  w.key("diagnostics").begin_array();
  for (const lint::Diagnostic& d : r.diagnostics) {
    w.begin_object();
    w.key("check").value(d.check_id);
    w.key("line").value(d.loc.line);
    w.key("message").value(d.message);
    if (!d.fixit.empty()) w.key("fixit").value(d.fixit);
    w.end_object();
  }
  w.end_array();
  w.key("suppressed").value(r.suppressed);
  w.key("tokens").value(tokens);
  w.end_object();
}

void write_fix_result(json::Writer& w, const repair::RepairResult& r) {
  w.begin_object();
  w.key("status").value(repair::repair_status_name(r.status));
  w.key("patched").value(r.patched);
  if (!r.patch_id.empty()) w.key("patch_id").value(r.patch_id);
  if (!r.description.empty()) w.key("description").value(r.description);
  if (!r.family.empty()) w.key("family").value(r.family);
  w.key("attempts").value(r.attempts);
  if (!r.message.empty()) w.key("message").value(r.message);
  w.end_object();
}

void write_explore_result(json::Writer& w, const explore::ExploreResult& r) {
  w.begin_object();
  w.key("race").value(r.race_detected);
  w.key("schedules_run").value(r.schedules_run);
  w.key("first_race_schedule").value(r.first_race_schedule);
  w.key("coverage_points")
      .value(static_cast<std::int64_t>(r.coverage.size()));
  w.key("witness").value(r.witness);
  w.end_object();
}

}  // namespace drbml::serve
