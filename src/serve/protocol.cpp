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

std::string make_ok_response(const std::string& id, Verb verb,
                             json::Value result) {
  json::Object o;
  o.set("id", json::Value(id));
  o.set("ok", json::Value(true));
  o.set("verb", json::Value(verb_name(verb)));
  o.set("result", std::move(result));
  return json::Value(std::move(o)).dump();
}

std::string make_error_response(const std::string& id, const std::string& kind,
                                const std::string& message) {
  json::Object err;
  err.set("kind", json::Value(kind));
  err.set("message", json::Value(message));
  json::Object o;
  o.set("id", json::Value(id));
  o.set("ok", json::Value(false));
  o.set("error", json::Value(std::move(err)));
  return json::Value(std::move(o)).dump();
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

json::Value race_report_to_json(const analysis::RaceReport& r) {
  json::Object o;
  o.set("race", json::Value(r.race_detected));
  json::Array pairs;
  for (const analysis::RacePair& p : r.pairs) {
    json::Object po;
    po.set("first", json::Value(access_to_json(p.first)));
    po.set("second", json::Value(access_to_json(p.second)));
    if (!p.note.empty()) po.set("note", json::Value(p.note));
    pairs.push_back(json::Value(std::move(po)));
  }
  o.set("pairs", json::Value(std::move(pairs)));
  o.set("discharged", json::Value(static_cast<std::int64_t>(r.discharged.size())));
  json::Array diags;
  for (const std::string& d : r.diagnostics) diags.push_back(json::Value(d));
  o.set("diagnostics", json::Value(std::move(diags)));
  return json::Value(std::move(o));
}

json::Value lint_report_to_json(const lint::LintReport& r) {
  json::Object o;
  o.set("race", json::Value(r.race.race_detected));
  json::Array diags;
  for (const lint::Diagnostic& d : r.diagnostics) {
    json::Object dobj;
    dobj.set("check", json::Value(d.check_id));
    dobj.set("line", json::Value(d.loc.line));
    dobj.set("message", json::Value(d.message));
    if (!d.fixit.empty()) dobj.set("fixit", json::Value(d.fixit));
    diags.push_back(json::Value(std::move(dobj)));
  }
  o.set("diagnostics", json::Value(std::move(diags)));
  o.set("suppressed", json::Value(r.suppressed));
  return json::Value(std::move(o));
}

json::Value repair_result_to_json(const repair::RepairResult& r) {
  json::Object o;
  o.set("status", json::Value(repair::repair_status_name(r.status)));
  o.set("patched", json::Value(r.patched));
  if (!r.patch_id.empty()) o.set("patch_id", json::Value(r.patch_id));
  if (!r.description.empty()) o.set("description", json::Value(r.description));
  if (!r.family.empty()) o.set("family", json::Value(r.family));
  o.set("attempts", json::Value(r.attempts));
  if (!r.message.empty()) o.set("message", json::Value(r.message));
  return json::Value(std::move(o));
}

json::Value explore_result_to_json(const explore::ExploreResult& r) {
  json::Object o;
  o.set("race", json::Value(r.race_detected));
  o.set("schedules_run", json::Value(r.schedules_run));
  o.set("first_race_schedule", json::Value(r.first_race_schedule));
  o.set("coverage_points",
        json::Value(static_cast<std::int64_t>(r.coverage.size())));
  o.set("witness", json::Value(r.witness));
  return json::Value(std::move(o));
}

}  // namespace drbml::serve
