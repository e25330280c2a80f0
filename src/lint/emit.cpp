#include "lint/emit.hpp"

#include <map>

#include "lint/checks.hpp"

namespace drbml::lint {

namespace {

constexpr const char* kSarifSchema =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json";
constexpr const char* kToolName = "drbml-lint";

std::string loc_prefix(const std::string& name, const minic::SourceLoc& loc) {
  if (loc.line <= 0) return name;
  return name + ":" + std::to_string(loc.line) + ":" + std::to_string(loc.col);
}

json::Object location_object(const std::string& uri,
                             const minic::SourceLoc& loc) {
  json::Object region;
  // SARIF regions are 1-based; clamp file-level diagnostics to 1:1.
  region.set("startLine", loc.line > 0 ? loc.line : 1);
  region.set("startColumn", loc.col > 0 ? loc.col : 1);
  json::Object artifact;
  artifact.set("uri", uri);
  json::Object physical;
  physical.set("artifactLocation", std::move(artifact));
  physical.set("region", std::move(region));
  json::Object location;
  location.set("physicalLocation", std::move(physical));
  return location;
}

}  // namespace

std::string to_text_line(const Diagnostic& d) {
  std::string out = std::string(severity_name(d.severity)) + ": [" +
                    d.check_id + "] " + d.message;
  if (d.loc.line > 0) {
    out = std::to_string(d.loc.line) + ":" + std::to_string(d.loc.col) + ": " +
          out;
  }
  if (!d.fixit.empty()) out += " [fix-it: " + d.fixit + "]";
  return out;
}

std::string to_text(const FileLint& file) {
  std::string out;
  int errors = 0;
  int warnings = 0;
  for (const auto& d : file.report.diagnostics) {
    if (d.severity == Severity::Error) ++errors;
    if (d.severity == Severity::Warning) ++warnings;
    out += loc_prefix(file.name, d.loc) + ": " + severity_name(d.severity) +
           ": [" + d.check_id + "] " + d.message + "\n";
    for (const auto& rel : d.related) {
      out += "  note: " + loc_prefix(file.name, rel.loc) + ": " + rel.message +
             "\n";
    }
    if (!d.fixit.empty()) out += "  fix-it: " + d.fixit + "\n";
  }
  out += file.name + ": " + std::to_string(errors) + " error(s), " +
         std::to_string(warnings) + " warning(s)";
  if (file.report.suppressed > 0) {
    out += ", " + std::to_string(file.report.suppressed) + " suppressed";
  }
  out += "\n";
  return out;
}

json::Value to_json(const FileLint& file) {
  json::Array diags;
  for (const auto& d : file.report.diagnostics) {
    json::Object o;
    o.set("check", d.check_id);
    o.set("severity", severity_name(d.severity));
    o.set("line", d.loc.line);
    o.set("col", d.loc.col);
    o.set("message", d.message);
    if (!d.fixit.empty()) o.set("fixit", d.fixit);
    if (!d.pattern.empty()) o.set("pattern", d.pattern);
    if (!d.related.empty()) {
      json::Array related;
      for (const auto& rel : d.related) {
        json::Object r;
        r.set("line", rel.loc.line);
        r.set("col", rel.loc.col);
        r.set("message", rel.message);
        related.push_back(json::Value(std::move(r)));
      }
      o.set("related", std::move(related));
    }
    diags.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root.set("file", file.name);
  root.set("diagnostics", std::move(diags));
  root.set("suppressed", file.report.suppressed);
  root.set("race_detected", file.report.race.race_detected);
  // Cap truncation is part of the verdict: a consumer that only reads the
  // machine output must still learn that pairs were dropped.
  root.set("race_suppressed_pairs", file.report.race.suppressed_pairs);
  root.set("race_discharged_pairs",
           static_cast<int>(file.report.race.discharged.size()));
  return json::Value(std::move(root));
}

json::Value to_sarif(const std::vector<FileLint>& files) {
  // Rules come from the registry so ruleIndex is stable across runs.
  const auto checks = available_checks();
  std::map<std::string, int> rule_index;
  json::Array rules;
  for (const auto& [id, description] : checks) {
    rule_index[id] = static_cast<int>(rules.size());
    json::Object text;
    text.set("text", description);
    json::Object rule;
    rule.set("id", id);
    rule.set("shortDescription", std::move(text));
    rules.push_back(json::Value(std::move(rule)));
  }

  json::Array results;
  int suppressed = 0;
  int suppressed_pairs = 0;
  for (const auto& file : files) {
    suppressed += file.report.suppressed;
    suppressed_pairs += file.report.race.suppressed_pairs;
    for (const auto& d : file.report.diagnostics) {
      json::Object message;
      message.set("text", d.message);
      json::Array locations;
      locations.push_back(json::Value(location_object(file.name, d.loc)));

      json::Object result;
      result.set("ruleId", d.check_id);
      const auto it = rule_index.find(d.check_id);
      result.set("ruleIndex", it != rule_index.end() ? it->second : -1);
      result.set("level", severity_name(d.severity));
      result.set("message", std::move(message));
      result.set("locations", std::move(locations));
      if (!d.related.empty()) {
        json::Array related;
        for (const auto& rel : d.related) {
          json::Object rel_message;
          rel_message.set("text", rel.message);
          json::Object r;
          r.set("physicalLocation",
                location_object(file.name, rel.loc)
                    .at("physicalLocation"));
          r.set("message", std::move(rel_message));
          related.push_back(json::Value(std::move(r)));
        }
        result.set("relatedLocations", std::move(related));
      }
      json::Object properties;
      if (!d.pattern.empty()) properties.set("pattern", d.pattern);
      if (!d.fixit.empty()) properties.set("fixit", d.fixit);
      if (!properties.empty()) result.set("properties", std::move(properties));
      results.push_back(json::Value(std::move(result)));
    }
  }

  json::Object driver;
  driver.set("name", kToolName);
  driver.set("informationUri", "https://github.com/LLNL/dataracebench");
  driver.set("rules", std::move(rules));
  json::Object tool;
  tool.set("driver", std::move(driver));
  json::Object run;
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  if (suppressed > 0 || suppressed_pairs > 0) {
    json::Object props;
    if (suppressed > 0) props.set("suppressedFindings", suppressed);
    if (suppressed_pairs > 0) {
      // Race pairs dropped at analysis::kMaxReportedPairs; without this
      // a SARIF consumer reads a truncated run as a complete one.
      props.set("suppressedRacePairs", suppressed_pairs);
    }
    run.set("properties", std::move(props));
  }
  json::Array runs;
  runs.push_back(json::Value(std::move(run)));

  json::Object root;
  root.set("$schema", kSarifSchema);
  root.set("version", "2.1.0");
  root.set("runs", std::move(runs));
  return json::Value(std::move(root));
}

bool sarif_shape_ok(const json::Value& sarif, std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  try {
    if (!sarif.is_object()) return fail("top level is not an object");
    const json::Object& root = sarif.as_object();
    if (!root.contains("$schema")) return fail("missing $schema");
    const json::Value* version = root.find("version");
    if (version == nullptr || !version->is_string() ||
        version->as_string() != "2.1.0") {
      return fail("version is not \"2.1.0\"");
    }
    const json::Value* runs = root.find("runs");
    if (runs == nullptr || !runs->is_array() || runs->as_array().empty()) {
      return fail("runs is missing or empty");
    }
    for (const json::Value& run_value : runs->as_array()) {
      const json::Object& run = run_value.as_object();
      const json::Object& driver =
          run.at("tool").as_object().at("driver").as_object();
      if (driver.at("name").as_string() != kToolName) {
        return fail("driver.name is not drbml-lint");
      }
      const json::Array& rules = driver.at("rules").as_array();
      for (const json::Value& result_value : run.at("results").as_array()) {
        const json::Object& result = result_value.as_object();
        const std::string& rule_id = result.at("ruleId").as_string();
        const std::int64_t index = result.at("ruleIndex").as_int();
        if (index < 0 || index >= static_cast<std::int64_t>(rules.size())) {
          return fail("ruleIndex out of range for " + rule_id);
        }
        if (rules[static_cast<std::size_t>(index)]
                .as_object()
                .at("id")
                .as_string() != rule_id) {
          return fail("ruleIndex does not resolve to ruleId " + rule_id);
        }
        const std::string& level = result.at("level").as_string();
        if (level != "error" && level != "warning" && level != "note") {
          return fail("bad level '" + level + "'");
        }
        if (result.at("message").as_object().at("text").as_string().empty()) {
          return fail("empty message.text");
        }
        const json::Array& locations = result.at("locations").as_array();
        if (locations.size() != 1) {
          return fail("result must have exactly one location");
        }
        const json::Object& physical =
            locations[0].as_object().at("physicalLocation").as_object();
        if (physical.at("artifactLocation")
                .as_object()
                .at("uri")
                .as_string()
                .empty()) {
          return fail("empty artifactLocation.uri");
        }
        const json::Object& region = physical.at("region").as_object();
        if (region.at("startLine").as_int() < 1 ||
            region.at("startColumn").as_int() < 1) {
          return fail("region start below 1");
        }
      }
    }
  } catch (const JsonError& e) {
    return fail(std::string("schema access failed: ") + e.what());
  }
  return true;
}

}  // namespace drbml::lint
