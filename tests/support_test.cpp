// Unit tests for the support library: JSON, RNG, strings, tables.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace drbml {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> v = {"x", "y", "z"};
  EXPECT_EQ(join(v, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ContainsIcase) {
  EXPECT_TRUE(contains_icase("Hello World", "WORLD"));
  EXPECT_TRUE(contains_icase("abc", ""));
  EXPECT_FALSE(contains_icase("abc", "abcd"));
  EXPECT_FALSE(contains_icase("data race", "racer"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, CountLines) {
  EXPECT_EQ(count_lines(""), 0);
  EXPECT_EQ(count_lines("a"), 1);
  EXPECT_EQ(count_lines("a\n"), 1);
  EXPECT_EQ(count_lines("a\nb"), 2);
  EXPECT_EQ(count_lines("a\nb\n"), 2);
}

TEST(Strings, SplitLines) {
  auto lines = split_lines("one\ntwo\n\nthree");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "three");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(0.5954, 3), "0.595");
  EXPECT_EQ(format_double(1.0, 2), "1.00");
}

TEST(Strings, ParseIntAcceptsStrictDecimals) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("+5"), 5);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("9223372036854775807"), 9223372036854775807LL);
}

TEST(Strings, ParseIntRejectsNonNumericInput) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("+").has_value());
  EXPECT_FALSE(parse_int(" 3").has_value());
  EXPECT_FALSE(parse_int("3 ").has_value());
}

TEST(Strings, ParseIntRejectsOverflow) {
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int("123456789012345678901234").has_value());
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicFromKey) {
  Rng a = Rng::from_key("table3/gpt4/p1");
  Rng b = Rng::from_key("table3/gpt4/p1");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentKeysDiverge) {
  Rng a = Rng::from_key("alpha");
  Rng b = Rng::from_key("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(7), 7u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(1);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng r(9);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(3);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, BetweenInclusive) {
  Rng r(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    auto x = r.between(-2, 2);
    ASSERT_GE(x, -2);
    ASSERT_LE(x, 2);
    saw_lo |= x == -2;
    saw_hi |= x == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ---------------------------------------------------------------- json

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_EQ(json::parse("true").as_bool(), true);
  EXPECT_EQ(json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntAndDoubleAreDistinct) {
  EXPECT_TRUE(json::parse("3").is_int());
  EXPECT_TRUE(json::parse("3.0").is_double());
  EXPECT_TRUE(json::parse("3e2").is_double());
}

TEST(Json, ParsesNestedStructures) {
  auto v = json::parse(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  const auto& obj = v.as_object();
  ASSERT_TRUE(obj.contains("a"));
  const auto& arr = obj.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1].as_int(), 2);
  EXPECT_TRUE(arr[2].as_object().at("b").is_null());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json::Object obj;
  obj.set("zeta", json::Value(1));
  obj.set("alpha", json::Value(2));
  obj.set("mid", json::Value(3));
  json::Value v(std::move(obj));
  EXPECT_EQ(v.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
}

TEST(Json, SetOverwritesInPlace) {
  json::Object obj;
  obj.set("k", json::Value(1));
  obj.set("k", json::Value(9));
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.at("k").as_int(), 9);
}

TEST(Json, RepeatedKeyKeepsFirstPositionAndTakesLastValue) {
  EXPECT_EQ(json::parse(R"({"a":1,"b":2,"a":3})").dump(),
            R"({"a":3,"b":2})");
  // Past the scanned size too, where the keys are indexed.
  std::string text = "{";
  std::string want = "{";
  for (int i = 0; i < 40; ++i) {
    const std::string member = "\"k" + std::to_string(i) + "\":";
    text += member + std::to_string(i) + ",";
    want += member + (i == 3 ? std::string("-1") : std::to_string(i)) +
            (i + 1 < 40 ? "," : "}");
  }
  text += R"("k3":7,"k3":-1})";
  const json::Value v = json::parse(text);
  EXPECT_EQ(v.dump(), want);
  EXPECT_EQ(v.as_object().size(), 40u);
  EXPECT_EQ(v.as_object().at("k3").as_int(), -1);
  EXPECT_EQ(v.as_object().find("k40"), nullptr);
}

TEST(Json, ObjectOfManyDistinctKeysParsesInLinearTime) {
  // A linear scan per key took minutes for this many.
  constexpr int kKeys = 100'000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    text += (i > 0 ? ",\"key" : "\"key") + std::to_string(i) + "\":" +
            std::to_string(i);
  }
  text += "}";
  const auto start = std::chrono::steady_clock::now();
  const json::Value v = json::parse(text);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const json::Object& obj = v.as_object();
  ASSERT_EQ(obj.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; i += 997) {
    EXPECT_EQ(obj.at("key" + std::to_string(i)).as_int(), i);
  }
  int i = 0;
  for (const json::Member& m : obj) {
    EXPECT_EQ(m.first, "key" + std::to_string(i++));
  }
  EXPECT_LT(seconds, 5.0);
}

TEST(Json, EscapesSpecialCharacters) {
  json::Value v(std::string("line1\nline2\t\"q\"\\"));
  const std::string dumped = v.dump();
  EXPECT_EQ(json::parse(dumped).as_string(), "line1\nline2\t\"q\"\\");
}

TEST(Json, RoundTripsThroughDump) {
  const char* text =
      R"({"ID":1,"name":"DRB001","data_race":1,"var_pairs":[{"name":["a[i]","a[i+1]"],"line":[14,14],"col":[5,10],"operation":["w","r"]}]})";
  auto v = json::parse(text);
  auto v2 = json::parse(v.dump());
  EXPECT_EQ(v.dump(), v2.dump());
}

TEST(Json, PrettyPrintParsesBack) {
  auto v = json::parse(R"({"a":[1,2],"b":{"c":true}})");
  auto v2 = json::parse(v.dump_pretty());
  EXPECT_EQ(v.dump(), v2.dump());
}

TEST(Json, ThrowsOnMalformedInput) {
  EXPECT_THROW(json::parse(""), JsonError);
  EXPECT_THROW(json::parse("{"), JsonError);
  EXPECT_THROW(json::parse("[1,]"), JsonError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(json::parse("tru"), JsonError);
  EXPECT_THROW(json::parse("1 2"), JsonError);
}

TEST(Json, ThrowsOnTypeMismatch) {
  auto v = json::parse("[1]");
  EXPECT_THROW((void)v.as_object(), JsonError);
  EXPECT_THROW((void)v.as_string(), JsonError);
  EXPECT_THROW((void)v.as_array()[0].as_bool(), JsonError);
}

TEST(Json, UnicodeEscapes) {
  auto v = json::parse(R"("Aé")");
  EXPECT_EQ(v.as_string(), "A\xc3\xa9");
}

TEST(Json, MissingKeyThrows) {
  auto v = json::parse(R"({"a":1})");
  EXPECT_THROW((void)v.as_object().at("b"), JsonError);
  EXPECT_EQ(v.as_object().find("b"), nullptr);
}

TEST(Json, StringsWithEscapesParseByteForByte) {
  // Runs of plain bytes between escapes, raw bytes >= 0x80 and a raw
  // control character are copied as they are.
  const auto v = json::parse("\"ab\\\"cd\\\\e\\nf\\u0041g\xc3\xa9\x01h\\/\"");
  EXPECT_EQ(v.as_string(), "ab\"cd\\e\nfAg\xc3\xa9\x01h/");
  EXPECT_EQ(json::parse("\"\"").as_string(), "");
  EXPECT_EQ(json::parse("\"\\\\\"").as_string(), "\\");
}

TEST(Json, MalformedStringsNameTheirOffset) {
  const auto message = [](std::string_view text) {
    try {
      (void)json::parse(text);
    } catch (const JsonError& e) {
      return std::string(e.what());
    }
    return std::string("parsed");
  };
  EXPECT_EQ(message("\"abc"), "json: unexpected end of input at offset 4");
  EXPECT_EQ(message("\"ab\\"), "json: unexpected end of input at offset 4");
  EXPECT_EQ(message("\"a\\qb\""), "json: invalid escape at offset 4");
  EXPECT_EQ(message("\"\\u12G4\""), "json: invalid \\u escape at offset 6");
  EXPECT_EQ(message("\"\\u12"), "json: unexpected end of input at offset 5");
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

std::string nested_objects(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "{\"k\":";
  text += "0";
  return text + std::string(static_cast<std::size_t>(depth), '}');
}

TEST(Json, NestingUpToTheBoundParses) {
  const json::Value arrays = json::parse(nested_arrays(json::kMaxDepth));
  EXPECT_EQ(arrays.dump(), nested_arrays(json::kMaxDepth));
  const json::Value objects = json::parse(nested_objects(json::kMaxDepth));
  EXPECT_EQ(objects.dump(), nested_objects(json::kMaxDepth));
  // Depth counts open containers, not containers seen: a long flat run
  // of siblings stays at depth two.
  std::string wide = "[";
  for (int i = 0; i < 4 * json::kMaxDepth; ++i) wide += i == 0 ? "[]" : ",[]";
  EXPECT_EQ(json::parse(wide + "]").as_array().size(),
            static_cast<std::size_t>(4 * json::kMaxDepth));
}

TEST(Json, NestingPastTheBoundFailsAtTheOffendingBracket) {
  const std::string want = "json: nesting deeper than " +
                           std::to_string(json::kMaxDepth) +
                           " levels at offset " +
                           std::to_string(json::kMaxDepth);
  for (const std::string& text :
       {nested_arrays(json::kMaxDepth + 1),
        std::string(static_cast<std::size_t>(json::kMaxDepth) + 1, '[')}) {
    try {
      (void)json::parse(text);
      ADD_FAILURE() << "parsed " << text.size() << " bytes";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
  try {
    (void)json::parse(nested_objects(json::kMaxDepth + 1));
    ADD_FAILURE() << "parsed nested objects past the bound";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
}

TEST(Json, HostileDepthFailsAtTheBoundNotTheStack) {
  EXPECT_THROW(json::parse(std::string(1'000'000, '[')), JsonError);
  std::string mixed;
  for (int i = 0; i < 200'000; ++i) mixed += "{\"a\":[";
  EXPECT_THROW(json::parse(mixed), JsonError);
}

TEST(Json, EscapeAppendsPlainRunsAndEscapesTheRest) {
  EXPECT_EQ(json::escape("plain text"), "plain text");
  const std::string_view raw(
      "a\"b\\c\nd\re\tf\bg\fh\x01\x1f\x7f\xc3\xa9\0", 21);
  EXPECT_EQ(json::escape(raw),
            "a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001\\u001f\x7f\xc3\xa9"
            "\\u0000");
  std::string out = "prefix:";
  json::append_escaped(out, "q\"");
  EXPECT_EQ(out, "prefix:q\\\"");
}

TEST(Json, WriterWritesTheBytesDumpWrites) {
  json::Object access;
  access.set("expr", json::Value("a[i]"));
  access.set("line", json::Value(12));
  json::Object root;
  root.set("id", json::Value("r\"1\n"));
  root.set("ok", json::Value(true));
  root.set("none", json::Value(false));
  root.set("empty_list", json::Value(json::Array{}));
  root.set("empty_object", json::Value(json::Object{}));
  root.set("list", json::Value(json::Array{json::Value(access),
                                           json::Value(-7),
                                           json::Value(INT64_MIN)}));
  root.set("strings", json::Value(json::Array{json::Value(""),
                                              json::Value("\x01")}));

  std::string out;
  json::Writer w(out);
  w.begin_object();
  w.key("id").value("r\"1\n");
  w.key("ok").value(true);
  w.key("none").value(false);
  w.key("empty_list").begin_array().end_array();
  w.key("empty_object").begin_object().end_object();
  w.key("list").begin_array();
  w.begin_object().key("expr").value("a[i]").key("line").value(12).end_object();
  w.value(-7).value(std::int64_t{INT64_MIN});
  w.end_array();
  w.key("strings").begin_array().value("").value(std::string("\x01"));
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, json::Value(root).dump());
}

TEST(Json, WriterAppendsToWhatTheStringHolds) {
  std::string out = "[1,";
  json::Writer w(out);
  w.begin_array().value(2).end_array();
  EXPECT_EQ(out, "[1,[2]");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Model", "F1"});
  t.add_row({"GPT4", "0.751"});
  t.add_row({"StarChat-beta", "0.545"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Model         |"), std::string::npos);
  EXPECT_NE(out.find("| 0.751 |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace drbml
