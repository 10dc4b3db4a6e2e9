// The shared JSON codec (io/json.hpp): the strict RFC 8259 grammar, the
// byte offsets its errors name, UTF-8 decoding of \u escapes, the nesting
// cap, and the writer's escaping and number formats, which every wire
// line, cache file, bench report and trace goes through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "io/json.hpp"
#include "obs/bench_report.hpp"

namespace swlb::io {
namespace {

using Type = JsonValue::Type;

JsonValue parse(const std::string& text) { return parse_json(text, "test"); }

std::string errorOf(const std::string& text) {
  try {
    parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no error for: " << text;
  return {};
}

TEST(Json, ParsesEveryValueType) {
  const JsonValue v = parse(
      " {\"a\": [1, -2.5e3, true, false, null], \"b\": {\"c\": \"d\"},\r\n"
      "  \"e\": {}, \"f\": []}\t");
  ASSERT_EQ(v.type, Type::Object);
  const JsonValue& a = *v.find("a");
  ASSERT_EQ(a.array.size(), 5u);
  EXPECT_EQ(a.array[0].number, 1.0);
  EXPECT_EQ(a.array[1].number, -2500.0);
  EXPECT_TRUE(a.array[2].boolean);
  EXPECT_EQ(a.array[3].type, Type::Bool);
  EXPECT_FALSE(a.array[3].boolean);
  EXPECT_EQ(a.array[4].type, Type::Null);
  EXPECT_EQ(v.find("b")->find("c")->str, "d");
  EXPECT_TRUE(v.find("e")->object.empty());
  EXPECT_TRUE(v.find("f")->array.empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(a.find("x"), nullptr);  // not an object
}

TEST(Json, NumberGrammarIsStrict) {
  for (const char* ok : {"0", "-0", "12", "0.5", "-0.5e-3", "1E+2", "1e-400"}) {
    SCOPED_TRACE(ok);
    const JsonValue v = parse(ok);
    EXPECT_EQ(v.type, Type::Number);
    EXPECT_EQ(v.number, std::strtod(ok, nullptr));
  }
  for (const char* bad : {"0x10", "+3", ".5", "1.", "infinity", "1e999",
                          "-1e999", "01", "-", "1e", "1e+", "NaN", "-inf",
                          "1-2+3", "1.5.2", "--1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse(bad), Error);
  }
}

TEST(Json, StringEscapesDecodeToUtf8) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\b\f\n\r\t")").str, "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(parse(R"("\u0041\u00e9\u4e2d")").str, "A\xc3\xa9\xe4\xb8\xad");
  EXPECT_EQ(parse(R"("\ud83d\ude00")").str, "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_EQ(parse(R"("\u0000")").str, std::string(1, '\0'));
  EXPECT_EQ(parse("\"\xe4\xb8\xad\"").str, "\xe4\xb8\xad");  // raw UTF-8
  for (const char* bad :
       {R"("\uzzzz")", R"("\u12")", R"("\ud83d")", R"("\ud83dx")",
        R"("\ud83dA")", R"("\ude00")", R"("\x")", "\"a\tb\"",
        "\"a\nb\"", "\"open", "\"\\"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse(bad), Error);
  }
}

TEST(Json, RejectsMalformedStructure) {
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "[1 2]", "{\"a\" 1}", "{\"a\":1,}",
        "{a:1}", "{\"a\":1,\"a\":2}", "[1] [2]", "tru", "nul", "truex",
        "{\"a\":1}}", "\xef\xbb\xbf{}"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse(bad), Error);
  }
}

TEST(Json, NestingIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse(nested(kJsonMaxDepth)));
  EXPECT_THROW(parse(nested(kJsonMaxDepth + 1)), Error);
  EXPECT_THROW(parse(std::string(2000000, '[')), Error);
  EXPECT_THROW(parse(std::string(2000000, '{')), Error);
}

TEST(Json, ErrorsNameContextOffsetAndMember) {
  const std::string e = errorOf("{\"steps\": 1e999}");
  EXPECT_NE(e.find("test: malformed JSON at byte 10"), std::string::npos) << e;
  EXPECT_NE(e.find("'steps'"), std::string::npos) << e;
  EXPECT_NE(errorOf("[1, 2").find("at byte 5"), std::string::npos);
  const std::string dup = errorOf("{\"a\":1, \"a\":2}");
  EXPECT_NE(dup.find("at byte 8"), std::string::npos) << dup;
  EXPECT_NE(dup.find("duplicate key 'a'"), std::string::npos) << dup;
}

TEST(Json, QuoteEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json_quote("\xe4\xb8\xad/"), "\"\xe4\xb8\xad/\"");  // verbatim
  const std::string all = [] {
    std::string s;
    for (int c = 1; c < 256; ++c) s.push_back(static_cast<char>(c));
    return s;
  }();
  EXPECT_EQ(parse(json_quote(all)).str, all);
}

TEST(Json, NumberFormats) {
  EXPECT_EQ(json_number(1e6), "1000000");
  EXPECT_EQ(json_number(-42), "-42");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(json_number(1e20), "1e+20");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity(), 6), "null");
  EXPECT_EQ(json_number(12.5, 6), "12.500000");
  EXPECT_EQ(json_number(1e300, 6).size(), 301u + 7u);
}

TEST(Json, NumbersRoundTripBitExactly) {
  std::uint64_t state = 42;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    const double back = parse(json_number(v)).number;
    if (v == 0) {
      EXPECT_EQ(back, 0.0);  // -0 writes as the integer 0
      continue;
    }
    std::uint64_t backBits;
    std::memcpy(&backBits, &back, sizeof(back));
    EXPECT_EQ(backBits, bits) << json_number(v);
  }
}

TEST(Json, BenchReportParsesWithNullForNonFinite) {
  obs::BenchReport report("bench \"quoted\"");
  obs::BenchReport::Result& r = report.add("row\n1");
  r.set("mlups", 12.5);
  r.set("ratio", std::numeric_limits<double>::infinity());
  r.setText("note", std::string("tab\there\x01", 10));
  std::ostringstream os;
  report.write(os);
  const JsonValue doc = parse(os.str());
  EXPECT_EQ(doc.find("bench")->str, "bench \"quoted\"");
  const JsonValue& row = doc.find("results")->array.at(0);
  EXPECT_EQ(row.find("name")->str, "row\n1");
  EXPECT_EQ(row.find("values")->find("mlups")->number, 12.5);
  EXPECT_EQ(row.find("values")->find("ratio")->type, Type::Null);
  EXPECT_EQ(row.find("text")->find("note")->str,
            std::string("tab\there\x01", 10));
}

}  // namespace
}  // namespace swlb::io
