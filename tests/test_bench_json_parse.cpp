// The json_parse half of bench_json: round-trips documents produced by
// JsonWriter (the bench_runner output format consumed by tools/bench_compare),
// rejects malformed input, and reads the machine stamp bench_runner writes.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/bench_json.hpp"
#include "analysis/bench_runner.hpp"

namespace {

using ftdb::analysis::JsonValue;
using ftdb::analysis::JsonWriter;
using ftdb::analysis::json_parse;

TEST(JsonParse, RoundTripsWriterDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ftdb-bench-v1");
  w.key("seed");
  w.value(std::uint64_t{2026});
  w.key("ok");
  w.value(true);
  w.key("benchmarks");
  w.begin_array();
  w.begin_object();
  w.key("name");
  w.value("perf_construction/build \"quoted\"\n");
  w.key("wall");
  w.value(0.00123);
  w.key("failed");
  w.value(false);
  w.end_object();
  w.end_array();
  w.end_object();

  const JsonValue doc = json_parse(w.str());
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("schema").string, "ftdb-bench-v1");
  EXPECT_DOUBLE_EQ(doc.at("seed").number, 2026.0);
  EXPECT_TRUE(doc.at("ok").boolean);
  const auto& benchmarks = doc.at("benchmarks").array;
  ASSERT_EQ(benchmarks.size(), 1u);
  EXPECT_EQ(benchmarks[0].at("name").string, "perf_construction/build \"quoted\"\n");
  EXPECT_DOUBLE_EQ(benchmarks[0].at("wall").number, 0.00123);
  EXPECT_FALSE(benchmarks[0].at("failed").boolean);
}

TEST(JsonParse, ParsesScalarsAndNesting) {
  const JsonValue v = json_parse(R"({"a": [1, -2.5e3, null, {"b": []}], "c": "A"})");
  const auto& a = v.at("a").array;
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a[1].number, -2500.0);
  EXPECT_TRUE(a[2].is_null());
  EXPECT_EQ(a[3].at("b").array.size(), 0u);
  EXPECT_EQ(v.at("c").string, "A");
}

TEST(JsonParse, FindReturnsNullptrForMissingKeys) {
  const JsonValue v = json_parse(R"({"x": 1})");
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_THROW(v.at("y"), std::runtime_error);
  EXPECT_EQ(v.at("x").find("anything"), nullptr);  // not an object
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), std::runtime_error);
  EXPECT_THROW(json_parse("{"), std::runtime_error);
  EXPECT_THROW(json_parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json_parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json_parse("tru"), std::runtime_error);
  EXPECT_THROW(json_parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json_parse("1 2"), std::runtime_error);
  EXPECT_THROW(json_parse("1..2"), std::runtime_error);
}

TEST(BenchJson, RunnerStampsTheCurrentMachine) {
  using namespace ftdb::analysis;
  const JsonValue doc = json_parse(bench_results_to_json({}, BenchRunOptions{}));
  const JsonValue& m = doc.at("machine");
  const MachineStamp here = current_machine();
  EXPECT_EQ(m.at("cpu_model").string, here.cpu_model);
  EXPECT_EQ(json_uint_at(m, "nproc"), here.nproc);
  EXPECT_EQ(m.at("compiler").string, here.compiler);
  EXPECT_EQ(m.at("build_type").string, here.build_type);
  EXPECT_FALSE(here.cpu_model.empty());
  EXPECT_FALSE(here.compiler.empty());
  EXPECT_FALSE(here.build_type.empty());
}

}  // namespace
