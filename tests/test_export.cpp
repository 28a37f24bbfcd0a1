// Tests for obs/export.hpp: Prometheus text-format golden output and syntax
// conformance, and chrome://tracing JSON that parses with a real (if tiny)
// JSON parser and preserves span nesting per query tid.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mmir {
namespace {

// ------------------------------------------------ minimal JSON parser (test)

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool string_body(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Control characters only in this codebase; keep the low byte.
            const std::string hex = text_.substr(pos_, 4);
            out.push_back(static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16)));
            pos_ += 4;
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string_body(out.string);
    }
    if (literal("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return true;
    }
    if (literal("null")) {
      out.type = JsonValue::Type::kNull;
      return true;
    }
    char* end = nullptr;
    out.number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    out.type = JsonValue::Type::kNumber;
    return true;
  }
  bool object(JsonValue& out) {
    if (!consume('{')) return false;
    out.type = JsonValue::Type::kObject;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!string_body(key)) return false;
      if (!consume(':')) return false;
      JsonValue v;
      if (!value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool array(JsonValue& out) {
    if (!consume('[')) return false;
    out.type = JsonValue::Type::kArray;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      if (consume(',')) continue;
      return consume(']');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ----------------------------------------------------------- Prometheus

TEST(PrometheusExport, GoldenRoundTrip) {
  obs::MetricsRegistry registry(1);
  auto requests = registry.counter("requests_total");
  requests.add(5);
  auto depth = registry.gauge("queue_depth");
  depth.set(-2);
  obs::HistogramSpec spec;
  spec.bounds = {1, 2, 4};
  auto latency = registry.histogram("latency_ns", spec);
  latency.observe(1);    // le=1
  latency.observe(3);    // le=4
  latency.observe(100);  // overflow

  const std::string expected =
      "# HELP requests_total mmir counter\n"
      "# TYPE requests_total counter\n"
      "requests_total 5\n"
      "# HELP queue_depth mmir gauge\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth -2\n"
      "# HELP latency_ns mmir histogram\n"
      "# TYPE latency_ns histogram\n"
      "latency_ns_bucket{le=\"1\"} 1\n"
      "latency_ns_bucket{le=\"2\"} 1\n"
      "latency_ns_bucket{le=\"4\"} 2\n"
      "latency_ns_bucket{le=\"+Inf\"} 3\n"
      "latency_ns_sum 104\n"
      "latency_ns_count 3\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

TEST(PrometheusExport, EveryLineMatchesExpositionSyntax) {
  obs::MetricsRegistry registry(4);
  registry.counter("engine_jobs_submitted_total").add(17);
  registry.gauge("engine_queue_depth").set(3);
  auto hist = registry.histogram("engine_exec_time_ns");  // latency_ns spec
  hist.observe(1'000);
  hist.observe(5'000'000);
  const std::string text = obs::to_prometheus(registry.snapshot());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  const std::regex help_or_type(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  const std::regex sample(R"re(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([0-9]+|\+Inf)"\})? -?[0-9]+$)re");
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(start, end - start);
    EXPECT_TRUE(std::regex_match(line, help_or_type) || std::regex_match(line, sample))
        << "bad exposition line: " << line;
    start = end + 1;
  }
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeAndEndAtCount) {
  obs::MetricsRegistry registry(2);
  obs::HistogramSpec spec;
  spec.bounds = {10, 100, 1000};
  auto hist = registry.histogram("work", spec);
  for (std::uint64_t v : {1u, 5u, 50u, 500u, 5000u, 50000u}) hist.observe(v);

  const std::string text = obs::to_prometheus(registry.snapshot());
  // Parse the bucket lines back and require monotone counts ending at the
  // +Inf bucket == _count.
  std::vector<std::uint64_t> cumulative;
  std::size_t pos = 0;
  while ((pos = text.find("work_bucket{le=", pos)) != std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    cumulative.push_back(std::strtoull(text.c_str() + space + 1, nullptr, 10));
    pos = space;
  }
  ASSERT_EQ(cumulative.size(), 4u);  // 3 finite + +Inf
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]);
  }
  EXPECT_EQ(cumulative.back(), 6u);
  EXPECT_NE(text.find("work_count 6\n"), std::string::npos);
}

// ---------------------------------------------------------- chrome trace

TEST(PrometheusExport, LabeledNamesPassThroughWithOneHeaderPerFamily) {
  // Registry names may carry a literal Prometheus label block (the wire
  // byte counters register as engine_net_wire_bytes{direction="sent"} etc.);
  // the exporter must emit the labels verbatim on the sample line and the
  // HELP/TYPE headers once per *family*, not once per labeled series.
  obs::MetricsRegistry registry(2);
  registry.counter("engine_net_wire_bytes{direction=\"sent\"}").add(5);
  registry.counter("engine_net_wire_bytes{direction=\"received\"}").add(7);
  const std::string text = obs::to_prometheus(registry.snapshot());

  EXPECT_NE(text.find("engine_net_wire_bytes{direction=\"sent\"} 5\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("engine_net_wire_bytes{direction=\"received\"} 7\n"),
            std::string::npos)
      << text;
  std::size_t headers = 0;
  for (std::size_t at = text.find("# TYPE engine_net_wire_bytes ");
       at != std::string::npos;
       at = text.find("# TYPE engine_net_wire_bytes ", at + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u) << text;
  // The label block must never leak into the header line.
  EXPECT_EQ(text.find("# TYPE engine_net_wire_bytes{"), std::string::npos) << text;
}

TEST(ChromeTraceExport, ParsesAndNestsSpans) {
  obs::Trace trace("raster", 12);
  {
    obs::Span root(&trace, "query");
    root.annotate("ops_spent", 42);
    {
      obs::Span screen = obs::Span::child_of(&root, "metadata_screen");
      screen.note("status", "complete");
    }
    { obs::Span scan = obs::Span::child_of(&root, "staged_model_scan"); }
  }

  const std::string json = obs::to_chrome_trace(trace);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(), 3u);

  const JsonValue* root_event = nullptr;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.type, JsonValue::Type::kObject);
    ASSERT_NE(event.find("name"), nullptr);
    EXPECT_EQ(event.find("ph")->string, "X");
    EXPECT_EQ(event.find("tid")->number, 12.0);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
    if (event.find("name")->string == "query") root_event = &event;
  }
  ASSERT_NE(root_event, nullptr);
  const double root_ts = root_event->find("ts")->number;
  const double root_end = root_ts + root_event->find("dur")->number;
  for (const JsonValue& event : events->array) {
    if (&event == root_event) continue;
    const double ts = event.find("ts")->number;
    const double end = ts + event.find("dur")->number;
    EXPECT_GE(ts, root_ts) << event.find("name")->string;
    EXPECT_LE(end, root_end) << event.find("name")->string;
  }
  // Args carried through: the root's annotation and the child's note.
  const JsonValue* args = root_event->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("ops_spent")->number, 42.0);
}

TEST(ChromeTraceExport, ChildEndingWithItsParentNeverOutlastsIt) {
  // Root [999, 4000) ns and child [1000, 4000) ns end together.  Flooring ts
  // and dur separately gave the root [0, 3) us and the child [1, 4) us.
  obs::Trace trace("raster", 3);
  const std::size_t root = trace.add_completed_span("query", obs::kNoSpan, 999, 3001);
  trace.add_completed_span("full_scan", root, 1000, 3000);

  const std::string json = obs::to_chrome_trace(trace);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue& root_event = events->array[0];
  const JsonValue& child_event = events->array[1];
  ASSERT_EQ(root_event.find("name")->string, "query");
  EXPECT_EQ(root_event.find("ts")->number, 0.0);
  EXPECT_EQ(root_event.find("dur")->number, 4.0);
  EXPECT_EQ(child_event.find("ts")->number, 1.0);
  EXPECT_EQ(child_event.find("dur")->number, 3.0);
  EXPECT_LE(child_event.find("ts")->number + child_event.find("dur")->number,
            root_event.find("ts")->number + root_event.find("dur")->number);
}

TEST(ChromeTraceExport, MultipleTracesKeepDistinctTids) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 2; ++i) {
    auto trace = tracer.start_trace("raster");
    { obs::Span root(trace.get(), "query"); }
    tracer.finish(std::move(trace));
  }
  const auto recent = tracer.recent();
  const std::string json = obs::to_chrome_trace(recent);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_NE(events->array[0].find("tid")->number, events->array[1].find("tid")->number);
}

TEST(ChromeTraceExport, NonFiniteAttrsBecomeNull) {
  obs::Trace trace("t", 7);
  {
    obs::Span root(&trace, "query");
    root.annotate("missed_bound", std::numeric_limits<double>::infinity());
    root.annotate("floor", -std::numeric_limits<double>::infinity());
    root.annotate("undefined_ratio", std::numeric_limits<double>::quiet_NaN());
    root.annotate("ordinary", 2.5);
  }
  const std::string json = obs::to_chrome_trace(trace);
  // %.17g would print bare nan/inf tokens, which no strict parser accepts.
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  const JsonValue* args = doc.find("traceEvents")->array[0].find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("missed_bound")->type, JsonValue::Type::kNull);
  EXPECT_EQ(args->find("floor")->type, JsonValue::Type::kNull);
  EXPECT_EQ(args->find("undefined_ratio")->type, JsonValue::Type::kNull);
  EXPECT_EQ(args->find("ordinary")->number, 2.5);
}

TEST(ChromeTraceExport, RemotePidAttrSelectsTheProcessLane) {
  // Stitched distributed traces tag grafted server spans with a remote_pid
  // attr; the exporter renders those under that pid so chrome://tracing
  // shows one lane per server process, router spans under pid 1.
  obs::Trace trace("router_query", 9);
  {
    obs::Span root(&trace, "query");
    { obs::Span leg = obs::Span::child_of(&root, "shard_0"); }
  }
  const std::size_t grafted = trace.add_completed_span("remote_query", 1, 10, 20);
  trace.annotate(grafted, "remote_pid", 3.0);
  // Non-finite or sub-1 remote_pid values must not hijack the lane.
  const std::size_t bogus = trace.add_completed_span("remote_bogus", 1, 12, 2);
  trace.annotate(bogus, "remote_pid", std::numeric_limits<double>::quiet_NaN());

  const std::string json = obs::to_chrome_trace(trace);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);
  for (const JsonValue& event : events->array) {
    const std::string& name = event.find("name")->string;
    const double expected_pid = name == "remote_query" ? 3.0 : 1.0;
    EXPECT_EQ(event.find("pid")->number, expected_pid) << name;
  }
}

TEST(ChromeTraceExport, EscapesNoteText) {
  obs::Trace trace("t", 1);
  {
    obs::Span root(&trace, "query");
    root.note("detail", "quote \" backslash \\ end");
  }
  const std::string json = obs::to_chrome_trace(trace);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  const JsonValue* event = &doc.find("traceEvents")->array[0];
  EXPECT_EQ(event->find("args")->find("detail")->string, "quote \" backslash \\ end");
}

}  // namespace
}  // namespace mmir
