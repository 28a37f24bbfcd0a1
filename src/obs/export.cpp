#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

namespace mmir::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else maps to '_'.
void append_prom_name(std::string& out, std::string_view name) {
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
}

/// Splits a registry name carrying an inline Prometheus label block —
/// `family{key="value",...}` — into the family (sanitized for the header)
/// and the label block (emitted verbatim after the sanitized family name).
/// Names without a well-formed `{...}` suffix pass through whole.
struct NameParts {
  std::string_view family;
  std::string_view labels;
};

NameParts split_labels(std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.empty() || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, brace), name.substr(brace)};
}

void append_family_header(std::string& out, std::string_view name, const char* type) {
  out += "# HELP ";
  append_prom_name(out, name);
  out += " mmir ";
  out += type;
  out += "\n# TYPE ";
  append_prom_name(out, name);
  out += " ";
  out += type;
  out += "\n";
}

/// One chrome "X" (complete) event.  chrome://tracing expects microseconds;
/// open spans render with their elapsed-so-far duration of 0.
void append_chrome_event(std::string& out, const SpanRecord& span, std::uint64_t tid,
                         bool& first) {
  // Stitched distributed traces tag grafted remote spans with a
  // "remote_pid" attr; chrome then renders each server process as its own
  // pid track.  Router-local spans stay on pid 1.
  std::uint64_t pid = 1;
  for (const auto& [key, value] : span.attrs) {
    if (key == "remote_pid" && std::isfinite(value) && value >= 1) {
      pid = static_cast<std::uint64_t>(value);
      break;
    }
  }
  if (!first) out += ",";
  first = false;
  out += "{\"name\":\"";
  append_escaped(out, span.name);
  out += "\",\"cat\":\"query\",\"ph\":\"X\",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, tid);
  // Both endpoints are floored to microseconds and dur is their difference:
  // flooring ts and dur separately could end a child 1 us after its parent.
  const std::uint64_t start_us = span.start_ns / 1000;
  const std::uint64_t end_us = (span.start_ns + span.duration_ns) / 1000;
  out += ",\"ts\":";
  append_u64(out, start_us);
  out += ",\"dur\":";
  append_u64(out, end_us - start_us);
  if (!span.attrs.empty() || !span.notes.empty()) {
    out += ",\"args\":{";
    bool first_arg = true;
    for (const auto& [key, value] : span.attrs) {
      if (!first_arg) out += ",";
      first_arg = false;
      out += "\"";
      append_escaped(out, key);
      out += "\":";
      if (std::isfinite(value)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        out += buf;
      } else {
        // chrome://tracing parses strict JSON: nan/inf must become null.
        out += "null";
      }
    }
    for (const auto& [key, value] : span.notes) {
      if (!first_arg) out += ",";
      first_arg = false;
      out += "\"";
      append_escaped(out, key);
      out += "\":\"";
      append_escaped(out, value);
      out += "\"";
    }
    out += "}";
  }
  out += "}";
}

void append_trace_events(std::string& out, const Trace& trace, bool& first) {
  // tid 0 would collide for untraced-id traces; chrome renders them fine on
  // a shared row either way.
  const std::uint64_t tid = trace.id();
  for (const SpanRecord& span : trace.spans()) {
    append_chrome_event(out, span, tid, first);
  }
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::set<std::string, std::less<>> seen_families;
  for (const CounterSample& counter : snapshot.counters) {
    const auto [family, labels] = split_labels(counter.name);
    if (seen_families.insert(std::string(family)).second) {
      append_family_header(out, family, "counter");
    }
    append_prom_name(out, family);
    out += labels;
    out += " ";
    append_u64(out, counter.value);
    out += "\n";
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    const auto [family, labels] = split_labels(gauge.name);
    if (seen_families.insert(std::string(family)).second) {
      append_family_header(out, family, "gauge");
    }
    append_prom_name(out, family);
    out += labels;
    out += " ";
    append_i64(out, gauge.value);
    out += "\n";
  }
  for (const HistogramSample& hist : snapshot.histograms) {
    append_family_header(out, hist.name, "histogram");
    // Prometheus buckets are *cumulative*; our per-bucket counts convert by
    // a running sum, with the implicit overflow bucket becoming le="+Inf".
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      cumulative += b < hist.counts.size() ? hist.counts[b] : 0;
      append_prom_name(out, hist.name);
      out += "_bucket{le=\"";
      append_u64(out, hist.bounds[b]);
      out += "\"} ";
      append_u64(out, cumulative);
      out += "\n";
    }
    append_prom_name(out, hist.name);
    out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, hist.count);
    out += "\n";
    append_prom_name(out, hist.name);
    out += "_sum ";
    append_u64(out, hist.sum);
    out += "\n";
    append_prom_name(out, hist.name);
    out += "_count ";
    append_u64(out, hist.count);
    out += "\n";
  }
  return out;
}

std::string to_chrome_trace(const Trace& trace) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  append_trace_events(out, trace, first);
  out += "]}";
  return out;
}

std::string to_chrome_trace(std::span<const std::shared_ptr<const Trace>> traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& trace : traces) {
    if (trace != nullptr) append_trace_events(out, *trace, first);
  }
  out += "]}";
  return out;
}

}  // namespace mmir::obs
