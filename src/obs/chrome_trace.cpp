#include "obs/chrome_trace.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace mpa::obs {
namespace {

/// Microseconds with nanosecond precision ("1234.567").
std::string format_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

std::string_view leaf_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string_view(path)
                                    : std::string_view(path).substr(slash + 1);
}

std::uint64_t us_to_ns(double us) {
  return us <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i != 0) os << ',';
    os << "{\"ph\":\"X\",\"name\":\"" << json_escape(leaf_of(s.path))
       << "\",\"cat\":\"mpa\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << format_us(s.start_ns)
       << ",\"dur\":" << format_us(s.dur_ns) << ",\"args\":{\"path\":\"" << json_escape(s.path)
       << '"';
    if (s.req_id != 0) {
      os << ",\"req_id\":" << s.req_id << ",\"tenant\":\"" << json_escape(s.tenant) << '"';
    }
    os << "}}";
  }
  os << "]}\n";
  return os.str();
}

std::vector<SpanRecord> parse_trace_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  std::vector<SpanRecord> out;
  if (const JsonValue* spans = doc.find("spans")) {
    for (const JsonValue& s : spans->as_array()) {
      SpanRecord rec;
      rec.path = s.at("path").as_string();
      rec.start_ns = s.at("start_ns").as_u64();
      rec.dur_ns = s.at("dur_ns").as_u64();
      if (const JsonValue* tid = s.find("tid"))
        rec.tid = static_cast<std::uint32_t>(tid->as_u64());
      if (const JsonValue* req = s.find("req_id")) rec.req_id = req->as_u64();
      if (const JsonValue* tenant = s.find("tenant")) rec.tenant = tenant->as_string();
      out.push_back(std::move(rec));
    }
    return out;
  }
  if (const JsonValue* events = doc.find("traceEvents")) {
    for (const JsonValue& e : events->as_array()) {
      // Tolerate foreign phases (metadata, counters) in hand-edited
      // traces; only complete events carry a duration to aggregate.
      if (const JsonValue* ph = e.find("ph"); ph != nullptr && ph->as_string() != "X") continue;
      SpanRecord rec;
      const JsonValue* path = e.find("args");
      const JsonValue* path_arg = path != nullptr ? path->find("path") : nullptr;
      rec.path = path_arg != nullptr ? path_arg->as_string() : e.at("name").as_string();
      rec.start_ns = us_to_ns(e.at("ts").as_number());
      rec.dur_ns = us_to_ns(e.at("dur").as_number());
      if (const JsonValue* tid = e.find("tid"))
        rec.tid = static_cast<std::uint32_t>(tid->as_number());
      if (path != nullptr) {
        if (const JsonValue* req = path->find("req_id")) rec.req_id = req->as_u64();
        if (const JsonValue* tenant = path->find("tenant")) rec.tenant = tenant->as_string();
      }
      out.push_back(std::move(rec));
    }
    return out;
  }
  throw DataError("trace file has neither \"spans\" nor \"traceEvents\"");
}

}  // namespace mpa::obs
