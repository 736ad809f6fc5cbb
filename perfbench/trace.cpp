#include "trace.h"

#include <cstdio>
#include <map>
#include <thread>

namespace perfbench {

namespace {

/// Small, stable per-thread ids for the trace viewer (1 = first thread
/// that recorded a span).
int threadIndex() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  const std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] = ids.try_emplace(
      std::this_thread::get_id(), static_cast<int>(ids.size()) + 1);
  return it->second;
}

}  // namespace

void Tracer::record(std::uint64_t id, std::string_view name,
                    std::string_view cat, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    rair::campaign::JsonValue args) {
  if (!enabled_) return;
  Span s;
  s.id = id != 0 ? id : newId();
  s.parent = parent;
  s.name = name;
  s.cat = cat;
  s.tid = threadIndex();
  s.start = start;
  s.end = end;
  s.args = std::move(args);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.durS());
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path,
                              const rair::campaign::JsonValue& metadata)
    const {
  using rair::campaign::JsonValue;
  JsonValue::Array events;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events.reserve(spans_.size());
    for (const Span& s : spans_) {
      JsonValue args = s.args.isObject() ? s.args : JsonValue::Object{};
      args.set("id", JsonValue(s.id));
      args.set("parent", JsonValue(s.parent));
      JsonValue e = JsonValue::Object{};
      e.set("name", JsonValue(s.name));
      e.set("cat", JsonValue(s.cat));
      e.set("ph", JsonValue("X"));
      e.set("ts", JsonValue(seconds(origin_, s.start) * 1e6));
      e.set("dur", JsonValue(s.durS() * 1e6));
      e.set("pid", JsonValue(1));
      e.set("tid", JsonValue(s.tid));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  JsonValue doc = JsonValue::Object{};
  doc.set("traceEvents", JsonValue(std::move(events)));
  doc.set("displayTimeUnit", JsonValue("ms"));
  doc.set("otherData", metadata);
  const std::string text = doc.dump();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
