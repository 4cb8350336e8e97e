#include "tracer.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::int32_t Tracer::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, op_, nowNs(), -1});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
  // Spans close in LIFO order (Scope guarantees it).
  open_.pop_back();
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i];
    st.self_samples_ns.push_back(dur - child_ns[i]);
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%lld}}\n",
                  i == 0 ? "" : ",", s.name, cat.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.op));
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
