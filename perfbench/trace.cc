#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t Tracer::Begin(const std::string& layer, const std::string& name,
                      int64_t parent, int64_t request) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, name, now, now, parent, request, 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t Tracer::Record(const std::string& layer, const std::string& name,
                       Clock::time_point start, Clock::time_point end,
                       int64_t parent, int64_t request, int thread) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, name, start, end, parent, request, thread});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::Seconds(int64_t id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<size_t>(id)];
  return std::chrono::duration<double>(s.end - s.start).count();
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    Clock::duration covered{0};
    Clock::time_point cursor = s.start;
    for (const auto& [b, e] : kids) {
      const auto lo = std::max(b, cursor);
      const auto hi = std::min(e, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.layer] +=
        std::chrono::duration<double>((s.end - s.start) - covered).count();
  }
  return self;
}

double Tracer::Coverage(double wall) const {
  if (wall <= 0) return 0.0;
  const auto self = LayerSelfSeconds();
  const auto it = self.find("bench");
  return 1.0 - (it == self.end() ? 0.0 : it->second) / wall;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"ts\":" << ts << ",\"dur\":" << dur
        << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
