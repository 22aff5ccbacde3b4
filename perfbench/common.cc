#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Report::Count(int64_t n, int64_t failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) {
    correct_ = false;
    std::cout << "FAILED: " << what << " (" << failed << " of " << n << ")"
              << std::endl;
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
