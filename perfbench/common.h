// Shared plumbing of the repository benchmark: command-line options, the
// metric sink that becomes the final JSON line, timing and percentile
// helpers, and the process's peak resident memory.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Parsed `--workload --seed --seconds --trace --workdir` arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (bundles, Chrome traces).
  std::string workdir = ".bench_build/work";
};

/// Collects metrics and the correctness tally of one run, and renders the
/// result line run.py reads (run.py attaches the units from BENCHMARK.json).
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Records one checked operation; `ok` false counts it as failed.
  void Check(bool ok, const std::string& what);
  /// Counts `n` attempted operations, `failed` of which failed.
  void Count(int64_t n, int64_t failed, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name: value}}`.
  std::string Json() const;

 private:
  std::map<std::string, double> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Quantile `q` in [0, 1] of `values` (linear interpolation; 0 when empty).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Deterministic 64-bit mix of a seed and a stream tag, so every generated
/// input derives from the run's `--seed` alone.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
