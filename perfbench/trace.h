// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (nothing
// inside the library is instrumented); layer self time is computed from the
// span tree, and the spans are written out as a Chrome trace at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  std::string layer;  ///< owning layer: data, trainer, batcher, ...
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root.
  int64_t request = -1; ///< request id shared by the spans of one serve op.
  int thread = 0;
};

/// Thread-safe span store.
class Tracer {
 public:
  /// Opens a span; returns its id.
  int64_t Begin(const std::string& layer, const std::string& name,
                int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);
  /// Records an already-finished span (for spans timed on other threads).
  int64_t Record(const std::string& layer, const std::string& name,
                 Clock::time_point start, Clock::time_point end,
                 int64_t parent = -1, int64_t request = -1, int thread = 0);

  /// Per-layer self time in seconds: each span's duration minus the union
  /// of its children's intervals, summed by layer.
  std::map<std::string, double> LayerSelfSeconds() const;
  /// Share of `wall` seconds attributed to a layer: 1 minus the self time
  /// of the benchmark's own glue spans (layer "bench"), whose children are
  /// the layer calls. Concurrent layer spans count once.
  double Coverage(double wall) const;
  /// Duration of span `id` in seconds.
  double Seconds(int64_t id) const;

  /// Writes every span as a Chrome trace ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
