// Single-threaded, busy-polling load generator for the loopback serve
// workloads. It opens a few pipelined connections to the server and sends
// newline-delimited JSON requests either on an open-loop schedule (each
// request timed from its scheduled send time, so a stall is charged to
// every request it delays) or closed-loop under an in-flight cap.
// Responses are matched to requests by their echoed numeric id.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// One request of a phase. `line` carries `"id":"<base + index>"`.
struct Op {
  std::string line;
  double due_s = 0.0;  ///< open loop: send offset from the phase start.
  bool delta = false;
};

struct OpOutcome {
  bool answered = false;
  /// From the scheduled send time (open loop) or the actual send (closed).
  double latency_ms = 0.0;
  /// Open loop: how late the request was sent against its schedule.
  double late_ms = 0.0;
  std::string response;
};

struct PhaseResult {
  std::vector<OpOutcome> outcomes;
  double lag_ms = 0.0;      ///< worst lateness of a send against schedule.
  int64_t backlog_end = 0;  ///< unanswered requests when the last was due.
  int64_t lost = 0;         ///< unanswered after the drain timeout.
  int64_t unmatched = 0;    ///< responses whose id matched no request.
  double wall_s = 0.0;      ///< first send to last response.
};

class LoadGen {
 public:
  LoadGen() = default;
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens `connections` loopback connections to `port`.
  bool Connect(int port, int connections, std::string* error);
  void Close();

  /// Sends `ops` (ids base..base+n-1). `open` schedules by `due_s`;
  /// otherwise at most `max_inflight` requests are outstanding. Waits up
  /// to `drain_s` after the last send for stragglers. With a tracer, each
  /// answered request is recorded as a span under `parent`.
  PhaseResult Run(const std::vector<Op>& ops, int64_t base, bool open,
                  int max_inflight, double drain_s, Tracer* tracer = nullptr,
                  int64_t parent = -1);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
  };
  bool Flush(Conn* conn);

  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
