#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace perfbench {

LoadGen::~LoadGen() { Close(); }

void LoadGen::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

bool LoadGen::Connect(int port, int connections, std::string* error) {
  Close();
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool LoadGen::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
  return true;
}

namespace {

/// Numeric id echoed at the start of a response line, or -1.
int64_t ResponseId(const std::string& line) {
  static const char kKey[] = "{\"id\":\"";
  if (line.compare(0, sizeof(kKey) - 1, kKey) != 0) return -1;
  int64_t id = 0;
  size_t i = sizeof(kKey) - 1;
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return -1;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    id = id * 10 + (line[i] - '0');
  }
  return (i < line.size() && line[i] == '"') ? id : -1;
}

}  // namespace

PhaseResult LoadGen::Run(const std::vector<Op>& ops, int64_t base, bool open,
                         int max_inflight, double drain_s, Tracer* tracer,
                         int64_t parent) {
  PhaseResult result;
  const size_t n = ops.size();
  result.outcomes.resize(n);
  if (n == 0 || conns_.empty()) return result;
  std::vector<Clock::time_point> sent(n);
  std::vector<Clock::time_point> due(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(open ? ops[i].due_s
                                                            : 0.0));
  }
  const size_t nconn = conns_.size();
  std::vector<pollfd> fds(nconn);
  size_t next = 0;
  int64_t outstanding = 0;
  Clock::time_point last_send = start;
  Clock::time_point last_recv = start;
  char buf[1 << 16];
  bool broken = false;

  while (!broken) {
    Clock::time_point now = Clock::now();
    while (next < n && (!open || due[next] <= now) &&
           (max_inflight <= 0 || outstanding < max_inflight)) {
      Conn& conn = conns_[next % nconn];
      conn.out.append(ops[next].line);
      conn.out.push_back('\n');
      now = Clock::now();
      sent[next] = now;
      last_send = now;
      if (open) {
        const double late =
            std::chrono::duration<double, std::milli>(now - due[next]).count();
        result.outcomes[next].late_ms = late;
        result.lag_ms = std::max(result.lag_ms, late);
      }
      ++outstanding;
      ++next;
      if (next == n) result.backlog_end = outstanding;
    }
    for (Conn& conn : conns_) {
      if (!conn.out.empty() && !Flush(&conn)) broken = true;
    }
    if (next == n && outstanding == 0) break;
    const Clock::time_point drain_deadline =
        last_send + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(drain_s));
    const bool blocked =
        next == n || (max_inflight > 0 && outstanding >= max_inflight);
    if (blocked && now >= drain_deadline) break;

    for (size_t c = 0; c < nconn; ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
      fds[c].revents = 0;
    }
    // Poll without sleeping. A sleeping generator wakes late by the host's
    // wake-up latency (about 0.07 ms on a 4-vCPU VM, more when the host is
    // contended), which the open-loop schedule charges to every request it
    // delays; spinning keeps sends on schedule and receives prompt.
    const timespec ts{0, 0};
    const int ready = ::ppoll(fds.data(), nconn, &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    for (size_t c = 0; c < nconn; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[c];
      while (true) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          broken = true;
        }
        break;
      }
      const Clock::time_point recv_time = Clock::now();
      size_t pos = 0;
      while (true) {
        const size_t nl = conn.in.find('\n', pos);
        if (nl == std::string::npos) break;
        std::string line = conn.in.substr(pos, nl - pos);
        pos = nl + 1;
        const int64_t id = ResponseId(line) - base;
        if (id < 0 || id >= static_cast<int64_t>(next) ||
            result.outcomes[static_cast<size_t>(id)].answered) {
          ++result.unmatched;
          continue;
        }
        OpOutcome& out = result.outcomes[static_cast<size_t>(id)];
        const Clock::time_point from =
            open ? due[static_cast<size_t>(id)] : sent[static_cast<size_t>(id)];
        out.answered = true;
        out.latency_ms =
            std::chrono::duration<double, std::milli>(recv_time - from).count();
        out.response = std::move(line);
        --outstanding;
        last_recv = recv_time;
        if (tracer != nullptr) {
          tracer->Record("gen", ops[static_cast<size_t>(id)].delta ? "delta"
                                                                   : "detect",
                         from, recv_time, parent, base + id);
        }
      }
      conn.in.erase(0, pos);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!result.outcomes[i].answered) ++result.lost;
  }
  result.wall_s = std::chrono::duration<double>(
                      std::max(last_recv, last_send) - start)
                      .count();
  return result;
}

}  // namespace perfbench
