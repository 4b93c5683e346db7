// The serve side of the benchmark: a resident `spmwcet_cli serve --socket`
// process and a closed-loop NDJSON client over its unix socket.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One `spmwcet_cli serve --socket PATH` child process. The destructor stops
/// it (SIGTERM, then waits for it to exit).
class ServerProcess {
public:
  ServerProcess(const std::string& cli, std::string socket_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server answers a `ping`; returns the seconds from
  /// spawn to the answer (the serve set-up time). Throws when the server
  /// exits or does not answer within `timeout_s`.
  double wait_ready(double timeout_s);

  /// Sends one request line on a fresh connection and returns the answer.
  std::string request(const std::string& line) const;

  /// Peak resident set of the server so far, in MiB.
  double peak_rss() const { return peak_rss_mb(pid_); }

  const std::string& socket_path() const { return path_; }

  /// SIGTERM and wait; idempotent.
  void stop();

private:
  std::string path_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

struct StreamResult {
  std::vector<double> latency_ms;     ///< per request; < 0 = unanswered
  std::vector<std::string> responses; ///< per request; empty = no answer
  double wall_s = 0.0;                ///< first send to last answer
};

/// Closed loop: each of `connections` clients sends its next request only
/// after its previous answer arrived, taking requests in order from a shared
/// cursor. A request whose connection failed keeps an empty response and a
/// negative latency.
StreamResult run_closed_loop(const std::string& socket_path,
                             const std::vector<std::string>& lines,
                             unsigned connections);

/// The wire line of one point request.
std::string point_request_line(uint64_t id, const PointKey& key);

/// Decodes a `point` response; false on an error response or a malformed
/// line.
bool parse_point_response(const std::string& line, SweepPoint& out);

/// Reads an integer counter from a `health` response ("engine" or "serve"
/// section); throws when absent.
uint64_t health_counter(const std::string& line, const std::string& section,
                        const std::string& name);

} // namespace perfbench
