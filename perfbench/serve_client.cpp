#include "serve_client.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "support/json.h"
#include "support/socket.h"

extern char** environ;

namespace perfbench {

namespace json = spmwcet::support::json;
namespace net = spmwcet::support::net;

ServerProcess::ServerProcess(const std::string& cli, std::string socket_path)
    : path_(std::move(socket_path)) {
  std::filesystem::remove(path_);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  // The server logs its session summary to stderr; the benchmark's own
  // output must stay one JSON line.
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  std::vector<std::string> args = {cli, "serve", "--socket", path_};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  spawned_ = Clock::now();
  const int rc = posix_spawn(&pid_, cli.c_str(), &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + cli);
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

double ServerProcess::wait_ready(double timeout_s) {
  const std::string ping = "{\"v\":1,\"id\":0,\"op\":\"ping\"}";
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("serve process exited before answering");
    }
    try {
      if (request(ping).find("\"pong\":true") != std::string::npos)
        return seconds_since(spawned_);
    } catch (const std::exception&) {
      // Not listening yet.
    }
    if (seconds_since(spawned_) > timeout_s)
      throw std::runtime_error("serve process did not answer ping");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::string ServerProcess::request(const std::string& line) const {
  const net::Socket s = net::connect_unix(path_);
  if (!net::send_all(s.fd(), line + "\n"))
    throw std::runtime_error("send failed");
  net::LineReader reader(s.fd());
  std::string answer;
  if (!reader.read_line(answer)) throw std::runtime_error("no answer");
  return answer;
}

StreamResult run_closed_loop(const std::string& socket_path,
                             const std::vector<std::string>& lines,
                             unsigned connections) {
  StreamResult out;
  out.latency_ms.assign(lines.size(), -1.0);
  out.responses.assign(lines.size(), std::string());
  std::atomic<std::size_t> cursor{0};
  // Connect every client before the clock starts.
  std::vector<net::Socket> sockets;
  for (unsigned c = 0; c < connections; ++c)
    sockets.push_back(net::connect_unix(socket_path));

  const auto client = [&](const net::Socket& s) {
    net::LineReader reader(s.fd());
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= lines.size()) return;
      const auto t0 = Clock::now();
      std::string answer;
      if (!net::send_all(s.fd(), lines[i] + "\n") || !reader.read_line(answer))
        return; // the peer is gone: the request stays unanswered
      out.latency_ms[i] = seconds_since(t0) * 1e3;
      out.responses[i] = std::move(answer);
    }
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (const net::Socket& s : sockets) threads.emplace_back(client, std::cref(s));
  for (std::thread& t : threads) t.join();
  out.wall_s = seconds_since(t0);
  return out;
}

std::string point_request_line(uint64_t id, const PointKey& key) {
  return "{\"v\":1,\"id\":" + std::to_string(id) +
         ",\"op\":\"point\",\"workload\":" + json::quote(key.workload) +
         ",\"setup\":\"" +
         (key.setup == MemSetup::Scratchpad ? "spm" : "cache") +
         "\",\"size\":" + std::to_string(key.size) + "}";
}

bool parse_point_response(const std::string& line, SweepPoint& out) {
  try {
    const json::Value v = json::parse(line);
    const json::Value* ok = v.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
    const json::Value* result = v.find("result");
    const json::Value* p = result ? result->find("point") : nullptr;
    if (p == nullptr) return false;
    const auto u64 = [&](const char* name) {
      const json::Value* f = p->find(name);
      if (f == nullptr || !f->is_int()) throw std::runtime_error(name);
      return static_cast<uint64_t>(f->as_int());
    };
    const auto f64 = [&](const char* name) {
      const json::Value* f = p->find(name);
      if (f == nullptr || !f->is_number()) throw std::runtime_error(name);
      return f->as_double();
    };
    out.size_bytes = static_cast<uint32_t>(u64("size_bytes"));
    out.sim_cycles = u64("sim_cycles");
    out.wcet_cycles = u64("wcet_cycles");
    out.ratio = f64("ratio");
    out.cache_hits = u64("cache_hits");
    out.cache_misses = u64("cache_misses");
    out.spm_used_bytes = static_cast<uint32_t>(u64("spm_used_bytes"));
    out.energy_nj = f64("energy_nj");
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

uint64_t health_counter(const std::string& line, const std::string& section,
                        const std::string& name) {
  const json::Value v = json::parse(line);
  const json::Value* result = v.find("result");
  const json::Value* s = result ? result->find(section) : nullptr;
  const json::Value* f = s ? s->find(name) : nullptr;
  if (f == nullptr || !f->is_int())
    throw std::runtime_error("health response lacks " + section + "." + name);
  return static_cast<uint64_t>(f->as_int());
}

} // namespace perfbench
