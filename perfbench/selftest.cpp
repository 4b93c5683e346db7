// Self-tests of the benchmark itself:
//   * replica parity: on a small slice of each workload the traced replica
//     returns points field-equal to the Engine's, and both match the
//     recorded reference digests (serve-mixed also over the socket);
//   * seeds: the same seed gives the same inputs, different seeds give
//     different programs;
//   * metric names: every name matches [A-Za-z0-9_.-]+ and is used once.
//
//   perfbench_selftest --cli PATH --refs PATH [--scratch DIR]
//
// Prints one line per check and exits non-zero when any fails.
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <unistd.h>

#include "api/engine.h"
#include "api/request.h"
#include "bench.h"
#include "replica.h"
#include "serve_client.h"
#include "workloads/workload.h"

namespace {

using namespace perfbench;
namespace api = spmwcet::api;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<SweepPoint> replica_points(const Workload& wl) {
  Trace trace;
  Replica replica(trace);
  std::vector<SweepPoint> pts;
  for (const PointKey& k : wl.points)
    pts.push_back(replica.point(k.workload, k.setup, k.size));
  return pts;
}

/// The Engine's points for `wl`, in wl.points order: point requests on one
/// Engine, as a serve session executes them.
std::vector<SweepPoint> engine_points(const Workload& wl) {
  api::Engine engine;
  std::vector<SweepPoint> pts;
  for (const PointKey& k : wl.points)
    pts.push_back(engine
                      .point(api::PointRequest::make(k.workload, k.setup, k.size)
                                 .value_or_throw())
                      .value_or_throw()
                      .point);
  return pts;
}

bool all_equal(const std::vector<SweepPoint>& a,
               const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_point(a[i], b[i])) return false;
  return true;
}

void test_parity(const References& refs, const std::string& cli,
                 const std::string& scratch) {
  for (const std::string& name : workload_names()) {
    const Workload wl = make_workload(name, 7, name == "paper-eval" ? 1 : 3);
    const std::vector<bool> all(wl.points.size(), true);
    const std::vector<SweepPoint> engine = engine_points(wl);
    check(check_points(wl, engine, all, refs) == 0,
          name + ": Engine points match the reference digests");

    const std::vector<SweepPoint> replica = replica_points(wl);
    check(all_equal(replica, engine),
          name + ": replica points are field-equal to the Engine's");

    if (wl.kind != Kind::ServeMixed) continue;
    std::filesystem::create_directories(scratch);
    ServerProcess server(cli, scratch + "/selftest-" +
                                  std::to_string(::getpid()) + ".sock");
    server.wait_ready(60.0);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < wl.points.size(); ++i)
      lines.push_back(point_request_line(i + 1, wl.points[i]));
    const StreamResult s =
        run_closed_loop(server.socket_path(), lines, kServeConnections);
    std::vector<SweepPoint> served(lines.size());
    bool parsed = true;
    for (std::size_t i = 0; i < lines.size(); ++i)
      parsed = parse_point_response(s.responses[i], served[i]) && parsed;
    check(parsed && all_equal(served, engine),
          name + ": socket answers are field-equal to the Engine's");
  }
}

void test_seeds() {
  for (const std::string& name : workload_names()) {
    const uint64_t a = inputs_digest(make_workload(name, 11));
    check(a == inputs_digest(make_workload(name, 11)),
          name + ": the same seed gives the same inputs");
    if (name == "paper-eval") continue; // fixed inputs by design
    const Workload x = make_workload(name, 11);
    const Workload y = make_workload(name, 12);
    check(x.programs != y.programs,
          name + ": a different seed gives different programs");
  }
}

void test_metric_names() {
  std::set<std::string> seen;
  bool ok = true;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& d : *defs)
      ok = valid_metric_name(d.name) && seen.insert(d.name).second && ok;
  for (std::size_t s = 0; s < kSpans; ++s)
    ok = seen.count(span_metric(static_cast<Span>(s))) == 1 && ok;
  check(ok && !valid_metric_name("bad name") && !valid_metric_name(""),
        "metric names match [A-Za-z0-9_.-]+, are unique and cover the spans");
}

} // namespace

int main(int argc, char** argv) {
  std::string cli, refs_path, scratch = ".bench_build/run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--cli") cli = argv[i + 1];
    else if (arg == "--refs") refs_path = argv[i + 1];
    else if (arg == "--scratch") scratch = argv[i + 1];
  }
  if (cli.empty() || refs_path.empty()) {
    std::cerr << "usage: perfbench_selftest --cli PATH --refs PATH\n";
    return 2;
  }
  try {
    const References refs(refs_path);
    test_metric_names();
    test_seeds();
    test_parity(refs, cli, scratch);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_selftest: " << e.what() << "\n";
    return 1;
  }
  std::cout << (failures == 0 ? "all self-tests passed\n"
                              : std::to_string(failures) + " self-test(s) failed\n");
  return failures == 0 ? 0 : 1;
}
