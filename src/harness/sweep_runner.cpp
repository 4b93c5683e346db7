#include "harness/sweep_runner.h"

#include <exception>
#include <map>
#include <memory>
#include <mutex>

#include "harness/artifact_cache.h"
#include "support/diag.h"
#include "support/thread_pool.h"

namespace spmwcet::harness {

namespace {

/// The process-wide pool of one resolved width.
support::ThreadPool& shared_pool(unsigned jobs) {
  static std::mutex mu;
  // Intentionally leaked: pool threads must stay joinable for any code that
  // sweeps during static destruction, and the OS reclaims them at exit.
  static auto* pools =
      new std::map<unsigned, std::unique_ptr<support::ThreadPool>>();
  const unsigned width = support::resolve_jobs(jobs);
  const std::lock_guard<std::mutex> lk(mu);
  std::unique_ptr<support::ThreadPool>& slot = (*pools)[width];
  if (!slot) slot = std::make_unique<support::ThreadPool>(width);
  return *slot;
}

} // namespace

std::vector<std::vector<SweepPoint>>
run_matrix(const std::vector<MatrixRequest>& requests, unsigned jobs) {
  // One cache per batch: keyed by workload address, so it must not outlive
  // the borrowed WorkloadInfo objects.
  ArtifactCache artifacts;

  std::vector<SweepConfig> configs;
  std::vector<std::vector<SweepPoint>> results;
  std::vector<std::vector<std::exception_ptr>> errors;
  for (const MatrixRequest& req : requests) {
    if (req.workload == nullptr) throw Error("sweep: request has no workload");
    SweepConfig& cfg = configs.emplace_back(req.config);
    if (cfg.artifacts == nullptr) cfg.artifacts = &artifacts;
    results.emplace_back(cfg.sizes.size());
    errors.emplace_back(cfg.sizes.size());
  }

  // Dispatch order: cache requests first (see the header), each group in
  // request order.
  struct Slot {
    std::size_t request, point;
  };
  std::vector<Slot> batch;
  for (const MemSetup setup : {MemSetup::Cache, MemSetup::Scratchpad})
    for (std::size_t r = 0; r < configs.size(); ++r)
      if (configs[r].setup == setup)
        for (std::size_t i = 0; i < configs[r].sizes.size(); ++i)
          batch.push_back({r, i});

  shared_pool(jobs).for_each(batch.size(), [&](std::size_t b) {
    const auto [r, i] = batch[b];
    const SweepConfig& cfg = configs[r];
    try {
      results[r][i] = detail::execute_point(*requests[r].workload, cfg.setup,
                                            cfg.sizes[i], cfg);
    } catch (...) {
      errors[r][i] = std::current_exception();
    }
  });
  for (const auto& request_errors : errors)
    for (const std::exception_ptr& e : request_errors)
      if (e) std::rethrow_exception(e);
  return results;
}

} // namespace spmwcet::harness
