#include "harness/sweep_runner.h"

#include <map>
#include <memory>
#include <mutex>

#include "harness/artifact_cache.h"
#include "support/deadline.h"
#include "support/diag.h"

namespace spmwcet::harness {

SweepRunner::SweepRunner(SweepRunnerOptions opts) : pool_(opts.jobs) {}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob>& batch) const {
  // Slot-indexed writes keep the result order deterministic no matter
  // which worker claims which point.
  std::vector<SweepOutcome> outcomes(batch.size());
  pool_.for_each(batch.size(), [&](std::size_t i) {
    const SweepJob& job = batch[i];
    try {
      if (job.workload == nullptr)
        throw Error("sweep: job " + std::to_string(i) + " has no workload");
      outcomes[i].point = detail::execute_point(
          *job.workload, job.config.setup, job.size_bytes, job.config);
    } catch (const support::DeadlineExceededError& e) {
      outcomes[i].error = e.what();
      outcomes[i].deadline_exceeded = true;
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
    }
  });
  return outcomes;
}

std::vector<std::vector<SweepPoint>>
SweepRunner::run_matrix(const std::vector<MatrixRequest>& requests) const {
  // One cache per batch: keyed by workload address, so it must not outlive
  // the borrowed WorkloadInfo objects.
  ArtifactCache artifacts;

  std::vector<SweepJob> batch;
  for (const MatrixRequest& req : requests) {
    if (req.workload == nullptr) throw Error("sweep: request has no workload");
    std::vector<SweepJob> jobs_for = make_sweep_jobs(*req.workload, req.config);
    for (SweepJob& job : jobs_for)
      if (job.config.artifacts == nullptr)
        job.config.artifacts = &artifacts;
    batch.insert(batch.end(), jobs_for.begin(), jobs_for.end());
  }

  const std::vector<SweepOutcome> outcomes = run(batch);
  for (const SweepOutcome& o : outcomes)
    if (!o.ok()) {
      if (o.deadline_exceeded)
        throw support::DeadlineExceededError(
            o.error, support::DeadlineExceededError::RawMessage{});
      throw Error(o.error);
    }

  std::vector<std::vector<SweepPoint>> results;
  results.reserve(requests.size());
  std::size_t at = 0;
  for (const MatrixRequest& req : requests) {
    const std::size_t n = req.config.sizes.size();
    std::vector<SweepPoint> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) points.push_back(outcomes[at++].point);
    results.push_back(std::move(points));
  }
  return results;
}

SweepRunner& shared_runner(unsigned jobs) {
  static std::mutex mu;
  // Intentionally leaked: pool threads must stay joinable for any code that
  // sweeps during static destruction, and the OS reclaims them at exit.
  static std::map<unsigned, std::unique_ptr<SweepRunner>>* runners =
      new std::map<unsigned, std::unique_ptr<SweepRunner>>();
  const unsigned width = support::resolve_jobs(jobs);
  const std::lock_guard<std::mutex> lk(mu);
  std::unique_ptr<SweepRunner>& slot = (*runners)[width];
  if (!slot) slot = std::make_unique<SweepRunner>(SweepRunnerOptions{width});
  return *slot;
}

std::vector<SweepJob> make_sweep_jobs(const workloads::WorkloadInfo& wl,
                                      const SweepConfig& cfg) {
  std::vector<SweepJob> batch;
  batch.reserve(cfg.sizes.size());
  for (const uint32_t size : cfg.sizes)
    batch.push_back(SweepJob{&wl, cfg, size});
  return batch;
}

std::vector<std::vector<SweepPoint>>
run_matrix(const std::vector<MatrixRequest>& requests, unsigned jobs) {
  return shared_runner(jobs).run_matrix(requests);
}

} // namespace spmwcet::harness
