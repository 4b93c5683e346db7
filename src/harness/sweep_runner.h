// The batch runner: runs (workload × MemSetup × memory-size) experiment
// points across a persistent worker pool.
//
// Every point is an independent pipeline run, so the batch parallelizes
// perfectly; each point writes its own slot, which makes the output order
// deterministic no matter which worker computes which point. Errors are
// captured per point and the first failure in batch order is rethrown with
// its own type (support::DeadlineExceededError included), so a parallel run
// fails with the same diagnostic as the serial loop it replaces.
//
// The pools outlive individual batches: one process-wide
// support::ThreadPool per resolved width, created on first use, so sweeps
// embedded in a long-running loop pay thread start-up once. run_matrix
// also scopes one ArtifactCache to each batch, so the per-workload
// artifacts (canonical record and run, shape, tables) are computed once.
#pragma once

#include <vector>

#include "harness/experiment.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

/// One full size sweep of a batch: a workload under one setup/config. The
/// workload is borrowed: callers keep it alive for the run_matrix call.
struct MatrixRequest {
  const workloads::WorkloadInfo* workload = nullptr;
  SweepConfig config;
};

/// Runs every request's size sweep as ONE flat (workload × setup × size)
/// batch over the process-wide pool of width `jobs` (0 = all hardware
/// threads, 1 = in place on the calling thread), so e.g. a benchmark's
/// scratchpad and cache sweeps fill the same workers instead of running
/// back to back. A request whose config has no artifact cache runs on the
/// batch's. Result i corresponds to requests[i], points in cfg.sizes
/// order; throws the first failing point in batch order.
std::vector<std::vector<SweepPoint>>
run_matrix(const std::vector<MatrixRequest>& requests, unsigned jobs);

} // namespace spmwcet::harness
