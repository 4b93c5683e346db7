#include "api/engine.h"

#include <chrono>

#include "alloc/allocator.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "support/deadline.h"
#include "support/diag.h"
#include "support/thread_pool.h"
#include "wcet/analyzer.h"

namespace spmwcet::api {

namespace {

/// How long this request may queue at the admission gate: the configured
/// max_queue_wait_ms (0 = forever), further capped by the request's own
/// remaining deadline budget — a request that would expire while queueing
/// is better rejected now than admitted dead.
int64_t queue_wait_ms(const EngineOptions& opts,
                      const support::Deadline& deadline) {
  int64_t wait = opts.max_queue_wait_ms == 0
                     ? -1
                     : static_cast<int64_t>(opts.max_queue_wait_ms);
  if (deadline.bounded()) {
    const int64_t left = deadline.remaining_ms();
    wait = wait < 0 ? left : std::min(wait, left);
  }
  return wait;
}

/// The structured rejection for an un-admitted ticket: an expired deadline
/// is the client's budget running out (DeadlineExceeded); anything else is
/// the server protecting itself (Overloaded, safe to retry).
ApiError admission_error(const support::Deadline& deadline, const char* op) {
  if (deadline.expired())
    return ApiError{ErrorCode::DeadlineExceeded,
                    "deadline expired while queued for admission", op};
  return ApiError{ErrorCode::Overloaded,
                  "engine at capacity: queued past max_queue_wait_ms; "
                  "retry after a backoff",
                  op};
}

} // namespace

Engine::Engine(EngineOptions opts)
    : opts_(opts), gate_(support::resolve_jobs(opts.max_inflight)),
      point_responses_(opts.response_cache_capacity),
      sweep_responses_(opts.response_cache_capacity),
      eval_responses_(opts.response_cache_capacity),
      corpus_responses_(opts.response_cache_capacity) {}

Result<std::shared_ptr<const workloads::WorkloadInfo>>
Engine::resolve(const std::string& name) {
  if (!workloads::is_known_benchmark(name))
    return ApiError{ErrorCode::UnknownWorkload,
                    "unknown workload '" + name + "'", "workload"};
  try {
    std::shared_ptr<const workloads::WorkloadInfo> wl =
        workloads::WorkloadRegistry::instance().benchmark(name);
    pin(wl);
    return wl;
  } catch (const std::exception& e) {
    // A known name that still fails means the MiniC lowering itself threw —
    // a pipeline failure, not a bad request.
    return ApiError{ErrorCode::ExecutionError, e.what(), "workload"};
  }
}

harness::SweepConfig Engine::config_for(MemSetup setup,
                                        const std::vector<uint32_t>& sizes,
                                        const ExperimentOptions& options) {
  harness::SweepConfig cfg;
  cfg.setup = setup;
  if (!sizes.empty()) cfg.sizes = sizes;
  cfg.cache_assoc = options.cache_assoc;
  cfg.cache_unified = options.cache_unified;
  cfg.with_persistence = options.with_persistence;
  cfg.wcet_driven_alloc = options.wcet_driven_alloc;
  // Resolved name-based requests run against the session cache, so
  // size-independent artifacts survive across requests, not just within
  // one batch (run_matrix leaves a non-null pointer alone).
  cfg.artifacts = &artifacts_;
  return cfg;
}

Result<PointResult> Engine::point(const PointRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // The budget starts at request arrival: queueing time counts against it.
  const support::Deadline deadline =
      support::Deadline::after_ms(req.deadline_ms());
  const auto wl = resolve(req.workload());
  if (!wl.ok()) return wl.error();
  try {
    const AdmissionGate::Ticket ticket(gate_, queue_wait_ms(opts_, deadline));
    if (!ticket.admitted()) return admission_error(deadline, "point");
    return cached_response<PointResult>(point_responses_, req.key(), [&] {
      PointResult r;
      // Results carry the workload's display name (Table-2 spelling), the
      // same name every table title and the historical `run` report used.
      r.workload = wl.value()->name;
      r.setup = req.setup();
      r.size_bytes = req.size_bytes();
      r.options = req.options();
      harness::SweepConfig cfg = config_for(req.setup(), {}, req.options());
      cfg.deadline = deadline;
      r.point = harness::detail::execute_point(*wl.value(), req.setup(),
                                               req.size_bytes(), cfg);
      return r;
    });
  } catch (const support::DeadlineExceededError& e) {
    return ApiError{ErrorCode::DeadlineExceeded, e.what(), "point"};
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "point"};
  }
}

Result<SweepResult> Engine::sweep(const SweepRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Resolve (and pin) everything up front so a bad name cannot abort a
  // half-executed batch.
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> wls;
  wls.reserve(req.workloads().size());
  for (const std::string& name : req.workloads()) {
    auto wl = resolve(name);
    if (!wl.ok()) return wl.error();
    wls.push_back(std::move(wl).value());
  }
  const support::Deadline deadline =
      support::Deadline::after_ms(req.deadline_ms());
  try {
    const AdmissionGate::Ticket ticket(gate_, queue_wait_ms(opts_, deadline));
    if (!ticket.admitted()) return admission_error(deadline, "sweep");
    return cached_response<SweepResult>(sweep_responses_, req.key(), [&] {
      harness::SweepConfig cfg =
          config_for(req.setup(), req.sizes(), req.options());
      cfg.deadline = deadline;
      std::vector<harness::MatrixRequest> requests;
      requests.reserve(wls.size());
      for (const auto& wl : wls)
        requests.push_back({wl.get(), cfg});
      std::vector<std::vector<harness::SweepPoint>> sweeps =
          harness::run_matrix(requests, opts_.jobs);
      SweepResult r;
      r.setup = req.setup();
      r.series.reserve(wls.size());
      for (std::size_t i = 0; i < wls.size(); ++i)
        r.series.push_back({wls[i]->name, std::move(sweeps[i])});
      return r;
    });
  } catch (const support::DeadlineExceededError& e) {
    return ApiError{ErrorCode::DeadlineExceeded, e.what(), "sweep"};
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "sweep"};
  }
}

Result<EvalResult> Engine::eval(const EvalRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> wls;
  wls.reserve(req.workloads().size());
  for (const std::string& name : req.workloads()) {
    auto wl = resolve(name);
    if (!wl.ok()) return wl.error();
    wls.push_back(std::move(wl).value());
  }
  const support::Deadline deadline =
      support::Deadline::after_ms(req.deadline_ms());
  try {
    const AdmissionGate::Ticket ticket(gate_, queue_wait_ms(opts_, deadline));
    if (!ticket.admitted()) return admission_error(deadline, "eval");
    return cached_response<EvalResult>(eval_responses_, req.key(), [&] {
      // Both setups of every workload as one batch.
      harness::SweepConfig spm_cfg =
          config_for(MemSetup::Scratchpad, req.sizes(), req.options());
      spm_cfg.deadline = deadline;
      harness::SweepConfig cache_cfg = spm_cfg;
      cache_cfg.setup = MemSetup::Cache;
      std::vector<harness::MatrixRequest> requests;
      requests.reserve(wls.size() * 2);
      for (const auto& wl : wls) {
        requests.push_back({wl.get(), spm_cfg});
        requests.push_back({wl.get(), cache_cfg});
      }
      std::vector<std::vector<harness::SweepPoint>> sweeps =
          harness::run_matrix(requests, opts_.jobs);
      EvalResult r;
      r.results.reserve(wls.size());
      for (std::size_t i = 0; i < wls.size(); ++i)
        r.results.push_back({wls[i], std::move(sweeps[2 * i]),
                             std::move(sweeps[2 * i + 1])});
      return r;
    });
  } catch (const support::DeadlineExceededError& e) {
    return ApiError{ErrorCode::DeadlineExceeded, e.what(), "eval"};
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "eval"};
  }
}

Result<CorpusResult> Engine::corpus(const CorpusRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  // Resolving a gen: name generates + lowers the member program, so the
  // up-front resolve loop is the corpus materialization step; like sweep,
  // a bad member (a generation failure) aborts before any batch work.
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> wls;
  wls.reserve(req.count());
  for (const std::string& name : req.workload_names()) {
    auto wl = resolve(name);
    if (!wl.ok()) return wl.error();
    wls.push_back(std::move(wl).value());
  }
  const support::Deadline deadline =
      support::Deadline::after_ms(req.deadline_ms());
  try {
    const AdmissionGate::Ticket ticket(gate_, queue_wait_ms(opts_, deadline));
    if (!ticket.admitted()) return admission_error(deadline, "corpus");
    return cached_response<CorpusResult>(corpus_responses_, req.key(), [&] {
      harness::SweepConfig cfg =
          config_for(req.setup(), req.sizes(), req.options());
      cfg.deadline = deadline;
      std::vector<harness::MatrixRequest> requests;
      requests.reserve(wls.size());
      for (const auto& wl : wls)
        requests.push_back({wl.get(), cfg});
      const std::vector<std::vector<harness::SweepPoint>> sweeps =
          harness::run_matrix(requests, opts_.jobs);

      CorpusResult r;
      r.shape = req.shape();
      r.base_seed = req.base_seed();
      r.count = req.count();
      r.setup = req.setup();
      r.options = req.options();
      r.sizes = req.sizes();
      // Aggregate in fixed (size, seed) order so the floating-point sums
      // are identical regardless of batch width — the corpus op is part
      // of the --jobs byte-identity gate.
      r.stats.reserve(r.sizes.size());
      for (std::size_t si = 0; si < r.sizes.size(); ++si) {
        CorpusResult::SizeStats st;
        st.size_bytes = r.sizes[si];
        double wcet_sum = 0.0, ratio_sum = 0.0, energy_sum = 0.0;
        for (std::size_t wi = 0; wi < sweeps.size(); ++wi) {
          const harness::SweepPoint& p = sweeps[wi][si];
          if (wi == 0) {
            st.wcet_min = st.wcet_max = p.wcet_cycles;
            st.ratio_min = st.ratio_max = p.ratio;
            st.energy_min_nj = st.energy_max_nj = p.energy_nj;
          } else {
            st.wcet_min = std::min(st.wcet_min, p.wcet_cycles);
            st.wcet_max = std::max(st.wcet_max, p.wcet_cycles);
            st.ratio_min = std::min(st.ratio_min, p.ratio);
            st.ratio_max = std::max(st.ratio_max, p.ratio);
            st.energy_min_nj = std::min(st.energy_min_nj, p.energy_nj);
            st.energy_max_nj = std::max(st.energy_max_nj, p.energy_nj);
          }
          wcet_sum += static_cast<double>(p.wcet_cycles);
          ratio_sum += p.ratio;
          energy_sum += p.energy_nj;
          r.total_sim_cycles += p.sim_cycles;
          r.total_wcet_cycles += p.wcet_cycles;
        }
        const double n = static_cast<double>(sweeps.size());
        st.wcet_mean = wcet_sum / n;
        st.ratio_mean = ratio_sum / n;
        st.energy_mean_nj = energy_sum / n;
        r.stats.push_back(st);
      }
      return r;
    });
  } catch (const support::DeadlineExceededError& e) {
    return ApiError{ErrorCode::DeadlineExceeded, e.what(), "corpus"};
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "corpus"};
  }
}

Result<SimBenchResult> Engine::simbench(const SimBenchRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Never served from a response cache: simbench measures wall time, and
    // a replayed measurement would be a lie.
    const AdmissionGate::Ticket ticket(gate_,
                                       queue_wait_ms(opts_, /*deadline=*/{}));
    if (!ticket.admitted()) return admission_error({}, "simbench");
    return measure_simbench(req);
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "simbench"};
  }
}

SimBenchResult Engine::measure_simbench(const SimBenchRequest& req) {
  // Measures the simulations the evaluation pipeline runs per workload:
  // the canonical image's profiling run, and the cache branch's observed
  // run (unified, direct-mapped, as the paper's cache points record it),
  // simulator construction included so the block tier's once-per-image
  // precomputation is charged honestly. Best-of-N damps machine noise.
  sim::SimConfig scfg;
  scfg.collect_profile = true;

  SimBenchResult out;
  out.repeat = req.repeat();

  uint64_t total_instr = 0;
  double total_seconds = 0.0;
  // The shared simbench set (paper benchmarks + generated members).
  for (const std::string& name : workloads::simbench_names()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    pin(wl);
    const auto canonical = harness::canonical_image(*wl, artifacts_);
    SimBenchResult::Row row{wl->name, 0, 1e300, 0.0, true, 0, 1e300};
    for (uint32_t i = 0; i < req.repeat(); ++i) {
      auto t0 = std::chrono::steady_clock::now();
      sim::Simulator s(canonical->image, scfg);
      const sim::SimResult run = s.run();
      std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
      row.instructions = run.instructions;
      row.best_seconds = std::min(row.best_seconds, dt.count());
      row.stack_window = row.stack_window && s.stack_window_active();
      row.fallback_instructions = s.fallback_instructions();

      t0 = std::chrono::steady_clock::now();
      cache::ReuseTable::Builder rec(canonical->image.regions, true, 1);
      sim::SimConfig ocfg;
      ocfg.reuse = &rec;
      ocfg.compiled_blocks = &canonical->blocks;
      (void)rec.finish(sim::simulate(canonical->image, ocfg).cycles);
      dt = std::chrono::steady_clock::now() - t0;
      row.observed_best_seconds =
          std::min(row.observed_best_seconds, dt.count());
    }
    row.instr_per_second =
        static_cast<double>(row.instructions) / row.best_seconds;
    total_instr += row.instructions;
    total_seconds += row.best_seconds;
    out.rows.push_back(std::move(row));
  }
  out.aggregate_ips = static_cast<double>(total_instr) / total_seconds;
  return out;
}

Result<WcetBenchResult> Engine::wcetbench(const WcetBenchRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Never served from a response cache: wcetbench measures wall time,
    // and a replayed measurement would be a lie.
    const AdmissionGate::Ticket ticket(gate_,
                                       queue_wait_ms(opts_, /*deadline=*/{}));
    if (!ticket.admitted()) return admission_error({}, "wcetbench");
    return measure_wcetbench(req);
  } catch (const std::exception& e) {
    return ApiError{ErrorCode::ExecutionError, e.what(), "wcetbench"};
  }
}

WcetBenchResult Engine::measure_wcetbench(const WcetBenchRequest& req) {
  // Measures what a sweep actually pays per point for WCET analysis: per
  // workload and setup, one timed pass covers the 8 paper sizes exactly the
  // way the sweep harness executes them. Each pass builds the shape and the
  // relocatable program (the per-workload front end both setups analyze
  // through); the SPM pass binds each placement from it (address
  // assignment, bind, analysis), the cache pass analyzes all cache sizes
  // against its canonical view, each with a fresh per-pass IPET skeleton
  // cache threaded through the points (built inside the timed region,
  // exactly the cost a batch pays). Linking, decoding, allocation and
  // simulation are untimed setup (they are not analysis). A fourth row
  // times the cache sizes alone on a resident canonical view with built
  // skeletons. Best-of-N damps machine noise.
  const std::vector<uint32_t> sizes = harness::SweepConfig{}.sizes;
  WcetBenchResult out;
  out.repeat = req.repeat();

  uint64_t total_analyses = 0;
  double total_seconds = 0.0;
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    pin(wl);
    const auto canonical = harness::canonical_image(*wl, artifacts_);
    const link::Image& img = canonical->image;
    const auto run = harness::canonical_run(*wl, artifacts_);
    // The SPM placements the sweep would analyze.
    std::vector<link::SpmAssignment> placements;
    placements.reserve(sizes.size());
    for (const uint32_t size : sizes)
      placements.push_back(
          alloc::allocate_energy_optimal(run->candidates, size).assignment);

    const auto measure = [&](const char* setup, const auto& pass) {
      WcetBenchResult::Row row{wl->name, setup,
                               static_cast<uint32_t>(sizes.size()), 1e300,
                               0.0};
      for (uint32_t i = 0; i < req.repeat(); ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        pass();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        row.best_seconds = std::min(row.best_seconds, dt.count());
      }
      row.analyses_per_second =
          static_cast<double>(row.analyses) / row.best_seconds;
      total_analyses += row.analyses;
      total_seconds += row.best_seconds;
      out.rows.push_back(std::move(row));
    };

    // The front end production builds once per workload
    // (harness::relocatable_program).
    const auto front_end = [&] {
      return wcet::build_relocatable(
          std::make_shared<const wcet::ProgramShape>(
              wcet::build_shape(img, canonical->decoded)),
          img, canonical->decoded, wl->module, canonical->extents);
    };

    measure("spm", [&] {
      const wcet::RelocatableProgram rp = front_end();
      const wcet::IpetCache ipet;
      wcet::AnalyzerConfig acfg;
      acfg.ipet_cache = &ipet;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        link::LinkOptions opts;
        opts.spm_size = sizes[i];
        const link::AddressMap addrs = link::assign_addresses(
            wl->module, canonical->extents, opts, placements[i]);
        (void)wcet::analyze_wcet(
            wcet::bind_placement(rp, wl->module, canonical->extents, opts,
                                 addrs)
                .view,
            acfg);
      }
    });

    // One sweep's cache sizes on `view`, solving through `ipet`.
    const auto analyze_sizes = [&](const wcet::ProgramView& view,
                                   const wcet::IpetCache& ipet,
                                   bool persistence) {
      for (const uint32_t size : sizes) {
        wcet::AnalyzerConfig acfg;
        acfg.cache = cache::CacheConfig{};
        acfg.cache->size_bytes = size;
        acfg.cache->line_bytes = 16;
        acfg.with_persistence = persistence;
        acfg.ipet_cache = &ipet;
        (void)wcet::analyze_wcet(view, acfg);
      }
    };
    const auto cache_pass = [&](bool persistence) {
      const wcet::RelocatableProgram rp = front_end();
      const wcet::IpetCache ipet;
      analyze_sizes(*rp.canonical, ipet, persistence);
    };
    measure("cache", [&] { cache_pass(/*persistence=*/false); });
    measure("cache+pers", [&] { cache_pass(/*persistence=*/true); });

    // Warm cache points: the canonical view is bound and every IPET
    // skeleton built by an untimed pass over the sizes, so the timed pass
    // is only what a cache point on a resident view costs — cache
    // analysis, block timing and the IPET re-solves.
    const wcet::RelocatableProgram warm = front_end();
    const wcet::IpetCache warm_ipet;
    const auto warm_pass = [&] {
      analyze_sizes(*warm.canonical, warm_ipet, /*persistence=*/false);
    };
    warm_pass();
    measure("cache-warm", warm_pass);
  }
  out.aggregate_aps = static_cast<double>(total_analyses) / total_seconds;
  return out;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.response_hits = response_hits_.load(std::memory_order_relaxed);
  s.admission_waits = gate_.waits();
  s.shed = gate_.shed();
  s.response_evictions = point_responses_.stats().evictions +
                         sweep_responses_.stats().evictions +
                         eval_responses_.stats().evictions +
                         corpus_responses_.stats().evictions;
  s.profile_artifacts = artifacts_.stats();
  s.image_artifacts = artifacts_.image_stats();
  s.shape_artifacts = artifacts_.shape_stats();
  s.view_artifacts = artifacts_.relocatable_stats();
  s.ipet_artifacts = artifacts_.ipet_stats();
  s.reuse_artifacts = artifacts_.reuse_stats();
  s.placement_artifacts = artifacts_.placement_stats();
  s.placement_binds = artifacts_.bind_stats();
  s.ipet_skeletons = artifacts_.ipet_skeleton_stats();
  return s;
}

} // namespace spmwcet::api
