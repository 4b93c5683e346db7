#include "harness/experiment.h"

#include "harness/artifact_cache.h"

#include "alloc/allocator.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "support/fault.h"
#include "wcet/analyzer.h"

namespace spmwcet::harness {

namespace {

void validate_outputs(const workloads::WorkloadInfo& wl, sim::Simulator& s,
                      const std::string& what) {
  for (const auto& exp : wl.expected) {
    // One symbol lookup per global, not per element.
    const link::Symbol& sym = s.global(exp.name);
    for (std::size_t i = 0; i < exp.values.size(); ++i) {
      const int64_t got = s.read_global(sym, static_cast<uint32_t>(i));
      if (got != exp.values[i])
        throw Error("harness: " + wl.name + " produced wrong output in " +
                    what + " configuration: " + exp.name + "[" +
                    std::to_string(i) + "] = " + std::to_string(got) +
                    ", expected " + std::to_string(exp.values[i]));
    }
  }
}

/// Energy of a cached run: cycles plus hits and misses.
double cache_energy(const cache::ReuseTable::Outcome& run) {
  const energy::EnergyModel em;
  double nj = static_cast<double>(run.cycles) * em.cpu_cycle_nj;
  nj += static_cast<double>(run.hits) * em.cache_hit_nj;
  nj += static_cast<double>(run.misses) * em.cache_miss_nj;
  return nj;
}

/// The canonical run of `run`, a validated profiled run of the canonical
/// image: the result and the candidate table of its profile.
CanonicalRun make_canonical_run(const workloads::WorkloadInfo& wl,
                                const CanonicalImage& canonical,
                                sim::SimResult run) {
  CanonicalRun out{std::move(run), {}};
  out.candidates = alloc::collect_objects(wl.module, canonical.extents,
                                          out.run.profile, {});
  return out;
}

/// The workload's table for the configured cache kind and associativity
/// (every set count of it): one observed run of the canonical image, block
/// tier included, with its outputs validated in that run. While no
/// canonical run is memoized, the run also profiles and hands its result in
/// as the canonical run: an observer changes no cycle, output or profile
/// count, so it equals the separate profiled run field for field.
std::shared_ptr<const cache::ReuseTable>
reuse_table(const workloads::WorkloadInfo& wl, const SweepConfig& cfg,
            ArtifactCache& ac, const CanonicalImage& canonical) {
  return ac.reuse(wl, cfg.cache_unified, cfg.cache_assoc, [&] {
    cache::ReuseTable::Builder rec(canonical.image.regions, cfg.cache_unified,
                                   cfg.cache_assoc);
    sim::SimConfig scfg;
    scfg.reuse = &rec;
    scfg.compiled_blocks = &canonical.blocks;
    scfg.collect_profile = !ac.holds_profile(wl);
    sim::Simulator s(canonical.image, scfg);
    sim::SimResult run = s.run();
    validate_outputs(wl, s, "cache");
    cache::ReuseTable table = rec.finish(run.cycles);
    if (scfg.collect_profile)
      ac.insert_profile(wl, make_canonical_run(wl, canonical, std::move(run)));
    return table;
  });
}

/// The placed point of one scratchpad assignment: the priced canonical run
/// and the WCET of the placement, bound from the workload's relocatable
/// program. The placement does not depend on the capacity (it only gates
/// the address assignment's overflow check, where `size` names the point),
/// so the result serves every size that allocates the same objects.
PlacedRun run_placement(const workloads::WorkloadInfo& wl, uint32_t size,
                        const link::SpmAssignment& assignment,
                        const sim::SimResult& canonical, ArtifactCache& ac) {
  const PricedRun priced = price_placement(canonical, assignment);
  link::LinkOptions opts;
  opts.spm_size = size;
  const auto record = canonical_image(wl, ac);
  const link::AddressMap addrs =
      link::assign_addresses(wl.module, record->extents, opts, assignment);
  const wcet::PlacementBinding bound =
      wcet::bind_placement(*relocatable_program(wl, ac), wl.module,
                           record->extents, opts, addrs);
  wcet::AnalyzerConfig acfg;
  const auto ipet = ac.ipet(wl);
  acfg.ipet_cache = ipet.get();
  const wcet::WcetReport report = wcet::analyze_wcet(bound.view, acfg);
  ac.count_reanalyzed(bound.reanalyzed);
  return PlacedRun{priced.cycles, report.wcet, priced.energy_nj,
                   addrs.spm_extent};
}

SweepPoint run_spm_point(const workloads::WorkloadInfo& wl, uint32_t size,
                         const SweepConfig& cfg, ArtifactCache& ac) {
  // The canonical run: every placement's price, and the candidate table the
  // allocators solve.
  const auto canonical = canonical_run(wl, ac);

  // A placed point, once per distinct placement: sizes whose allocations
  // (or greedy trials) choose the same objects share it, and the capacity
  // check still runs at every size, with the link's own error.
  const auto placed_at = [&](const link::SpmAssignment& assignment) {
    const auto placed = ac.placement({&wl, assignment}, [&] {
      return run_placement(wl, size, assignment, canonical->run, ac);
    });
    link::check_spm_capacity(placed->spm_extent, size);
    return placed;
  };

  // 1. Allocation, every point, over the workload's candidate table: the
  //    profile-driven energy knapsack (the paper's flow) or the WCET-driven
  //    greedy ablation, which prices every trial as a placed point.
  const alloc::AllocationResult allocation =
      cfg.wcet_driven_alloc
          ? alloc::allocate_wcet_driven(
                canonical->candidates, size,
                [&](const link::SpmAssignment& trial) {
                  cfg.deadline.check("allocate");
                  return placed_at(trial)->wcet_cycles;
                })
          : alloc::allocate_energy_optimal(canonical->candidates, size);
  cfg.deadline.check("allocate");

  // 2. The point's placed run; the greedy's choice was one of its trials.
  const auto placed = placed_at(allocation.assignment);

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = placed->sim_cycles;
  pt.wcet_cycles = placed->wcet_cycles;
  pt.ratio = static_cast<double>(placed->wcet_cycles) /
             static_cast<double>(placed->sim_cycles);
  pt.spm_used_bytes = allocation.used_bytes;
  pt.energy_nj = placed->energy_nj;
  return pt;
}

SweepPoint run_cache_point(const workloads::WorkloadInfo& wl, uint32_t size,
                           const SweepConfig& cfg, ArtifactCache& ac) {
  // One executable serves all cache sizes (caches are transparent): its
  // canonical record, observed run and bound analyzer front end are once per
  // workload, and each size re-runs only cache analysis, timing and IPET.
  const auto canonical = canonical_image(wl, ac);

  cache::CacheConfig ccfg;
  ccfg.size_bytes = size;
  ccfg.line_bytes = 16;
  ccfg.assoc = cfg.cache_assoc;
  ccfg.unified = cfg.cache_unified;

  // The typical-input run under this geometry: a lookup, not a simulation.
  const cache::ReuseTable::Outcome run =
      reuse_table(wl, cfg, ac, *canonical)->lookup(ccfg);
  cfg.deadline.check("simulate");

  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  acfg.with_persistence = cfg.with_persistence;
  const auto ipet = ac.ipet(wl);
  acfg.ipet_cache = ipet.get();
  const wcet::WcetReport report =
      wcet::analyze_wcet(*relocatable_program(wl, ac)->canonical, acfg);

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = run.cycles;
  pt.wcet_cycles = report.wcet;
  pt.ratio = static_cast<double>(report.wcet) / static_cast<double>(run.cycles);
  pt.cache_hits = run.hits;
  pt.cache_misses = run.misses;
  pt.energy_nj = cache_energy(run);
  return pt;
}

} // namespace

std::shared_ptr<const CanonicalImage>
canonical_image(const workloads::WorkloadInfo& wl, ArtifactCache& ac) {
  return ac.image(wl, [&] {
    const link::ModuleLayout layout = link::lay_out(wl.module);
    link::Image image = link::link_program(wl.module, layout, {}, {});
    return CanonicalImage(layout.extents(), std::move(image));
  });
}

std::shared_ptr<const wcet::RelocatableProgram>
relocatable_program(const workloads::WorkloadInfo& wl, ArtifactCache& ac) {
  return ac.relocatable(wl, [&] {
    const auto canonical = canonical_image(wl, ac);
    const auto shape = ac.shape(wl, [&] {
      return wcet::build_shape(canonical->image, canonical->decoded);
    });
    return wcet::build_relocatable(shape, canonical->image, canonical->decoded,
                                   wl.module, canonical->extents);
  });
}

std::shared_ptr<const CanonicalRun>
canonical_run(const workloads::WorkloadInfo& wl, ArtifactCache& ac) {
  return ac.profile(wl, [&] {
    const auto canonical = canonical_image(wl, ac);
    sim::SimConfig pcfg;
    pcfg.collect_profile = true;
    pcfg.compiled_blocks = &canonical->blocks;
    sim::Simulator s(canonical->image, pcfg);
    sim::SimResult run = s.run();
    validate_outputs(wl, s, "spm");
    return make_canonical_run(wl, *canonical, std::move(run));
  });
}

// Why the price is exact: a placed image runs the canonical instruction
// stream on the same data, each access landing in the same object. MiniC
// has no address values; the interpreter rejects out-of-range indices, so a
// validated program never reaches past the object it indexes; relaxation is
// function-relative, and a BL is 4 bytes wherever it lands. Only latencies
// change: an access to an assigned object costs the scratchpad's Table-1
// cycles instead of main memory's, and the profile is the canonical one.
// The energy sums the placed run's terms in the same order.
PricedRun price_placement(const sim::SimResult& canonical,
                          const link::SpmAssignment& assignment) {
  using isa::MemTiming;
  const auto on_spm = [&](const std::string& name) {
    return assignment.functions.count(name) != 0 ||
           assignment.globals.count(name) != 0;
  };
  uint64_t cycles = canonical.cycles;
  for (const auto& [name, c] : canonical.profile.symbols) {
    if (!on_spm(name)) continue;
    cycles -= c.fetch * (MemTiming::main_memory(2) - MemTiming::scratchpad());
    for (int w = 0; w < 3; ++w)
      cycles -= (c.load[w] + c.store[w]) *
                (MemTiming::main_memory(1u << w) - MemTiming::scratchpad());
  }

  const energy::EnergyModel em;
  double nj = static_cast<double>(cycles) * em.cpu_cycle_nj;
  auto charge = [&](const sim::AccessCounts& c, isa::MemClass cls) {
    nj += static_cast<double>(c.fetch) * em.access_nj(cls, 2);
    for (int w = 0; w < 3; ++w)
      nj += static_cast<double>(c.load[w] + c.store[w]) *
            em.access_nj(cls, 1u << w);
  };
  for (const auto& [name, counts] : canonical.profile.symbols)
    charge(counts, on_spm(name) ? isa::MemClass::Scratchpad
                                : isa::MemClass::MainMemory);
  charge(canonical.profile.stack, isa::MemClass::MainMemory);
  charge(canonical.profile.other, isa::MemClass::MainMemory);
  return PricedRun{cycles, nj};
}

namespace detail {

SweepPoint execute_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                         uint32_t size_bytes, const SweepConfig& cfg) {
  // Fault sites fire before the first deadline check so an injected delay
  // deterministically pushes a bounded request past its budget.
  support::fault::maybe_delay("engine.compute.delay");
  if (support::fault::fire("engine.compute.throw"))
    throw Error("injected fault: engine.compute.throw");
  cfg.deadline.check("start");
  // A point without a shared cache gets its own, so shared and per-point
  // artifacts run one pipeline.
  ArtifactCache local;
  ArtifactCache& ac = cfg.artifacts != nullptr ? *cfg.artifacts : local;
  return setup == MemSetup::Scratchpad
             ? run_spm_point(wl, size_bytes, cfg, ac)
             : run_cache_point(wl, size_bytes, cfg, ac);
}

} // namespace detail

TablePrinter to_table(const std::string& benchmark, MemSetup setup,
                      const std::vector<SweepPoint>& points) {
  TablePrinter table({std::string(to_string(setup)) + " [bytes]",
                      benchmark + " ACET [cycles]", "WCET [cycles]",
                      "WCET/ACET", "hits", "misses", "spm used", "energy [uJ]"});
  for (const SweepPoint& pt : points) {
    table.add_row({TablePrinter::fmt(static_cast<uint64_t>(pt.size_bytes)),
                   TablePrinter::fmt(pt.sim_cycles),
                   TablePrinter::fmt(pt.wcet_cycles),
                   TablePrinter::fmt(pt.ratio, 3),
                   TablePrinter::fmt(pt.cache_hits),
                   TablePrinter::fmt(pt.cache_misses),
                   TablePrinter::fmt(static_cast<uint64_t>(pt.spm_used_bytes)),
                   TablePrinter::fmt(pt.energy_nj / 1000.0, 2)});
  }
  return table;
}

const char* to_string(MemSetup setup) {
  return setup == MemSetup::Scratchpad ? "scratchpad" : "cache";
}

} // namespace spmwcet::harness
