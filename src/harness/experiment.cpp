#include "harness/experiment.h"

#include "harness/artifact_cache.h"

#include <algorithm>

#include "alloc/allocator.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "support/fault.h"
#include "wcet/analyzer.h"

namespace spmwcet::harness {

namespace {

/// The canonical no-assignment link shared by the cache branch and the
/// profiling simulation.
std::shared_ptr<const link::Image>
no_assignment_image(const workloads::WorkloadInfo& wl, ArtifactCache& ac) {
  return ac.image(wl, [&] { return link::link_program(wl.module, {}, {}); });
}

/// The workload's layout-invariant analyzer skeleton. Any link of the
/// module yields the same shape, so the compute may run against whichever
/// image reaches it first.
std::shared_ptr<const wcet::ProgramShape>
shape_for(const workloads::WorkloadInfo& wl, ArtifactCache& ac,
          const link::Image& img, const program::DecodedImage& dec) {
  return ac.shape(wl, [&] { return wcet::build_shape(img, dec); });
}

/// Shared decode of the canonical no-assignment image (cache branch and
/// profiling simulation): one decode per workload.
std::shared_ptr<const program::DecodedImage>
canonical_decoded(const workloads::WorkloadInfo& wl, ArtifactCache& ac,
                  const link::Image& img) {
  return ac.decoded(wl, [&] { return program::DecodedImage(img); });
}

/// The block table of the canonical no-assignment image, compiled once per
/// workload for the profiling simulation and the cache branch's observed
/// run.
std::shared_ptr<const sim::BlockTable>
canonical_blocks(const workloads::WorkloadInfo& wl, ArtifactCache& ac,
                 const link::Image& img, const program::DecodedImage& dec) {
  return ac.blocks(
      wl, [&] { return sim::BlockTable(dec, sim::SymbolIndex(img), img); });
}

/// The analyzer front end bound to the canonical image, shared by every
/// cache size of the cache branch. The view pins the image (and shape) it
/// borrows, so a cached copy outlives the batch safely.
std::shared_ptr<const wcet::ProgramView>
canonical_view(const workloads::WorkloadInfo& wl, ArtifactCache& ac,
               const std::shared_ptr<const link::Image>& img,
               const program::DecodedImage& dec) {
  return ac.view(wl, [&] {
    wcet::ProgramView v =
        wcet::bind_view(shape_for(wl, ac, *img, dec), *img, dec);
    v.pinned_image = img;
    return v;
  });
}

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

/// Profile-based energy estimate of an uncached run: every profiled access
/// is charged by the memory class its symbol landed in; stack and
/// anonymous traffic is main memory.
double estimate_energy(const link::Image& img, const sim::SimResult& run) {
  const energy::EnergyModel em;
  double nj = static_cast<double>(run.cycles) * em.cpu_cycle_nj;
  auto charge = [&](const sim::AccessCounts& c, isa::MemClass cls) {
    nj += static_cast<double>(c.fetch) * em.access_nj(cls, 2);
    for (int w = 0; w < 3; ++w)
      nj += static_cast<double>(c.load[w] + c.store[w]) *
            em.access_nj(cls, 1u << w);
  };
  // The profile is keyed by name in name order, so one name-sorted index of
  // the image resolves every profiled symbol in a single merge. The sort is
  // stable: a repeated name resolves to its first symbol, as find_symbol
  // would.
  std::vector<const link::Symbol*> by_name;
  by_name.reserve(img.symbols.size());
  for (const link::Symbol& s : img.symbols) by_name.push_back(&s);
  std::stable_sort(by_name.begin(), by_name.end(),
                   [](const link::Symbol* a, const link::Symbol* b) {
                     return a->name < b->name;
                   });
  auto next = by_name.begin();
  for (const auto& [name, counts] : run.profile.symbols) {
    while (next != by_name.end() && (*next)->name < name) ++next;
    const link::Symbol* sym =
        next != by_name.end() && (*next)->name == name ? *next : nullptr;
    const isa::MemClass cls = sym != nullptr
                                  ? img.regions.classify(sym->addr)
                                  : isa::MemClass::MainMemory;
    charge(counts, cls);
  }
  charge(run.profile.stack, isa::MemClass::MainMemory);
  charge(run.profile.other, isa::MemClass::MainMemory);
  return nj;
}

/// Energy of a cached run: cycles plus hits and misses.
double cache_energy(const cache::ReuseTable::Outcome& run) {
  const energy::EnergyModel em;
  double nj = static_cast<double>(run.cycles) * em.cpu_cycle_nj;
  nj += static_cast<double>(run.hits) * em.cache_hit_nj;
  nj += static_cast<double>(run.misses) * em.cache_miss_nj;
  return nj;
}

/// The workload's all-geometry table for the configured cache kind: one
/// observed run of the canonical image, block tier included, with its
/// outputs validated in that run.
std::shared_ptr<const cache::ReuseTable>
reuse_table(const workloads::WorkloadInfo& wl, const SweepConfig& cfg,
            ArtifactCache& ac, const link::Image& img,
            const program::DecodedImage& dec) {
  return ac.reuse(wl, cfg.cache_unified, [&] {
    cache::ReuseTable::Builder rec(cfg.cache_unified);
    sim::SimConfig scfg;
    scfg.reuse = &rec;
    scfg.predecoded = &dec;
    const auto blocks = canonical_blocks(wl, ac, img, dec);
    scfg.compiled_blocks = blocks.get();
    sim::Simulator s(img, scfg);
    const sim::SimResult run = s.run();
    validate_outputs(wl, s, "cache");
    return rec.finish(run.cycles);
  });
}

/// The paper's allocation profile: one simulation of the canonical
/// no-assignment image, whose access counts do not depend on the capacity.
std::shared_ptr<const sim::AccessProfile>
allocation_profile(const workloads::WorkloadInfo& wl, ArtifactCache& ac) {
  return ac.profile(wl, [&] {
    const auto img = no_assignment_image(wl, ac);
    sim::SimConfig pcfg;
    pcfg.collect_profile = true;
    const auto dec = canonical_decoded(wl, ac, *img);
    pcfg.predecoded = dec.get();
    const auto blocks = canonical_blocks(wl, ac, *img, *dec);
    pcfg.compiled_blocks = blocks.get();
    sim::Simulator profiler(*img, pcfg);
    return profiler.run().profile;
  });
}

/// The placed run of one scratchpad assignment: relink, simulate the
/// typical input, validate, analyze, estimate energy. The placed image is
/// decoded once, feeding both the simulator's code table and the analyzer,
/// which re-binds the workload's layout-invariant shape. The image does not
/// depend on the capacity (it only gates the link's overflow check), so the
/// result serves every size that allocates the same objects; `size` names
/// the point in that check and in a validation failure.
PlacedRun run_placement(const workloads::WorkloadInfo& wl, uint32_t size,
                        const link::SpmAssignment& assignment,
                        const SweepConfig& cfg, ArtifactCache& ac) {
  link::LinkOptions opts;
  opts.spm_size = size;
  const link::Image img = link::link_program(wl.module, opts, assignment);
  sim::SimConfig scfg;
  scfg.collect_profile = true;
  const program::DecodedImage dec(img);
  scfg.predecoded = &dec;
  sim::Simulator s(img, scfg);
  const sim::SimResult run = s.run();
  validate_outputs(wl, s, "spm/" + std::to_string(size));
  cfg.deadline.check("simulate");
  wcet::AnalyzerConfig acfg;
  const auto ipet = ac.ipet(wl);
  acfg.ipet_cache = ipet.get();
  const wcet::WcetReport report = wcet::analyze_wcet(
      wcet::bind_view(shape_for(wl, ac, img, dec), img, dec), acfg);
  return PlacedRun{run.cycles, report.wcet, estimate_energy(img, run),
                   img.spm_extent};
}

SweepPoint run_spm_point(const workloads::WorkloadInfo& wl, uint32_t size,
                         const SweepConfig& cfg, ArtifactCache& ac) {
  // 1. Allocation, every point: profile-driven energy knapsack over the
  //    workload's candidate table (the paper's flow) or the WCET-driven
  //    greedy ablation.
  PlacementKey key{&wl, {}};
  uint32_t used = 0;
  if (cfg.wcet_driven_alloc) {
    auto alloc = alloc::allocate_wcet_driven(wl.module, size);
    key.assignment = std::move(alloc.assignment);
    used = alloc.used_bytes;
  } else {
    const auto profile = allocation_profile(wl, ac);
    const auto candidates = ac.candidates(wl, [&] {
      return alloc::collect_objects(wl.module, *profile, {});
    });
    auto alloc = alloc::allocate_energy_optimal(*candidates, size);
    key.assignment = std::move(alloc.assignment);
    used = alloc.used_bytes;
  }
  cfg.deadline.check("allocate");

  // 2. The placed run, once per distinct placement. Sizes whose knapsacks
  //    choose the same objects share it; the capacity check still runs for
  //    every point, with the link's own error.
  const auto placed = ac.placement(
      key, [&] { return run_placement(wl, size, key.assignment, cfg, ac); });
  link::check_spm_capacity(placed->spm_extent, size);

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = placed->sim_cycles;
  pt.wcet_cycles = placed->wcet_cycles;
  pt.ratio = static_cast<double>(placed->wcet_cycles) /
             static_cast<double>(placed->sim_cycles);
  pt.spm_used_bytes = used;
  pt.energy_nj = placed->energy_nj;
  return pt;
}

SweepPoint run_cache_point(const workloads::WorkloadInfo& wl, uint32_t size,
                           const SweepConfig& cfg, ArtifactCache& ac) {
  // One executable serves all cache sizes (caches are transparent): its
  // link, decode, observed run and bound analyzer front end are once per
  // workload, and each size re-runs only cache analysis, timing and IPET.
  const auto shared_img = no_assignment_image(wl, ac);
  const link::Image& img = *shared_img;
  const auto dec = canonical_decoded(wl, ac, img);

  cache::CacheConfig ccfg;
  ccfg.size_bytes = size;
  ccfg.line_bytes = 16;
  ccfg.assoc = cfg.cache_assoc;
  ccfg.unified = cfg.cache_unified;

  // The typical-input run under this geometry: a lookup, not a simulation.
  const cache::ReuseTable::Outcome run =
      reuse_table(wl, cfg, ac, img, *dec)->lookup(ccfg);
  cfg.deadline.check("simulate");

  wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  acfg.with_persistence = cfg.with_persistence;
  const auto ipet = ac.ipet(wl);
  acfg.ipet_cache = ipet.get();
  const wcet::WcetReport report =
      wcet::analyze_wcet(*canonical_view(wl, ac, shared_img, *dec), acfg);

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
