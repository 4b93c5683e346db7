#include "replica.h"

#include <optional>
#include <stdexcept>

#include "alloc/allocator.h"
#include "energy/energy_model.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/block_table.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/frontend.h"
#include "workloads/workload.h"

namespace perfbench {

namespace lk = spmwcet::link;
namespace sim = spmwcet::sim;
namespace wcet = spmwcet::wcet;

const char* span_metric(Span span) {
  switch (span) {
  case Span::Lower: return "workloads.lower_ms";
  case Span::Link: return "link.ms";
  case Span::Alloc: return "alloc.ms";
  case Span::Decode: return "program.decode_ms";
  case Span::SimConstruct: return "sim.construct_ms";
  case Span::SimRun: return "sim.run_ms";
  case Span::SimValidate: return "sim.validate_ms";
  case Span::Energy: return "harness.energy_ms";
  case Span::WcetShape: return "wcet.shape_ms";
  case Span::WcetBind: return "wcet.bind_ms";
  case Span::WcetAnalyze: return "wcet.analyze_ms";
  case Span::kCount: break;
  }
  return "?";
}

double Trace::total_ms() const {
  uint64_t sum = 0;
  for (const uint64_t v : ns) sum += v;
  return static_cast<double>(sum) / 1e6;
}

void Trace::add(const Trace& other) {
  for (std::size_t i = 0; i < kSpans; ++i) {
    ns[i] += other.ns[i];
    calls[i] += other.calls[i];
  }
  instructions += other.instructions;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  points += other.points;
}

struct Replica::Artifacts {
  std::shared_ptr<const spmwcet::workloads::WorkloadInfo> wl;
  // The canonical no-assignment link and its decode: the profiling run and
  // every cache size use them.
  std::shared_ptr<const lk::Image> image;
  std::optional<spmwcet::program::DecodedImage> decoded;
  std::optional<sim::AccessProfile> profile;
  std::shared_ptr<const wcet::ProgramShape> shape;
  std::optional<wcet::ProgramView> view; ///< bound to `image`
  wcet::IpetCache ipet;
};

Replica::Replica(Trace& trace) : trace_(trace) {}
Replica::~Replica() = default;

Replica::Artifacts& Replica::artifacts(const std::string& program) {
  std::unique_ptr<Artifacts>& slot = artifacts_[program];
  if (!slot) {
    slot = std::make_unique<Artifacts>();
    const ScopedSpan span(trace_, Span::Lower);
    slot->wl = spmwcet::workloads::WorkloadRegistry::instance().benchmark(program);
  }
  return *slot;
}

void Replica::ensure_canonical(Artifacts& a) {
  if (!a.image) {
    const ScopedSpan span(trace_, Span::Link);
    a.image = std::make_shared<const lk::Image>(
        lk::link_program(a.wl->module, {}, {}));
  }
  if (!a.decoded) {
    const ScopedSpan span(trace_, Span::Decode);
    a.decoded.emplace(*a.image);
  }
}

namespace {

void validate_outputs(const spmwcet::workloads::WorkloadInfo& wl,
                      const sim::Simulator& s) {
  for (const auto& exp : wl.expected)
    for (std::size_t i = 0; i < exp.values.size(); ++i)
      if (s.read_global(exp.name, static_cast<uint32_t>(i)) != exp.values[i])
        throw std::runtime_error(wl.name + " produced wrong output in " +
                                 exp.name + "[" + std::to_string(i) + "]");
}

/// The harness's profile-based energy estimate, term for term in the same
/// order, so the result is bit-identical.
double estimate_energy(const lk::Image& img, const sim::SimResult& run,
                       bool cached) {
  const spmwcet::energy::EnergyModel em;
  double nj = static_cast<double>(run.cycles) * em.cpu_cycle_nj;
  if (cached) {
    nj += static_cast<double>(run.cache_hits) * em.cache_hit_nj;
    nj += static_cast<double>(run.cache_misses) * em.cache_miss_nj;
    return nj;
  }
  auto charge = [&](const sim::AccessCounts& c, spmwcet::isa::MemClass cls) {
    nj += static_cast<double>(c.fetch) * em.access_nj(cls, 2);
    for (int w = 0; w < 3; ++w)
      nj += static_cast<double>(c.load[w] + c.store[w]) *
            em.access_nj(cls, 1u << w);
  };
  for (const auto& [name, counts] : run.profile.symbols) {
    const lk::Symbol* sym = img.find_symbol(name);
    charge(counts, sym != nullptr ? img.regions.classify(sym->addr)
                                  : spmwcet::isa::MemClass::MainMemory);
  }
  charge(run.profile.stack, spmwcet::isa::MemClass::MainMemory);
  charge(run.profile.other, spmwcet::isa::MemClass::MainMemory);
  return nj;
}

} // namespace

SweepPoint Replica::point(const std::string& program, MemSetup setup,
                          uint32_t size) {
  Artifacts& a = artifacts(program);
  SweepPoint pt = setup == MemSetup::Scratchpad ? spm_point(a, size)
                                                : cache_point(a, size);
  ++trace_.points;
  return pt;
}

SweepPoint Replica::spm_point(Artifacts& a, uint32_t size) {
  const auto& wl = *a.wl;
  if (!a.profile) {
    ensure_canonical(a);
    std::optional<sim::BlockTable> blocks;
    std::optional<sim::Simulator> profiler;
    {
      const ScopedSpan span(trace_, Span::SimConstruct);
      blocks.emplace(*a.decoded, sim::SymbolIndex(*a.image), *a.image);
      sim::SimConfig pcfg;
      pcfg.collect_profile = true;
      pcfg.predecoded = &*a.decoded;
      pcfg.compiled_blocks = &*blocks;
      profiler.emplace(*a.image, pcfg);
    }
    const ScopedSpan span(trace_, Span::SimRun);
    sim::SimResult run = profiler->run();
    trace_.instructions += run.instructions;
    a.profile = std::move(run.profile);
  }

  lk::LinkOptions opts;
  opts.spm_size = size;
  std::optional<spmwcet::alloc::AllocationResult> alloc;
  {
    const ScopedSpan span(trace_, Span::Alloc);
    alloc = spmwcet::alloc::allocate_energy_optimal(wl.module, *a.profile, size);
  }
  std::optional<lk::Image> img;
  {
    const ScopedSpan span(trace_, Span::Link);
    img = lk::link_program(wl.module, opts, alloc->assignment);
  }
  std::optional<spmwcet::program::DecodedImage> dec;
  {
    const ScopedSpan span(trace_, Span::Decode);
    dec.emplace(*img);
  }
  std::optional<sim::Simulator> s;
  {
    const ScopedSpan span(trace_, Span::SimConstruct);
    sim::SimConfig scfg;
    scfg.collect_profile = true;
    scfg.predecoded = &*dec;
    s.emplace(*img, scfg);
  }
  sim::SimResult run;
  {
    const ScopedSpan span(trace_, Span::SimRun);
    run = s->run();
  }
  trace_.instructions += run.instructions;
  {
    const ScopedSpan span(trace_, Span::SimValidate);
    validate_outputs(wl, *s);
  }
  if (!a.shape) {
    const ScopedSpan span(trace_, Span::WcetShape);
    a.shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(*img, *dec));
  }
  std::optional<wcet::ProgramView> view;
  {
    const ScopedSpan span(trace_, Span::WcetBind);
    view = wcet::bind_view(a.shape, *img, *dec);
  }
  wcet::WcetReport report;
  {
    const ScopedSpan span(trace_, Span::WcetAnalyze);
    wcet::AnalyzerConfig acfg;
    acfg.ipet_cache = &a.ipet;
    report = wcet::analyze_wcet(*view, acfg);
  }

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = run.cycles;
  pt.wcet_cycles = report.wcet;
  pt.ratio = static_cast<double>(report.wcet) / static_cast<double>(run.cycles);
  pt.spm_used_bytes = alloc->used_bytes;
  const ScopedSpan span(trace_, Span::Energy);
  pt.energy_nj = estimate_energy(*img, run, /*cached=*/false);
  return pt;
}

SweepPoint Replica::cache_point(Artifacts& a, uint32_t size) {
  ensure_canonical(a);
  spmwcet::cache::CacheConfig ccfg;
  ccfg.size_bytes = size;
  ccfg.line_bytes = 16;
  ccfg.assoc = 1;
  ccfg.unified = true;

  std::optional<sim::Simulator> s;
  {
    const ScopedSpan span(trace_, Span::SimConstruct);
    sim::SimConfig scfg;
    scfg.cache = ccfg;
    scfg.collect_profile = true;
    scfg.predecoded = &*a.decoded;
    s.emplace(*a.image, scfg);
  }
  sim::SimResult run;
  {
    const ScopedSpan span(trace_, Span::SimRun);
    run = s->run();
  }
  trace_.instructions += run.instructions;
  trace_.cache_hits += run.cache_hits;
  trace_.cache_misses += run.cache_misses;
  {
    const ScopedSpan span(trace_, Span::SimValidate);
    validate_outputs(*a.wl, *s);
  }
  if (!a.shape) {
    const ScopedSpan span(trace_, Span::WcetShape);
    a.shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(*a.image, *a.decoded));
  }
  if (!a.view) {
    const ScopedSpan span(trace_, Span::WcetBind);
    a.view = wcet::bind_view(a.shape, *a.image, *a.decoded);
    a.view->pinned_image = a.image;
  }
  wcet::WcetReport report;
  {
    const ScopedSpan span(trace_, Span::WcetAnalyze);
    wcet::AnalyzerConfig acfg;
    acfg.cache = ccfg;
    acfg.ipet_cache = &a.ipet;
    report = wcet::analyze_wcet(*a.view, acfg);
  }

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = run.cycles;
  pt.wcet_cycles = report.wcet;
  pt.ratio = static_cast<double>(report.wcet) / static_cast<double>(run.cycles);
  pt.cache_hits = run.cache_hits;
  pt.cache_misses = run.cache_misses;
  const ScopedSpan span(trace_, Span::Energy);
  pt.energy_nj = estimate_energy(*a.image, run, /*cached=*/true);
  return pt;
}

spmwcet::wcet::IpetCacheStats Replica::ipet_stats() const {
  wcet::IpetCacheStats sum;
  for (const auto& [name, a] : artifacts_) {
    const wcet::IpetCacheStats s = a->ipet.stats();
    sum.builds += s.builds;
    sum.hits += s.hits;
    sum.fallbacks += s.fallbacks;
  }
  return sum;
}

} // namespace perfbench
