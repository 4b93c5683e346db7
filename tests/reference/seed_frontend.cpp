#include "reference/seed_frontend.h"

#include <memory>

#include "wcet/cfg.h"
#include "wcet/loop_bounds.h"
#include "wcet/loops.h"
#include "wcet/value_analysis.h"

namespace spmwcet::reference {

wcet::ProgramView seed_view(const link::Image& img, bool auto_loop_bounds,
                            const wcet::Annotations* overrides) {
  wcet::ViewStructure s;
  s.root = img.entry;
  s.ann = overrides != nullptr ? *overrides
                               : wcet::Annotations::from_image(img);

  auto owner = std::make_shared<wcet::ProgramShape>();
  for (const uint32_t f : wcet::reachable_functions(img, img.entry))
    s.cfgs.emplace(f, wcet::build_cfg(img, f));
  owner->funcs.resize(s.cfgs.size());
  std::size_t i = 0;
  std::vector<wcet::MemFacts> facts;
  for (const auto& [f, fcfg] : s.cfgs) {
    owner->funcs[i].name = fcfg.name;
    owner->funcs[i].loops = wcet::find_loops(fcfg);
    s.loops.emplace(f, &owner->funcs[i].loops);
    wcet::resolve_memory(img, fcfg, s.ann, facts);
    ++i;
  }

  // Optional aiT-style automatic bounds for counted loops that carry no
  // annotation (stripped binaries).
  if (auto_loop_bounds) {
    for (const auto& [f, fcfg] : s.cfgs)
      for (const auto& [header, detected] :
           wcet::detect_loop_bounds(img, fcfg, *s.loops.at(f)))
        if (!s.ann.loop_bound(header).has_value())
          s.ann.set_loop_bound(header, detected.bound);
  }

  s.shape = std::move(owner);
  wcet::build_scaffold(s);
  return wcet::make_view(
      std::make_shared<const wcet::ViewStructure>(std::move(s)),
      std::move(facts), img.initial_sp);
}

} // namespace spmwcet::reference
