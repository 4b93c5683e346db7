#include "reference/seed_frontend.h"

#include <memory>

#include "wcet/cfg.h"
#include "wcet/loop_bounds.h"
#include "wcet/loops.h"
#include "wcet/value_analysis.h"

namespace spmwcet::reference {

wcet::ProgramView seed_view(const link::Image& img, bool auto_loop_bounds,
                            const wcet::Annotations* overrides) {
  wcet::ProgramView view;
  view.img = &img;
  view.root = img.entry;
  view.ann = overrides != nullptr ? *overrides
                                  : wcet::Annotations::from_image(img);

  auto owner = std::make_shared<wcet::ProgramShape>();
  for (const uint32_t f : wcet::reachable_functions(img, img.entry))
    view.cfgs.emplace(f, wcet::build_cfg(img, f));
  owner->funcs.resize(view.cfgs.size());
  std::size_t i = 0;
  for (auto& [f, fcfg] : view.cfgs) {
    owner->funcs[i].name = fcfg.name;
    owner->funcs[i].loops = wcet::find_loops(fcfg);
    view.loops.emplace(f, &owner->funcs[i].loops);
    wcet::resolve_memory(img, fcfg, view.ann);
    ++i;
  }

  // Optional aiT-style automatic bounds for counted loops that carry no
  // annotation (stripped binaries).
  if (auto_loop_bounds) {
    for (const auto& [f, fcfg] : view.cfgs)
      for (const auto& [header, detected] :
           wcet::detect_loop_bounds(img, fcfg, *view.loops.at(f)))
        if (!view.ann.loop_bound(header).has_value())
          view.ann.set_loop_bound(header, detected.bound);
  }

  view.shape = std::move(owner);
  return view;
}

} // namespace spmwcet::reference
