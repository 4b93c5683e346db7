// The seed analyzer front end, kept as a test oracle: it decodes every
// function straight from the image bytes (wcet::reachable_functions +
// wcet::build_cfg), finds loops and resolves memory facts per image, with
// no shared decode and no ProgramShape. The result is an ordinary
// ProgramView, so the production back end (wcet::analyze_wcet(view, cfg))
// analyzes it exactly as it analyzes a bind_view result, and a parity test
// compares the two front ends through the same back end.
#pragma once

#include "link/image.h"
#include "wcet/annotations.h"
#include "wcet/frontend.h"

namespace spmwcet::reference {

/// Builds the seed front end's view of `img`. `overrides` replaces the
/// image-derived annotations; with `auto_loop_bounds`, detected counted-loop
/// bounds fill unannotated headers. The view's shape only owns the loops
/// (it holds no blocks and no module key), and its func_index is empty, so
/// analyze it with AnalyzerConfig::ipet_cache unset.
wcet::ProgramView seed_view(const link::Image& img,
                            bool auto_loop_bounds = false,
                            const wcet::Annotations* overrides = nullptr);

} // namespace spmwcet::reference
