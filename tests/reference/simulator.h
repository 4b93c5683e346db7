// The seed instruction-set simulator, kept as the test oracle of the
// production executor (sim/simulator.h). It decodes every fetched halfword
// from memory with the seed decoder (reference::decode), translates
// addresses by binary search over the merged region blocks, classifies
// every access through the region map, counts the name-keyed profile on
// every access, charges a cache::FunctionalCache or feeds a reuse recorder
// per fetch and load, and writes the execution trace. It shares no code
// with the block table but the NZCV flag helpers (and the production
// disassembler for trace text, which Trace.AdpcmTraceIsPinned pins by
// digest), so the parity suites hold production cycles, cache statistics,
// reuse tables, outputs, profiles, traces and trap messages against an
// independent executor.
#pragma once

#include <cstdint>

#include "link/image.h"
#include "sim/simulator.h"

namespace spmwcet::reference {

/// Runs `img` from its entry point until HALT, like sim::simulate. Reads
/// cfg.cache, cfg.reuse, cfg.max_instructions, cfg.collect_profile and
/// cfg.trace; the shared-artifact fields are ignored. A reuse recorder
/// (exclusive with a cache) receives every main-memory halfword fetch
/// (Builder::fetch) and load (Builder::load) one at a time, in program
/// order.
/// Traps throw SimulationError with the production messages.
sim::SimResult simulate(const link::Image& img, const sim::SimConfig& cfg = {});

/// Process-wide count of simulate() runs; a parity test reads it to show
/// the oracle side actually ran.
uint64_t simulator_runs();

} // namespace spmwcet::reference
