// DasLib: DSP-layer performance statistics.
//
// The FFT plan cache, Butterworth design cache, and resample filter
// cache sit on the hottest per-channel paths. They charge the dsp.*
// registry counters (common/counters.hpp) through references resolved
// once, so a lookup costs one relaxed atomic add and every live
// snapshot of the process already carries the totals.
#pragma once

#include <cstdint>

namespace dassa::dsp {

/// The DSP caches' behaviour since process start (or the last
/// global_counters().reset()).
struct DspStats {
  std::uint64_t fft_plan_hits = 0;    ///< plan-cache lookups that hit
  std::uint64_t fft_plan_misses = 0;  ///< lookups that built a new plan
  /// Heap bytes allocated by the FFT layer: plan tables plus per-thread
  /// workspace growth. Steady-state transforms of an already-seen size
  /// do not move this counter -- tests assert exactly that.
  std::uint64_t fft_bytes_allocated = 0;
  std::uint64_t butter_design_hits = 0;
  std::uint64_t butter_design_misses = 0;
  std::uint64_t resample_design_hits = 0;
  std::uint64_t resample_design_misses = 0;
};

/// Read of the dsp.* counters (each cell read relaxed).
[[nodiscard]] DspStats dsp_stats();

}  // namespace dassa::dsp
