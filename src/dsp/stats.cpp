#include "dassa/dsp/stats.hpp"

#include "dassa/common/counters.hpp"

namespace dassa::dsp {

DspStats dsp_stats() {
  const CounterRegistry& c = global_counters();
  return DspStats{c.get(counters::kDspFftPlanHits),
                  c.get(counters::kDspFftPlanMisses),
                  c.get(counters::kDspFftBytesAllocated),
                  c.get(counters::kDspButterDesignHits),
                  c.get(counters::kDspButterDesignMisses),
                  c.get(counters::kDspResampleDesignHits),
                  c.get(counters::kDspResampleDesignMisses)};
}

}  // namespace dassa::dsp
