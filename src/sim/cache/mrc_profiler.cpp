#include "sim/cache/mrc_profiler.hpp"

#include <cstdint>

#include "sim/cache/reuse_profiler.hpp"
#include "util/timer.hpp"

namespace dicer::sim {

EmpiricalMrc profile_mrc(const MrcProfilerConfig& config,
                         AddressStream& stream) {
  trace::ScopedTimer timer("mrc.profile");
  ReuseProfiler profiler(config.geometry, config.sample_rate);
  for (std::uint64_t i = 0; i < config.warmup_accesses; ++i) {
    profiler.access(stream.next());
  }
  profiler.begin_measurement();
  for (std::uint64_t i = 0; i < config.measure_accesses; ++i) {
    profiler.access(stream.next());
  }
  const ReuseProfilerStats st = profiler.stats();
  auto& reg = trace::TimerRegistry::global();
  reg.add_count("profiler.runs", 1);
  reg.add_count("profiler.accesses", st.accesses);
  reg.add_count("profiler.sampled_accesses", st.sampled);
  reg.add_count("profiler.distinct_blocks", st.distinct_blocks);
  reg.add_count("profiler.sets", st.sets);
  reg.add_count("profiler.sampled_sets", st.sampled_sets);
  // Parts-per-million, summed over runs; divide by profiler.runs for the
  // mean rate.
  reg.add_count("profiler.sample_rate_ppm",
                static_cast<std::uint64_t>(st.sample_rate * 1e6 + 0.5));
  return profiler.mrc();
}

}  // namespace dicer::sim
