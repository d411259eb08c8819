#include "policy/baselines.hpp"

#include "util/trace.hpp"

namespace dicer::policy {

namespace {

/// Static policies have one decision — their initial allocation; record
/// it so a mixed-policy trace (e.g. a sweep) shows what each run applied.
void trace_setup(PolicyContext& ctx, const std::string& policy,
                 unsigned hp_ways, unsigned total_ways) {
  auto& tr = trace::resolve(ctx.tracer);
  tr.emit(trace::Kind::kSetup, ctx.machine->time_sec(), [&] {
    return std::vector<trace::Field>{{"policy", policy},
                                     {"hp_ways", hp_ways},
                                     {"total_ways", total_ways}};
  });
}

}  // namespace

void Unmanaged::setup(PolicyContext& ctx) {
  associate_and_track(ctx);
  const auto full = sim::WayMask::full(ctx.cat->num_ways());
  ctx.cat->set_clos_mask(kHpClos, full);
  ctx.cat->set_clos_mask(kBeClos, full);
  // UM shares every way; report the full cache as HP-visible.
  trace_setup(ctx, name(), ctx.cat->num_ways(), ctx.cat->num_ways());
}

void Unmanaged::act(PolicyContext& ctx) {
  // Contention-unaware: never reacts; keep monitor baselines fresh so
  // post-run statistics stay windowed sensibly.
  ctx.monitor->poll_all();
}

void CacheTakeover::setup(PolicyContext& ctx) {
  associate_and_track(ctx);
  apply_split(ctx, ctx.cat->num_ways() - 1);
  trace_setup(ctx, name(), ctx.cat->num_ways() - 1, ctx.cat->num_ways());
}

void CacheTakeover::act(PolicyContext& ctx) { ctx.monitor->poll_all(); }

void StaticPartition::setup(PolicyContext& ctx) {
  associate_and_track(ctx);
  apply_split(ctx, hp_ways_);
  trace_setup(ctx, name(), hp_ways_, ctx.cat->num_ways());
}

void StaticPartition::act(PolicyContext& ctx) { ctx.monitor->poll_all(); }

}  // namespace dicer::policy
