#include "policy/host.hpp"

#include <algorithm>

#include "rdt/capability.hpp"

namespace dicer::policy {

Host::Host(const HostConfig& config, const sim::AppProfile& hp,
           const sim::AppProfile* be) {
  sim::MachineConfig machine_config = config.machine;
  if (!machine_config.tracer) machine_config.tracer = config.tracer;
  machine_ = std::make_unique<sim::Machine>(machine_config);
  const auto cap = rdt::Capability::probe(*machine_, config.enable_mba);
  cat_ = std::make_unique<rdt::CatController>(*machine_, cap);
  monitor_ = std::make_unique<rdt::Monitor>(*machine_, cap, config.tracer);
  if (config.enable_mba) {
    mba_ = std::make_unique<rdt::MbaController>(*machine_, cap);
  }
  ctx_.machine = machine_.get();
  ctx_.cat = cat_.get();
  ctx_.monitor = monitor_.get();
  ctx_.mba = mba_.get();
  ctx_.hp_core = 0;
  ctx_.tracer = config.tracer;
  for (unsigned c = 1; c < config.cores_used; ++c) ctx_.be_cores.push_back(c);
  machine_->attach(ctx_.hp_core, &hp);
  if (be) {
    for (unsigned c : ctx_.be_cores) machine_->attach(c, be);
  }
}

void Host::step(Policy& policy, std::uint64_t limit) {
  const std::uint64_t interval =
      machine_->config().quanta(policy.interval_sec());
  machine_->run_until(std::min(machine_->quantum() + interval, limit));
  policy.act(ctx_);
}

void Host::run_until(Policy& policy, std::uint64_t target) {
  while (machine_->quantum() < target) step(policy, target);
}

}  // namespace dicer::policy
