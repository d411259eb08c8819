#include "policy/host.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>

#include "rdt/capability.hpp"

namespace dicer::policy {

struct Host::Parts {
  Parts(const sim::MachineConfig& config, bool enable_mba,
        trace::Tracer* tracer)
      : machine(config),
        cat(machine, rdt::Capability::probe(machine, enable_mba)),
        monitor(machine, rdt::Capability::probe(machine, enable_mba),
                tracer) {
    if (enable_mba) {
      mba.emplace(machine, rdt::Capability::probe(machine, enable_mba));
    }
  }

  sim::Machine machine;
  rdt::CatController cat;
  rdt::Monitor monitor;
  std::optional<rdt::MbaController> mba;
};

Host::Host(const HostConfig& config, const sim::AppProfile& hp,
           const sim::AppProfile* be) {
  sim::MachineConfig machine_config = config.machine;
  if (!machine_config.tracer) machine_config.tracer = config.tracer;
  parts_ = std::make_unique<Parts>(machine_config, config.enable_mba,
                                   config.tracer);
  ctx_.machine = &parts_->machine;
  ctx_.cat = &parts_->cat;
  ctx_.monitor = &parts_->monitor;
  ctx_.mba = parts_->mba ? &*parts_->mba : nullptr;
  ctx_.hp_core = 0;
  ctx_.tracer = config.tracer;
  // Cores 1..cores_used-1, viewed in a table of every core id.
  static constexpr auto kCoreIds = [] {
    std::array<unsigned, sim::kMaxCores> ids{};
    for (unsigned c = 0; c < sim::kMaxCores; ++c) ids[c] = c;
    return ids;
  }();
  if (config.cores_used > ctx_.machine->num_cores()) {
    throw std::out_of_range("Host: cores_used past the machine's cores");
  }
  ctx_.be_cores = std::span(kCoreIds).subspan(
      1, config.cores_used > 1 ? config.cores_used - 1 : 0);
  ctx_.machine->attach(ctx_.hp_core, &hp);
  if (be) {
    for (unsigned c : ctx_.be_cores) ctx_.machine->attach(c, be);
  }
}

Host::~Host() = default;
Host::Host(Host&&) noexcept = default;
Host& Host::operator=(Host&&) noexcept = default;

void Host::step(Policy& policy, std::uint64_t limit) {
  sim::Machine& m = *ctx_.machine;
  const std::uint64_t interval = m.config().quanta(policy.interval_sec());
  m.run_until(std::min(m.quantum() + interval, limit));
  policy.act(ctx_);
}

void Host::run_until(Policy& policy, std::uint64_t target) {
  while (ctx_.machine->quantum() < target) step(policy, target);
}

}  // namespace dicer::policy
