#include "metrics/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace dicer::metrics {

double slowdown(double ipc_alone, double ipc_colocated) {
  if (ipc_alone <= 0.0 || ipc_colocated <= 0.0) {
    throw std::invalid_argument("slowdown: IPCs must be > 0");
  }
  return ipc_alone / ipc_colocated;
}

double effective_utilisation(std::span<const IpcPair> apps) {
  if (apps.empty()) return 0.0;
  double denom = 0.0;
  for (const auto& a : apps) {
    if (a.alone <= 0.0 || a.colocated <= 0.0) return 0.0;
    denom += a.alone / a.colocated;
  }
  return static_cast<double>(apps.size()) / denom;
}

bool slo_achieved(double ipc_alone_hp, double ipc_hp, double slo) {
  if (ipc_alone_hp <= 0.0) {
    throw std::invalid_argument("slo_achieved: IPC_alone must be > 0");
  }
  if (slo < 0.0 || slo > 1.0) {
    throw std::invalid_argument("slo_achieved: SLO outside [0, 1]");
  }
  return ipc_hp >= slo * ipc_alone_hp;
}

double suci(bool slo_met, double efu, double lambda) {
  if (efu < 0.0) throw std::invalid_argument("suci: EFU must be >= 0");
  if (lambda <= 0.0) throw std::invalid_argument("suci: lambda must be > 0");
  if (!slo_met) return 0.0;
  return std::pow(efu, lambda);
}

double suci(std::span<const IpcPair> apps, double slo, double lambda) {
  if (apps.empty()) return 0.0;
  const bool met = slo_achieved(apps.front().alone, apps.front().colocated,
                                slo);
  return suci(met, effective_utilisation(apps), lambda);
}

double slo_conformance(std::span<const double> normalised_hp_ipcs,
                       double slo) {
  return util::fraction_at_least(normalised_hp_ipcs, slo);
}

}  // namespace dicer::metrics
