// Evaluation metrics, straight from the paper.
//
//  - Slowdown: HP execution-time (equivalently, for a fixed instruction
//    stream, inverse-IPC) ratio vs. running alone (§2.3, Fig 1).
//  - Normalised IPC: IPC_colocated / IPC_alone (Fig 5).
//  - Effective Utilisation, Eq. 1:
//        EFU = IPCnorm-hmean = n / sum_i (IPC_alone_i / IPC_i)
//    the harmonic mean of normalised IPCs over all n co-located apps —
//    balances performance and fairness, 1.0 == no co-location impact.
//  - SLO conformance (§4.1): the HP meets an SLO of s if
//    IPC_HP >= s * IPC_alone_HP.
//  - SUCI, Eqs. 4-5: SLO-Effective-Utilisation Combined Index,
//        SUCI = c_SLO * EFU^lambda
//    with c_SLO in {0, 1}; lambda > 1 weights utilisation, < 1 weights SLO
//    conformance.
#pragma once

#include <span>
#include <vector>

namespace dicer::metrics {

/// HP slowdown: time ratio vs. solo execution, >= ~1 under contention.
/// For fixed work this equals IPC_alone / IPC_colocated.
double slowdown(double ipc_alone, double ipc_colocated);

/// One co-located application's IPC pair.
struct IpcPair {
  double alone = 0.0;      ///< IPC when running alone (full LLC)
  double colocated = 0.0;  ///< IPC in the consolidation
};

/// Effective Utilisation (Eq. 1) over all co-located applications
/// (HP first by convention, but EFU is symmetric). Returns 0 for empty
/// input or any non-positive IPC.
double effective_utilisation(std::span<const IpcPair> apps);

/// Whether the HP achieves `slo` (e.g. 0.9 for "SLO = 90%"), Eq. 5's c_SLO.
bool slo_achieved(double ipc_alone_hp, double ipc_hp, double slo);

/// SUCI (Eq. 4): c_SLO * EFU^lambda.
double suci(bool slo_met, double efu, double lambda);

/// Convenience: compute SUCI from raw inputs.
double suci(std::span<const IpcPair> apps, double slo, double lambda);

/// Fraction of workloads (given per-workload normalised HP IPC) that meet
/// an SLO — the quantity Fig 7 plots.
double slo_conformance(std::span<const double> normalised_hp_ipcs,
                       double slo);

}  // namespace dicer::metrics
