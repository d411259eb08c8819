// The 59-workload application catalog.
//
// The paper evaluates 59 workloads: 25 SPEC CPU 2006 applications (8 of
// them with multiple reference inputs, 50 workloads total) plus 9 serial
// PARSEC 3.0 applications. We cannot run those binaries here, so the
// catalog provides analytic stand-ins carrying the paper's workload names
// and calibrated to each application's published memory behaviour class:
//
//   streaming      lbm, libquantum, milc, leslie3d, bwaves, GemsFDTD,
//                  streamcluster           — bandwidth-hungry, flat MRC
//   cache-hungry   mcf, omnetpp, Xalan, soplex, canneal, zeusmp, sphinx
//                  astar(BigLakes)         — deep MRC knees, latency bound
//   cache-friendly gcc*, bzip2*, dedup, fluidanimate, astar(rivers), ferret
//                  — knees within a few ways
//   compute-bound  namd, povray, gromacs, calculix, tonto, sjeng, gobmk*,
//                  hmmer*, h264ref*, perlbench*, blackscholes, swaptions,
//                  bodytrack, freqmine     — tiny api, insensitive
//
// Multi-input applications get deterministic per-input parameter jitter, so
// gcc_base1..gcc_base9 are distinct workloads like the paper's inputs are.
// What matters for the figures is the catalog's *distributions* (see
// DESIGN.md §2): the Fig-2 knee distribution, the Fig-1 slowdown CDF and
// the ~60/40 CT-T/CT-F split all emerge from these classes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/core/app_profile.hpp"

namespace dicer::sim {

class AppCatalog {
 public:
  /// Builds the full 59-entry catalog. `seed` controls only the
  /// deterministic per-input jitter (default matches the shipped figures).
  explicit AppCatalog(std::uint64_t seed = 7);
  /// A catalog of exactly `profiles`, in order (e.g. a reduced subset of
  /// the default catalog); validated like add().
  explicit AppCatalog(std::vector<AppProfile> profiles);

  /// Append an extra workload (e.g. a trace-derived app profiled by the
  /// reuse profiler, see sim/core/trace_apps.hpp). Throws
  /// std::invalid_argument on a duplicate name or an empty profile.
  void add(AppProfile profile);

  std::size_t size() const noexcept { return profiles_.size(); }
  const std::vector<AppProfile>& profiles() const noexcept {
    return profiles_;
  }
  const AppProfile& at(std::size_t i) const { return profiles_.at(i); }

  /// Lookup by paper workload name ("milc1", "gcc_base3", ...).
  /// Throws std::out_of_range if absent.
  const AppProfile& by_name(const std::string& name) const;
  bool contains(const std::string& name) const noexcept;

  std::vector<std::string> names() const;

 private:
  std::vector<AppProfile> profiles_;
};

/// Shared default catalog instance (built once, immutable).
const AppCatalog& default_catalog();

}  // namespace dicer::sim
