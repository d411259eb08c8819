// Golden pin for `mrc` placement decisions on a fleet large enough that
// the indexed engine's caching and tie-breaking matter: every record of
// the placement log of a seeded 1,500-machine fleet — arrivals,
// SLO-triggered migrations and rejections — is folded into one FNV-1a
// hash. The value was harvested from the linear-scan `mrc` engine, so it
// guards that any faster resolution of the same argmax returns the same
// decision, bit for bit. Re-harvest only for an intentional change to the
// placement model or the churn, and say so in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleet/cluster.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::fleet {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    // Little-endian byte order, independent of the host's.
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

TEST(PlacementGolden, MrcDecisionsOn1500MachinesMatchTheLinearScan) {
  FleetConfig fc;
  fc.num_machines = 1500;
  fc.cores_used = 3;  // two BE slots: the fleet fills, arrivals get rejected
  fc.placement = "mrc";
  fc.slo_norm = 0.97;
  fc.migrate_after = 1;
  fc.churn.arrival_rate_per_sec = 900.0;
  fc.churn.mean_lifetime_sec = 20.0;
  fc.churn.seed = 5;
  fc.seed = 4;
  fc.jobs = 0;
  Cluster cluster(fc, sim::default_catalog());
  cluster.run(6);

  Fnv1a hash;
  std::uint64_t migrations = 0, rejections = 0;
  for (const auto& rec : cluster.placement_log()) {
    hash.u64(rec.tenant_id);
    hash.str(rec.app);
    hash.u64(rec.machine);
    hash.u64(rec.core);
    hash.u64(rec.migration ? 1 : 0);
    hash.u64(rec.accepted ? 1 : 0);
    migrations += rec.migration ? 1 : 0;
    rejections += rec.accepted ? 0 : 1;
  }
  // The settings exercise every kind of decision.
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(rejections, 0u);
  EXPECT_EQ(cluster.placement_log().size(), 7054u);
  EXPECT_EQ(hash.h, 0xe57db112b6139548ull);
}

}  // namespace
}  // namespace dicer::fleet
