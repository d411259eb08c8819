// Policy factory for benches, examples and CLI front-ends.
#pragma once

#include <memory>
#include <string>

#include "policy/policy.hpp"

namespace dicer::policy {

/// Create a policy by name: "UM", "CT", "DICER", "DICER-noBW",
/// "DICER+MBA", or "Static(N)" for any valid N.
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<Policy> make_policy(const std::string& name);

}  // namespace dicer::policy
