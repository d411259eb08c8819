#include "policy/factory.hpp"

#include <stdexcept>

#include "policy/baselines.hpp"
#include "policy/extensions.hpp"

namespace dicer::policy {

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "UM") return std::make_unique<Unmanaged>();
  if (name == "CT") return std::make_unique<CacheTakeover>();
  if (name == "DICER") return std::make_unique<Dicer>();
  if (name == "DICER-noBW") return std::make_unique<DicerNoBw>();
  if (name == "DICER+MBA") return std::make_unique<DicerMba>();
  if (name.rfind("Static(", 0) == 0 && name.back() == ')') {
    const std::string arg = name.substr(7, name.size() - 8);
    // Full-consumption parse: "Static(4x)" must not silently become
    // Static(4).
    std::size_t pos = 0;
    int ways = 0;
    try {
      ways = std::stoi(arg, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != arg.size() || arg.empty()) {
      throw std::invalid_argument("make_policy: bad Static way count '" +
                                  arg + "'");
    }
    if (ways < 1) {
      throw std::invalid_argument("make_policy: Static needs ways >= 1");
    }
    return std::make_unique<StaticPartition>(static_cast<unsigned>(ways));
  }
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

}  // namespace dicer::policy
