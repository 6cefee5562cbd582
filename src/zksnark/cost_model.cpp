#include "zksnark/cost_model.h"

#include "zksnark/rln_circuit.h"

namespace wakurln::zksnark {

const DeviceProfile& DeviceProfile::iphone8() {
  static const DeviceProfile p{"iphone8", 1.0, 2.0e6};
  return p;
}

const DeviceProfile& DeviceProfile::laptop() {
  static const DeviceProfile p{"laptop", 0.35, 1.2e7};
  return p;
}

const DeviceProfile& DeviceProfile::server() {
  static const DeviceProfile p{"server", 0.15, 4.0e7};
  return p;
}

const DeviceProfile& DeviceProfile::gpu_rig() {
  // An attacker's GPU rig grinds byte hashes vastly faster than phones —
  // the asymmetry that breaks PoW-based spam pricing (§I).
  static const DeviceProfile p{"gpu_rig", 0.10, 5.0e9};
  return p;
}

const std::vector<DeviceProfile>& DeviceProfile::all() {
  static const std::vector<DeviceProfile> v{iphone8(), laptop(), server(), gpu_rig()};
  return v;
}

double CostModel::prove_ms(std::size_t tree_depth, const DeviceProfile& device) {
  const double anchor_ms = 500.0;  // iPhone 8, depth 32 (paper §IV)
  const double ratio = static_cast<double>(RlnCircuit::constraint_count(tree_depth)) /
                       static_cast<double>(RlnCircuit::constraint_count(32));
  return anchor_ms * ratio * device.snark_scale;
}

double CostModel::verify_ms(const DeviceProfile& device) {
  return 30.0 * device.snark_scale;
}

}  // namespace wakurln::zksnark
