#pragma once
// Cost model reproducing the paper's §IV timing/size claims on modelled
// device classes. The mock backend's measured times reflect the *shape* of
// the real system (prove grows with tree depth, verify is flat); this model
// supplies the *absolute* numbers the paper reports so benches can print
// paper-anchored values next to measured ones, clearly labelled.
//
// Anchors (paper §IV): proof generation ≈0.5 s for a group of size 2^32 on
// an iPhone 8; proof verification ≈30 ms, constant; 32 B keys; ≈3.89 MB
// prover key.

#include <cstddef>
#include <string>
#include <vector>

namespace wakurln::zksnark {

/// Relative compute capability of a device class (iPhone 8 == 1.0).
struct DeviceProfile {
  std::string name;
  /// Multiplier on SNARK prove/verify latency (lower = faster device).
  double snark_scale = 1.0;
  /// SHA-256 hash throughput, used by the PoW baseline comparison.
  double hashes_per_second = 0;

  static const DeviceProfile& iphone8();
  static const DeviceProfile& laptop();
  static const DeviceProfile& server();
  static const DeviceProfile& gpu_rig();
  static const std::vector<DeviceProfile>& all();
};

/// Modelled Groth16 latencies for the RLN circuit.
class CostModel {
 public:
  /// Proving latency in ms for a depth-`tree_depth` circuit on `device`.
  /// Linear in the constraint count, anchored at 500 ms for depth 32 on
  /// the iPhone 8.
  static double prove_ms(std::size_t tree_depth, const DeviceProfile& device);

  /// Verification latency in ms: constant 30 ms (× device scale),
  /// independent of depth and group size.
  static double verify_ms(const DeviceProfile& device);
};

}  // namespace wakurln::zksnark
