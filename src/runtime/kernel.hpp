// Kernel classes of the paper's two domain-specific arrays.
//
// A fabric advertises which kernels its silicon can host: the systolic ME
// array (Fig 2) runs motion estimation, the DA/CORDIC array (Fig 3) runs
// the DCT/quant and reconstruction kernels. Stage-typed jobs need the
// kernel of their context (stage_dag.hpp) and the scheduler only hands
// them to capable fabrics.
#pragma once

namespace dsra::runtime {

enum KernelCapability : unsigned {
  kCapMotionEstimation = 1u << 0,  ///< systolic ME array
  kCapDctTransform = 1u << 1,      ///< DA / CORDIC transform array
  kCapAllKernels = kCapMotionEstimation | kCapDctTransform,
};

/// The schedulable unit types. kWholeFrame is the legacy monolithic job
/// (ME runs inline on the transform fabric's worker, so it only needs the
/// DCT kernel); the three pipeline stages map onto their own kernels.
enum class StageKind {
  kWholeFrame,
  kMotionEstimation,
  kTransformQuant,
  kReconstructEntropy,
};

[[nodiscard]] constexpr const char* to_string(StageKind stage) {
  switch (stage) {
    case StageKind::kWholeFrame: return "frame";
    case StageKind::kMotionEstimation: return "me";
    case StageKind::kTransformQuant: return "dct+quant";
    case StageKind::kReconstructEntropy: return "reconstruct";
  }
  return "?";
}

/// Library name of the systolic ME array's configuration context.
inline constexpr const char* kMeContextName = "me_systolic";

}  // namespace dsra::runtime
