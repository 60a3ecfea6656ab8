// High-level timing model (paper Section I: "efficient parallelization based
// on adequate high-level timing models").
//
// Converts profiled abstract operation counts into per-processor-class
// execution times and data-flow byte counts into communication times. This
// is the only place where ops/bytes meet seconds, so experiments can swap
// assumptions in one spot.
#pragma once

#include "hetpar/cost/profile.hpp"
#include "hetpar/platform/platform.hpp"

namespace hetpar::cost {

class TimingModel {
 public:
  explicit TimingModel(const platform::Platform& pf) : pf_(&pf) {}

  const platform::Platform& platform() const { return *pf_; }

  /// Seconds processor class `c` needs for `ops` abstract operations
  /// (same-ISA path: every kind weighs the same).
  double seconds(platform::ClassId c, double ops) const { return pf_->timeForOps(c, ops); }

  /// Seconds for a per-kind operation breakdown (cross-ISA path: the
  /// class's kindFactor weights apply).
  double seconds(platform::ClassId c, const OpMix& mix) const {
    return pf_->timeForKinds(c, mix.kind);
  }

  /// Seconds to communicate `bytes` across tasks (one cut data-flow edge).
  double commSeconds(long long bytes) const {
    return pf_->commTimeSeconds(static_cast<double>(bytes));
  }

  /// Task creation overhead in seconds (the TCO constant of Eq 8).
  double taskCreationSeconds() const { return pf_->taskCreationOverheadSeconds(); }

 private:
  const platform::Platform* pf_;
};

}  // namespace hetpar::cost
