// Per-strike registry tallies shared by every Monte-Carlo campaign loop
// (the static injector campaign, the live-array recovery campaign and
// core's temporal campaign).
//
// The sharded runner constructs one per chunk on the worker thread, where
// registry() is redirected to the shard's delta registry; the coordinator
// merges the deltas in shard order after the join. Progress reporting and
// trace lanes belong to the coordinator, never to a worker. All members
// resolve to no-ops when observability is disabled, and nothing here
// touches the RNG — attaching an observer can never change campaign
// results.
#pragma once

#include "ftspm/fault/injector.h"
#include "ftspm/obs/metrics.h"

namespace ftspm {

class CampaignObserver {
 public:
  CampaignObserver() {
    if (obs::enabled()) {
      obs::Registry& reg = obs::registry();
      strikes_ = &reg.counter("campaign.strikes");
      vulnerable_ = &reg.counter("campaign.vulnerable");
    }
  }

  /// True when on_strike would do anything at all. The batched campaign
  /// loops check this once per block and skip the per-strike observer
  /// sweep entirely for inert observers — on_strike would no-op per
  /// strike anyway, so skipping it is invisible.
  bool active() const noexcept { return strikes_ != nullptr; }

  /// Call after classifying each strike.
  void on_strike(StrikeOutcome outcome) {
    if (strikes_ == nullptr) return;
    strikes_->add(1);
    if (outcome == StrikeOutcome::Due || outcome == StrikeOutcome::Sdc)
      vulnerable_->add(1);
  }

 private:
  obs::Counter* strikes_ = nullptr;
  obs::Counter* vulnerable_ = nullptr;
};

}  // namespace ftspm
