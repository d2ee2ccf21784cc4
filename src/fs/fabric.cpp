#include "fs/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/engine.hpp"

namespace aio::fs {

void FabricGovernor::attach(Ost& ost) {
  osts_.push_back(&ost);
  // A disabled governor never changes a factor: it counts nothing either.
  if (fabric_bw_ > 0.0) ost.set_activity_hook([this](bool active) { on_activity(active); });
}

void FabricGovernor::notify_activity_batched(bool became_active, sim::Engine& engine) {
  if (became_active) {
    ++active_;
  } else {
    assert(active_ > 0);
    --active_;
  }
  if (recompute_armed_) return;
  recompute_armed_ = true;
  // Same-instant events fire FIFO, so this runs after every transition the
  // boundary batch scheduled before it — one decision from the final count.
  engine.schedule_at(engine.now(), [this] {
    recompute_armed_ = false;
    apply();
  });
}

void FabricGovernor::on_activity(bool became_active) {
  if (became_active) {
    ++active_;
  } else {
    assert(active_ > 0);
    --active_;
  }
  apply();
}

void FabricGovernor::apply() {
  if (fabric_bw_ <= 0.0 || osts_.empty()) return;
  double factor = 1.0;
  if (active_ > 0) {
    // All OSTs share one config in practice; use the first as representative.
    const double per_ost = osts_.front()->config().ingest_bw;
    factor = std::min(1.0, fabric_bw_ / (static_cast<double>(active_) * per_ost));
  }
  if (std::abs(factor - applied_factor_) <= hysteresis_ * applied_factor_) return;
  applied_factor_ = factor;
  for (Ost* ost : osts_) ost->set_fabric_factor(factor);
}

}  // namespace aio::fs
