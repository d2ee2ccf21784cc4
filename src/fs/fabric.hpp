// Storage-fabric governor.
//
// Large parallel file systems never deliver n_osts * per-OST bandwidth: the
// network between compute nodes and storage servers caps the aggregate (the
// paper quotes ~60 GB/s practical vs. 672 * 180 MB/s raw on Jaguar).  The
// governor watches which OSTs are actively ingesting and scales every active
// OST's network factor so the sum cannot exceed the fabric capacity:
//
//     factor = min(1, fabric_bw / (n_active * ost_ingest_bw))
//
// Updates are applied only when the factor moves by more than a small
// hysteresis band, so OST activity flapping does not cause event storms.
#pragma once

#include <cstddef>
#include <vector>

#include "fs/ost.hpp"

namespace aio::sim {
class Engine;
}

namespace aio::fs {

class FabricGovernor {
 public:
  /// `fabric_bw` <= 0 disables the governor (infinite fabric).
  FabricGovernor(double fabric_bw, double hysteresis = 0.02)
      : fabric_bw_(fabric_bw), hysteresis_(hysteresis) {}

  /// Registers an OST and, unless the governor is disabled, installs its
  /// activity hook.  The governor must outlive the OSTs it manages.
  void attach(Ost& ost);

  /// Registers an OST without installing a hook.  Sharded runs keep one
  /// governor replica per shard: every replica is fed the globally merged
  /// activity stream through `notify_activity_batched`, so all replicas run
  /// the same hysteresis state machine and each applies factors only to its
  /// own shard's OSTs.
  void adopt(Ost& ost) { osts_.push_back(&ost); }

  /// Batched replica feed for sharded runs: applies the count change
  /// immediately but defers the factor recompute to a single event at the
  /// current instant (scheduled once per batch).  Transitions merged at one
  /// window boundary therefore produce exactly one hysteresis decision from
  /// the *final* active count — the outcome is independent of the order the
  /// batch drains in, which is what keeps the factor sequence invariant
  /// under the shard count.
  void notify_activity_batched(bool became_active, sim::Engine& engine);

  [[nodiscard]] std::size_t active_count() const { return active_; }
  [[nodiscard]] double current_factor() const { return applied_factor_; }
  [[nodiscard]] double fabric_bw() const { return fabric_bw_; }

 private:
  void on_activity(bool became_active);
  void apply();

  double fabric_bw_;
  double hysteresis_;
  std::vector<Ost*> osts_;
  std::size_t active_ = 0;
  double applied_factor_ = 1.0;
  bool recompute_armed_ = false;  // a batched recompute event is scheduled
};

}  // namespace aio::fs
