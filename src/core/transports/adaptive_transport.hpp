// Adaptive IO transport (the paper's contribution, Section III).
//
// One output file per sub-coordinator, each pinned to its own storage
// target.  Writers, sub-coordinators and the coordinator run as message-
// driven actors over the simulated interconnect; the protocol logic lives in
// the pure FSMs under core/protocol.  The transport measures exactly what
// the paper reports: write + flush + close, excluding (configurable) opens.
#pragma once

#include <functional>
#include <vector>

#include "core/transports/layout.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"

namespace aio::core {

class AdaptiveTransport final : public Transport {
 public:
  struct Config {
    std::size_t n_files = 0;       ///< output files == SC groups; 0 = one per OST
    /// Explicit target list (history-aware placement, see target_probe.hpp):
    /// when non-empty, file g lands on OST targets[g] and n_files is
    /// overridden by its length; otherwise file g lands on OST g % n.
    std::vector<std::size_t> targets;
    std::size_t max_concurrent = 1;  ///< writers in flight per file (paper: 1)
    bool stealing = true;            ///< coordinator work redistribution
    /// Steal-source selection (see CoordinatorFsm::StealSource).
    bool steal_most_remaining = false;
    /// How the per-SC file creates hit the metadata server before the timed
    /// write phase: skipped (paper's measurement protocol), all at once, or
    /// staggered (the paper's open-storm mitigation).
    enum class OpenMode { Skip, Storm, Staggered };
    OpenMode open_mode = OpenMode::Skip;
    double stagger_gap_s = 0.002;
    /// When false, the coordinator streams the global merge (running totals
    /// only) and IoResult::global_index stays null — peak index memory drops
    /// to O(largest sub-index).  Keep true when read-back is needed.
    bool retain_global_index = true;
  };

  AdaptiveTransport(fs::FileSystem& fs, net::Network& net, Config config)
      : fs_(fs), net_(net), config_(config) {}

  [[nodiscard]] std::string name() const override { return "Adaptive"; }
  void run(const IoJob& job, std::function<void(IoResult)> on_done) override;

 private:
  fs::FileSystem& fs_;
  net::Network& net_;
  Config config_;
};

}  // namespace aio::core
