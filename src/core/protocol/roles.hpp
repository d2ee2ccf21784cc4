// The protocol host: every role of one adaptive output operation.
//
// Roles builds the writers (Algorithm 1, one WriterPool), one
// sub-coordinator per group (Algorithm 2) and the coordinator (Algorithm 3)
// from a Topology, and owns the one table that routes a delivered message to
// the role its destination rank hosts.  The simulator's adaptive transport,
// the thread runtime and the protocol test harness each drive one Roles, so
// a protocol change — and any fault injected at the FSM boundary — lives in
// one place; the drivers only move messages and execute the actions the
// roles return.
//
// Roles is not synchronized.  A driver that runs ranks on several threads
// must touch each role only from the thread of the rank hosting it (the
// writer on its rank, an SC on its group's first rank, the coordinator on
// Topology::coordinator_rank()).
#pragma once

#include <functional>
#include <vector>

#include "core/protocol/coordinator_fsm.hpp"
#include "core/protocol/subcoordinator_fsm.hpp"
#include "core/protocol/writer_pool.hpp"

namespace aio::core {

class Roles {
 public:
  /// Policy shared by every driver; the defaults are the paper's protocol.
  struct Config {
    std::size_t max_concurrent = 1;  ///< local writes in flight per SC
    bool stealing = true;            ///< coordinator work redistribution
    CoordinatorFsm::StealSource steal_source = CoordinatorFsm::StealSource::RoundRobin;
    /// false streams the global merge (CoordinatorFsm::Config).
    bool retain_global_index = true;
  };

  /// `bytes[r]` is writer r's payload (one entry per topology writer);
  /// `blueprint_for` is called once per rank, here, and never again.
  Roles(Topology topo, std::vector<double> bytes,
        const std::function<LocalIndex(Rank)>& blueprint_for, Config config);
  // The FSMs view bytes_ and the resolvers capture topo_: built in place.
  Roles(const Roles&) = delete;
  Roles& operator=(const Roles&) = delete;

  /// Kicks off group g's SC; the actions are the SC rank's to execute.
  Actions start(GroupId g) { return scs_[static_cast<std::size_t>(g)].start(); }

  /// Hands `msg` to the role rank `to` hosts.  Throws std::logic_error when
  /// `to` hosts no role of the kind the message is for (an SC-bound message
  /// to a rank that is not its group's SC, coordinator-bound traffic to a
  /// rank other than the coordinator's, DO_WRITE outside the writer range).
  Actions deliver(Rank to, const Message& msg);

  /// Completions of the three storage writes the roles ask for.
  Actions write_done(Rank writer) { return writers_.on_write_done(writer); }
  Actions index_write_done(Rank sc) { return sc_at(sc).on_index_write_done(); }
  Actions global_index_write_done() { return coord_.on_global_index_write_done(); }

  /// Writers + SCs + coordinator: the RoleDoneActions one run emits.
  [[nodiscard]] std::size_t n_roles() const {
    return topo_.n_writers() + topo_.n_groups() + 1;
  }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] CoordinatorFsm& coordinator() { return coord_; }
  [[nodiscard]] const CoordinatorFsm& coordinator() const { return coord_; }
  [[nodiscard]] SubCoordinatorFsm& sc(GroupId g) { return scs_[static_cast<std::size_t>(g)]; }

 private:
  /// The SC hosted on `rank`; throws if `rank` is not its group's SC.
  SubCoordinatorFsm& sc_at(Rank rank);
  /// The coordinator, if `rank` hosts it; throws otherwise.
  CoordinatorFsm& coordinator_at(Rank rank);

  Topology topo_;
  std::vector<double> bytes_;  ///< per-writer payloads; pool and SCs view it
  WriterPool writers_;
  std::vector<SubCoordinatorFsm> scs_;  ///< indexed by group
  CoordinatorFsm coord_;
};

}  // namespace aio::core
