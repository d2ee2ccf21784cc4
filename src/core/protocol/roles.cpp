#include "core/protocol/roles.hpp"

#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace aio::core {

namespace {

WriterPool::Layout writer_layout(const Topology& topo, std::span<const double> bytes) {
  if (bytes.size() != topo.n_writers())
    throw std::invalid_argument("Roles: one payload per writer required");
  WriterPool::Layout layout;
  layout.first_rank = 0;
  layout.group_of = [topo](Rank r) { return topo.group_of(r); };
  layout.sc_of = [topo](GroupId g) { return topo.sc_rank(g); };
  layout.bytes = bytes;
  return layout;
}

CoordinatorFsm::Config coordinator_config(const Topology& topo, const Roles::Config& config) {
  CoordinatorFsm::Config cc;
  cc.n_groups = topo.n_groups();
  cc.group_size_of = [topo](GroupId g) { return topo.group_size(g); };
  cc.sc_of = [topo](GroupId g) { return topo.sc_rank(g); };
  cc.rank = Topology::coordinator_rank();
  cc.stealing_enabled = config.stealing;
  cc.steal_source = config.steal_source;
  cc.retain_global_index = config.retain_global_index;
  return cc;
}

[[noreturn]] void misroute(Rank to, const char* role) {
  throw std::logic_error("Roles: rank " + std::to_string(to) + " hosts no " + role);
}

}  // namespace

Roles::Roles(Topology topo, std::vector<double> bytes,
             const std::function<LocalIndex(Rank)>& blueprint_for, Config config)
    : topo_(topo),
      bytes_(std::move(bytes)),
      writers_(writer_layout(topo_, bytes_), blueprint_for),
      coord_(coordinator_config(topo_, config)) {
  const std::span<const double> all_bytes{bytes_};
  scs_.reserve(topo_.n_groups());
  for (GroupId g = 0; g < static_cast<GroupId>(topo_.n_groups()); ++g) {
    SubCoordinatorFsm::Config sc;
    sc.group = g;
    sc.rank = topo_.sc_rank(g);
    sc.coordinator = Topology::coordinator_rank();
    sc.first_member = sc.rank;
    sc.n_members = topo_.group_size(g);
    sc.member_bytes = all_bytes.subspan(static_cast<std::size_t>(sc.first_member), sc.n_members);
    sc.max_concurrent = config.max_concurrent;
    scs_.emplace_back(std::move(sc));
  }
}

SubCoordinatorFsm& Roles::sc_at(Rank rank) {
  const GroupId g = topo_.group_of(rank);  // std::out_of_range off the writer range
  if (topo_.sc_rank(g) != rank) misroute(rank, "SC");
  return scs_[static_cast<std::size_t>(g)];
}

CoordinatorFsm& Roles::coordinator_at(Rank rank) {
  if (rank != Topology::coordinator_rank()) misroute(rank, "coordinator");
  return coord_;
}

Actions Roles::deliver(Rank to, const Message& msg) {
  // The one routing table: DO_WRITE goes to the writer, file traffic to the
  // SC, WRITERS_BUSY / SUB_INDEX and the SCs' own completions to C.
  struct Visitor {
    Roles& roles;
    Rank to;
    Actions operator()(const DoWrite& m) {
      if (to < 0 || static_cast<std::size_t>(to) >= roles.topo_.n_writers())
        misroute(to, "writer");
      return roles.writers_.on_do_write(to, m);
    }
    Actions operator()(const WriteComplete& m) {
      if (m.kind == WriteComplete::Kind::WriterDone) return roles.sc_at(to).on_write_complete(m);
      return roles.coordinator_at(to).on_write_complete(m);
    }
    Actions operator()(const IndexBody& m) { return roles.sc_at(to).on_index_body(m); }
    Actions operator()(const AdaptiveWriteStart& m) {
      return roles.sc_at(to).on_adaptive_write_start(m);
    }
    Actions operator()(const WritersBusy& m) {
      return roles.coordinator_at(to).on_writers_busy(m);
    }
    Actions operator()(const OverallWriteComplete& m) {
      return roles.sc_at(to).on_overall_write_complete(m);
    }
    Actions operator()(const SubIndex& m) { return roles.coordinator_at(to).on_sub_index(m); }
  };
  return std::visit(Visitor{*this, to}, msg.body);
}

}  // namespace aio::core
