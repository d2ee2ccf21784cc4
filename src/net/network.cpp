#include "net/network.hpp"

#include <stdexcept>
#include <utility>

namespace aio::net {

Network::Network(sim::Engine& engine, NetConfig config, std::size_t n_ranks)
    : Network(engine, nullptr, config, n_ranks) {}

Network::Network(sim::ShardGroup& shards, NetConfig config, std::size_t n_ranks)
    : Network(shards.engine(0), &shards, config, n_ranks) {}

Network::Network(sim::Engine& engine, sim::ShardGroup* shards, NetConfig config,
                 std::size_t n_ranks)
    : engine_(engine),
      config_(config),
      n_ranks_(n_ranks),
      shards_(shards),
      counters_(shards ? shards->n_shards() : 1) {
  if (n_ranks == 0) throw std::invalid_argument("Network: need at least one rank");
  if (config_.cores_per_node == 0) throw std::invalid_argument("Network: cores_per_node == 0");
  if (shards && n_ranks != shards->n_ranks())
    throw std::invalid_argument("Network: rank count does not match the shard group");
  const std::size_t nodes = (n_ranks + config_.cores_per_node - 1) / config_.cores_per_node;
  nics_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    sim::Engine& home =
        shards ? shards->engine(shards->shard_of_rank(i * config_.cores_per_node)) : engine;
    nics_.push_back(std::make_unique<sim::FluidResource>(
        home, sim::FluidResource::Config{config_.nic_bw, 0.0, 0.0}));
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const Counters& c : counters_) n += c.messages;
  return n;
}

double Network::bytes_sent() const {
  double n = 0.0;
  for (const Counters& c : counters_) n += c.bytes;
  return n;
}

void Network::send(Rank from, Rank to, double bytes, Deliver deliver) {
  if (from < 0 || static_cast<std::size_t>(from) >= n_ranks_ || to < 0 ||
      static_cast<std::size_t>(to) >= n_ranks_) {
    throw std::invalid_argument("Network::send: rank out of range");
  }
  Counters& ctr = counters_[shards_ ? sim::current_shard_index() : 0];
  ++ctr.messages;
  ctr.bytes += bytes;
  const double latency = config_.latency_s;
  if (!shards_) {
    if (from == to || bytes <= 0.0) {
      engine_.schedule_after(latency, std::move(deliver));
      return;
    }
    auto relay = [this, latency, deliver = std::move(deliver)](sim::Time) mutable {
      engine_.schedule_after(latency, std::move(deliver));
    };
    // The relay (this + latency + a 96-byte-SBO Deliver) must fit the fluid
    // callback's SBO, or every cross-node message would heap-allocate.
    static_assert(sizeof(relay) <= 128, "NIC relay closure outgrew FluidResource::OnComplete SBO");
    nics_[node_of(from)]->start(bytes, std::move(relay));
    return;
  }

  // Sharded routing.  The sender's NIC and the send event both live on the
  // sender's shard.  Deliveries quantize by physical topology, never by
  // placement: a message that stays on one node is scheduled directly
  // (node-aligned rank cuts guarantee same node ⇒ same engine), while every
  // node-crossing delivery goes through the channel plane and lands on a
  // window boundary — even when both nodes share a shard.  Keying the rule
  // to nodes (not shards) is what makes the simulated timestamps invariant
  // under the shard count.
  sim::ShardGroup& sg = *shards_;
  const bool same_node = node_of(from) == node_of(to);
  sim::Engine& src_eng = sg.engine(sg.shard_of_rank(static_cast<std::size_t>(from)));
  if (from == to || bytes <= 0.0) {
    if (same_node) {
      src_eng.schedule_after(latency, std::move(deliver));
    } else {
      const std::uint32_t src_key = sg.key_of_rank(static_cast<std::size_t>(from));
      sg.post(src_key, sg.shard_of_rank(static_cast<std::size_t>(to)), src_eng.now() + latency,
              std::move(deliver));
    }
    return;
  }
  if (same_node) {
    auto relay = [this, deliver = std::move(deliver)](sim::Time) mutable {
      sim::current_engine()->schedule_after(config_.latency_s, std::move(deliver));
    };
    static_assert(sizeof(relay) <= 128, "sharded NIC relay outgrew FluidResource::OnComplete SBO");
    nics_[node_of(from)]->start(bytes, std::move(relay));
    return;
  }
  // The relay always fires on the sender's shard (the NIC lives there); the
  // source key and destination shard are fixed at send time, so the closure
  // stays at exactly the classic relay's footprint.
  const std::uint32_t src_key = sg.key_of_rank(static_cast<std::size_t>(from));
  const auto dst_shard =
      static_cast<std::uint32_t>(sg.shard_of_rank(static_cast<std::size_t>(to)));
  auto relay = [this, src_key, dst_shard, deliver = std::move(deliver)](sim::Time now) mutable {
    shards_->post(src_key, dst_shard, now + config_.latency_s, std::move(deliver));
  };
  static_assert(sizeof(relay) <= 128, "sharded NIC relay outgrew FluidResource::OnComplete SBO");
  nics_[node_of(from)]->start(bytes, std::move(relay));
}

}  // namespace aio::net
