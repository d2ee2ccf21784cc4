#include "fs/mds_group.hpp"

#include <stdexcept>
#include <utility>

namespace aio::fs {

MdsGroup::MdsGroup(sim::Engine& engine, Config config) {
  const std::size_t n = config.count != 0 ? config.count : 1;
  servers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    servers_.push_back(std::make_unique<MetadataServer>(engine, config.server,
                                                        static_cast<std::uint32_t>(i)));
}

MdsGroup::MdsGroup(sim::ShardGroup& shards, Config config) : shards_(&shards) {
  const std::size_t n = config.count != 0 ? config.count : 1;
  if (n != shards.n_mds())
    throw std::invalid_argument("MdsGroup: MDS count does not match the shard group");
  servers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    servers_.push_back(std::make_unique<MetadataServer>(shards.engine_of_mds(i), config.server,
                                                        static_cast<std::uint32_t>(i)));
}

std::uint32_t MdsGroup::index_of(std::string_view path) const {
  // FNV-1a, the journal digest's hash: cheap, stable, and spreads a
  // file-per-process naming scheme (common prefix + rank suffix) evenly.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % servers_.size());
}

void MdsGroup::submit_batch_from(std::uint32_t src_key, std::size_t mds, OpKind kind,
                                 std::size_t items, OnComplete on_complete) {
  MetadataServer& srv = server(mds);
  if (!shards_) {
    srv.submit_batch(kind, items, std::move(on_complete));
    return;
  }
  // Request hop: ride the channel plane to the server's home shard.  The
  // completion hop posts back to the *calling* shard under the server's own
  // entity key (the server is the entity acting at completion time).  Both
  // hops apply at window boundaries whether or not the shards coincide, so
  // the coupling quantizes identically at every shard and domain count.
  const std::size_t home = shards_->shard_of_domain(shards_->domain_of_mds(mds));
  const std::size_t back = sim::current_shard_index();
  const std::uint32_t mds_key = shards_->key_of_mds(mds);
  shards_->post_at_boundary(
      src_key, home,
      [sg = shards_, &srv, kind, items, back, mds_key,
       on_complete = std::move(on_complete)]() mutable {
        srv.submit_batch(kind, items,
                         [sg, back, mds_key, on_complete = std::move(on_complete)](sim::Time) mutable {
                           sg->post_at_boundary(mds_key, back,
                                                [on_complete = std::move(on_complete)]() mutable {
                                                  if (on_complete)
                                                    on_complete(sim::current_engine()->now());
                                                });
                         });
      });
}

std::size_t MdsGroup::backlog() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s->backlog();
  return total;
}

std::uint64_t MdsGroup::completed_ops() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->completed_ops();
  return total;
}

std::uint64_t MdsGroup::completed_items() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->completed_items();
  return total;
}

std::size_t MdsGroup::peak_backlog() const {
  std::size_t peak = 0;
  for (const auto& s : servers_)
    if (s->peak_backlog() > peak) peak = s->peak_backlog();
  return peak;
}

}  // namespace aio::fs
