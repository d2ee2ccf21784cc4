#include "core/transports/sharded.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace aio::core {

namespace {

sim::ShardGroup::Config shard_config(const ShardedAdaptiveSim::Config& c) {
  if (c.n_ranks == 0) throw std::invalid_argument("ShardedAdaptiveSim: n_ranks must be > 0");
  sim::ShardGroup::Config sc;
  sc.n_shards = c.n_shards;
  sc.lookahead_s = c.net.latency_s;
  sc.window_batch = c.window_batch;
  sc.n_domains = c.n_domains;
  sc.n_ranks = c.n_ranks;
  sc.ranks_per_node = c.net.cores_per_node;
  sc.n_osts = c.fs.n_osts;
  sc.n_mds = c.fs.n_mds != 0 ? c.fs.n_mds : 1;
  return sc;
}

}  // namespace

ShardedAdaptiveSim::ShardedAdaptiveSim(Config config)
    : shards_(shard_config(config)),
      fs_(shards_, config.fs),
      net_(shards_, config.net, config.n_ranks),
      transport_(fs_, net_, config.adaptive) {
  if (config.collect_journal) {
    journals_.reserve(shards_.n_shards());
    for (std::size_t s = 0; s < shards_.n_shards(); ++s) {
      journals_.push_back(std::make_unique<obs::Journal>(obs::Journal::Config{}));
      shards_.engine(s).set_journal(journals_.back().get());
    }
  }
  if (config.profiler) shards_.set_profiler(config.profiler);
}

IoResult ShardedAdaptiveSim::run(const IoJob& job) {
  std::optional<IoResult> out;
  transport_.run(job, [&out](IoResult r) { out = std::move(r); });
  shards_.run();
  if (!out) throw std::runtime_error("ShardedAdaptiveSim: run did not complete");
  // Leave the host-runtime profile in the journal: one kProfShard record per
  // shard at the run's final simulated time, so the offline analyzer and the
  // journal->trace converter see the runtime cost next to the run it paid
  // for.  Only when a profiler is armed — default journals stay shard-count
  // invariant.
  if (obs::prof::ShardProfiler* prof = shards_.profiler(); prof && !journals_.empty()) {
    for (std::size_t s = 0; s < shards_.n_shards(); ++s) {
      const obs::prof::ShardProfiler::Slot& slot = prof->slot(s);
      obs::Record r;
      r.kind = obs::Rec::kProfShard;
      r.t = out->t_complete;
      r.id = static_cast<std::uint32_t>(s);
      r.v0 = slot.execute_s;
      r.v1 = slot.barrier_s;
      r.v2 = slot.merge_s;
      r.u0 = static_cast<std::uint32_t>(slot.events);
      r.u1 = static_cast<std::uint32_t>(slot.msgs_posted);
      r.u2 = static_cast<std::uint32_t>(slot.msgs_drained);
      r.a = static_cast<std::uint8_t>(shards_.n_shards());
      journals_[s]->append(r);
    }
  }
  return std::move(*out);
}

std::vector<obs::Record> ShardedAdaptiveSim::merged_records() const {
  std::vector<const obs::Journal*> parts;
  parts.reserve(journals_.size());
  for (const auto& j : journals_) parts.push_back(j.get());
  return obs::merge_records(parts);
}

}  // namespace aio::core
