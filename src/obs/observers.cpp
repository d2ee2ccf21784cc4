#include "obs/observers.hpp"

#include "obs/analysis.hpp"

namespace aio::obs {

Observers::Observers(int slot)
    : slot_(slot),
      journal_(Journal::from_env(slot)),
      live_(LivePlane::from_env(slot)),
      recorder_(journal_.get(), live_.get(), &metrics_) {}

void Observers::flush(bool aborted) {
  if (journal_) {
    (void)journal_->write();
    (void)flush_report(*journal_, slot_);
  }
  if (live_) {
    live_->flush();
    if (aborted && live_->flight_enabled()) (void)live_->dump_flight();
  }
}

ShardRecords::ShardRecords(std::size_t n_shards) {
  parts_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) parts_.push_back(std::make_unique<Part>());
}

std::vector<Record> ShardRecords::merged() const {
  std::vector<const Journal*> parts;
  parts.reserve(parts_.size());
  for (const auto& p : parts_) parts.push_back(&p->journal);
  return merge_records(parts);
}

}  // namespace aio::obs
