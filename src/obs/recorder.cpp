#include "obs/recorder.hpp"

namespace aio::obs {

namespace {

/// `v[i]`, growing `v` on first sight of index `i`.
template <typename T>
T& slot(std::vector<T>& v, std::uint32_t i) {
  if (i >= v.size()) v.resize(static_cast<std::size_t>(i) + 1, T{});
  return v[i];
}

}  // namespace

Recorder::Recorder(Journal* journal, LivePlane* live, Registry* metrics)
    : journal_(journal), live_(live), metrics_(metrics) {
  if (!metrics_) return;
  mds_ops_ = &metrics_->counter("mds.ops");
  cache_full_crossings_ = &metrics_->counter("storage.cache_full_crossings");
  steal_grants_ = &metrics_->counter("protocol.steal_grants");
  steals_ = &metrics_->counter("protocol.steals");
  runs_ = &metrics_->counter("protocol.runs");
  last_steals_ = &metrics_->gauge("protocol.last_steals");
  last_grants_ = &metrics_->gauge("protocol.last_grants");
  run_s_ = &metrics_->histogram("protocol.run_s");
  writer_s_ = &metrics_->histogram("protocol.writer_s");
}

void Recorder::derive(const Record& r) {
  switch (r.kind) {
    case Rec::kMdsOp:
      mds_ops_->add();
      break;
    case Rec::kOstState: {
      std::uint8_t& full = slot(cache_full_, r.id);
      if (r.a != 0 && full == 0) cache_full_crossings_->add();
      full = r.a;
      break;
    }
    case Rec::kStealGrant:
      steal_grants_->add();
      break;
    case Rec::kStealComplete:
      steals_->add();
      break;
    case Rec::kWriterStart:
      slot(writer_start_, r.id) = r.t;
      break;
    case Rec::kWriterEnd:
      writer_s_->add(r.t - slot(writer_start_, r.id));
      break;
    case Rec::kRunBegin:
      slot(run_begin_, r.id) = r.t;
      break;
    case Rec::kRunMark:
      if (static_cast<Mark>(r.a) != Mark::kComplete) break;
      runs_->add();
      last_steals_->set(r.v0);
      last_grants_->set(r.v1);
      run_s_->add(r.t - slot(run_begin_, r.id));
      break;
    default:
      break;
  }
}

}  // namespace aio::obs
