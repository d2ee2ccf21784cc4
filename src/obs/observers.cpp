#include "obs/observers.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/analysis.hpp"
#include "sim/engine.hpp"

namespace aio::obs {

namespace {

// The process's one first-come slot counter.
int resolve_slot(int slot) {
  static std::atomic<int> instances{0};
  return slot >= 0 ? slot : instances++;
}

std::unique_ptr<Registry> registry_if(bool wanted) {
  const char* path = std::getenv("AIO_METRICS");
  return wanted || (path && *path) ? std::make_unique<Registry>() : nullptr;
}

}  // namespace

Observers::Observers(int slot, bool with_metrics)
    : slot_(resolve_slot(slot)),
      journal_(Journal::from_env(slot_)),
      live_(LivePlane::from_env(slot_)),
      metrics_(registry_if(with_metrics)),
      recorder_(journal_.get(), live_.get(), metrics_.get()) {}

Sampler& Observers::sample_every(double period_s) {
  return sampler_.emplace(*metrics_, period_s);
}

void Observers::attach(sim::Engine& engine) {
  engine_ = &engine;
  if (sampler_) schedule_sample(engine);
  if (live_ && live_->snapshot_enabled()) schedule_snapshot(engine);
}

void Observers::schedule_sample(sim::Engine& engine) {
  engine.schedule_daemon_after(sampler_->period(), [this, &engine] {
    sampler_->tick(engine.now());
    schedule_sample(engine);
  });
}

void Observers::schedule_snapshot(sim::Engine& engine) {
  engine.schedule_daemon_after(live_->config().snapshot_period_s, [this, &engine] {
    live_->snapshot_tick(engine.now());
    schedule_snapshot(engine);
  });
}

bool Observers::flush(bool aborted) {
  if (flushed_) return false;
  flushed_ = true;
  if (aborted && sampler_ && engine_) sampler_->tick(engine_->now());
  if (journal_) {
    (void)journal_->write();
    (void)flush_report(*journal_, slot_);
  }
  if (live_) {
    live_->flush();
    if (aborted && live_->flight_enabled()) (void)live_->dump_flight();
  }
  const char* path = std::getenv("AIO_METRICS");
  if (metrics_ && path && *path) {
    if (std::FILE* f = std::fopen(numbered_path(path, slot_).c_str(), "w")) {
      const std::string doc = metrics_->to_json().dump();
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  return true;
}

}  // namespace aio::obs
