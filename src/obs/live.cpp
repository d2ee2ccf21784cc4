#include "obs/live.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/analysis.hpp"
#include "obs/env.hpp"

namespace aio::obs {

namespace {

std::size_t wrap(std::int64_t s, std::int64_t n) {
  return static_cast<std::size_t>(((s % n) + n) % n);
}

}  // namespace

LivePlane::LivePlane(Config config) : config_(std::move(config)) {
  slots_.assign(kWindowSlots, WaitSplit{});
  run_ring_.reserve(kRunWindow);
  flight_.reserve(config_.flight_records);
  // Typical rigs fit these; bigger fleets grow once during the warm-up run.
  osts_.reserve(64);
  groups_.reserve(64);
  if (!config_.snapshot_path.empty()) {
    snap_ = std::fopen(config_.snapshot_path.c_str(), "w");
    if (!snap_)
      std::fprintf(stderr, "aio: cannot open AIO_LIVE snapshot path %s\n",
                   config_.snapshot_path.c_str());
  }
}

LivePlane::~LivePlane() { flush(); }

std::unique_ptr<LivePlane> LivePlane::from_env(int slot) {
  const char* live = std::getenv("AIO_LIVE");
  const char* flight = std::getenv("AIO_FLIGHT");
  const bool live_set = live && *live;
  const bool flight_set = flight && *flight;
  if (!live_set && !flight_set) return nullptr;
  Config cfg;
  if (live_set && std::strcmp(live, "1") != 0 && std::strcmp(live, "-") != 0)
    cfg.snapshot_path = numbered_path(live, slot);
  if (flight_set) cfg.flight_path = numbered_path(flight, slot);
  // The ring only earns its copy-per-record when there is somewhere to dump
  // it: AIO_LIVE alone runs with the recorder disarmed.
  if (!flight_set) cfg.flight_records = 0;
  cfg.snapshot_period_s = env_double("AIO_LIVE_PERIOD_S", cfg.snapshot_period_s);
  return std::make_unique<LivePlane>(std::move(cfg));
}

double LivePlane::ewma_toward(double prev, double prev_t, double v, double t) {
  if (prev_t < 0.0) return v;
  const double dt = t > prev_t ? t - prev_t : 0.0;
  if (dt == 0.0) return prev;  // event cascades at one sim time: skip the exp
  const double keep = std::exp(-dt / kEwmaTauS);
  return v + (prev - v) * keep;
}

WaitSplit& LivePlane::slot_at(double t) {
  const auto idx = static_cast<std::int64_t>(std::floor(t / kWindowSlotS));
  const auto n = static_cast<std::int64_t>(slots_.size());
  if (cur_slot_ == INT64_MIN) {
    cur_slot_ = idx;
  } else if (idx > cur_slot_) {
    if (idx - cur_slot_ >= n) {
      std::fill(slots_.begin(), slots_.end(), WaitSplit{});
    } else {
      for (std::int64_t s = cur_slot_ + 1; s <= idx; ++s) slots_[wrap(s, n)] = WaitSplit{};
    }
    cur_slot_ = idx;
  } else if (idx < cur_slot_) {
    // A record behind the window head (clock skew across merged sources):
    // fold into its own slot while that slot is still live, else the oldest.
    const std::int64_t oldest = cur_slot_ - n + 1;
    return slots_[wrap(std::max(idx, oldest), n)];
  }
  return slots_[wrap(cur_slot_, n)];
}

void LivePlane::ingest(const Record& r) {
  if (r.t > now_) now_ = r.t;

  if (config_.flight_records > 0) {
    if (flight_.size() < config_.flight_records) {
      flight_.push_back(r);
    } else {
      flight_[flight_next_] = r;
      flight_next_ = (flight_next_ + 1) % config_.flight_records;
    }
    ++flight_total_;
  }

  if (!fold_.ingest(r)) return;
  if (osts_.size() < fold_.n_osts()) osts_.resize(fold_.n_osts());

  switch (r.kind) {
    case Rec::kRunMark:
      if (static_cast<Mark>(r.a) != Mark::kComplete) break;
      ++runs_completed_;
      if (fold_.run_open() && fold_.run().t_open >= 0.0) {
        const double rt = r.t - fold_.run().t_open;  // IoResult::io_seconds
        run_hist_.add(rt);
        if (run_ring_.size() < kRunWindow) {
          run_ring_.push_back(rt);
        } else {
          run_ring_[run_ring_next_] = rt;
          run_ring_next_ = (run_ring_next_ + 1) % kRunWindow;
        }
      }
      break;
    case Rec::kWriterEnd:
      on_writer_end(r);
      break;
    case Rec::kOstState: {
      OstState& o = osts_[r.id];
      o.load_ewma = ewma_toward(o.load_ewma, o.load_ewma_t, std::max(r.v1, r.v2), r.t);
      o.load_ewma_t = r.t;
      o.m_dirty = r.u0;
      break;
    }
    case Rec::kStealComplete: {
      const RunFold::Grant* g = fold_.grant(r.id);
      if (!g || g->grant_t < 0.0) break;
      // No-steal counterfactual: the stolen writer would have drained behind
      // queue_depth writers at the source file's service time — the live
      // EWMA standing in for the analyzer's end-of-run mean.
      const double svc = g->source < groups_.size() && groups_[g->source].svc_ewma_t >= 0.0
                             ? groups_[g->source].svc_ewma
                             : 0.0;
      ++steals_.completed;
      steals_.est_saved_s += (g->grant_t + g->queue_depth * svc) - r.t;
      break;
    }
    default:
      break;
  }
}

void LivePlane::on_writer_end(const Record& r) {
  const RunFold::Writer* w = fold_.writer(r.id);
  if (!w || w->start_t < 0.0) return;

  const double dur = r.t - w->start_t;
  ++svc_count_;
  svc_sum_ += dur;
  // Service EWMA of the OST the write landed on (straggler numerator) and of
  // the file written (the steal counterfactual's per-source service rate).
  const std::uint32_t target_ost = fold_.file_ost(r.u0);
  if (target_ost < osts_.size()) {
    OstState& o = osts_[target_ost];
    o.svc_ewma = ewma_toward(o.svc_ewma, o.svc_ewma_t, dur, r.t);
    o.svc_ewma_t = r.t;
    ++o.writes;
  }
  if (r.u0 >= groups_.size()) groups_.resize(static_cast<std::size_t>(r.u0) + 1);
  GroupState& grp = groups_[r.u0];
  grp.svc_ewma = ewma_toward(grp.svc_ewma, grp.svc_ewma_t, dur, r.t);
  grp.svc_ewma_t = r.t;

  // The window takes the fold's split of this writer, the same one the fold
  // adds to the open run's partial.
  WaitSplit& win = slot_at(r.t);
  ++win.writers;
  WaitSplit s;
  if (fold_.split(*w, s)) win += s;
}

double LivePlane::fleet_service_mean() const {
  return svc_count_ > 0 ? svc_sum_ / static_cast<double>(svc_count_) : 0.0;
}

double LivePlane::score_of(const OstState& o, double fleet) {
  double score = o.load_ewma;
  if (o.svc_ewma_t >= 0.0 && fleet > 0.0) score += std::max(0.0, o.svc_ewma / fleet - 1.0);
  return score;
}

double LivePlane::straggler_score(std::uint32_t ost) const {
  return ost < osts_.size() ? score_of(osts_[ost], fleet_service_mean()) : 0.0;
}

WaitSplit LivePlane::window() const {
  WaitSplit sum;
  for (const WaitSplit& s : slots_) sum += s;
  return sum;
}

LiveRunStats LivePlane::run_stats() const {
  LiveRunStats out;
  out.count = run_hist_.count();
  out.p99_s = run_hist_.quantile(0.99);
  const std::size_t n = run_ring_.size();
  if (n == 0) return out;
  double mean = 0.0, m2 = 0.0;
  std::size_t k = 0;
  for (const double v : run_ring_) {
    ++k;
    const double d = v - mean;
    mean += d / static_cast<double>(k);
    m2 += d * (v - mean);
  }
  out.mean_s = mean;
  if (n > 1 && mean > 0.0)
    out.cov = std::sqrt(m2 / static_cast<double>(n - 1)) / mean;
  return out;
}

LiveOst LivePlane::row_of(std::uint32_t ost, double score) const {
  const OstState& o = osts_[ost];
  LiveOst v;
  v.ost = ost;
  v.load_ewma = o.load_ewma_t >= 0.0 ? o.load_ewma : 0.0;
  v.service_ewma_s = o.svc_ewma_t >= 0.0 ? o.svc_ewma : 0.0;
  v.score = score;
  v.writes = o.writes;
  v.m_dirty = o.m_dirty;
  return v;
}

LiveOst LivePlane::ost_view(std::uint32_t ost) const {
  if (ost < osts_.size()) return row_of(ost, straggler_score(ost));
  LiveOst v;
  v.ost = ost;
  return v;
}

LiveView LivePlane::view(std::size_t top_k) const {
  LiveView v;
  v.t = now_;
  v.runs = runs_completed_;
  v.window = window();
  v.cumulative = fold_.cumulative();
  v.run_time = run_stats();
  v.steals = steals_;
  // Highest score first; ties break on the lower OST id so the ranking is
  // deterministic (bitwise-stable snapshots depend on it).  One pass in id
  // order keeps the best `top_k` rows sorted: a candidate that does not
  // beat the current k-th row (a tie loses, its id being higher) is
  // rejected before its row is built, so a view costs O(n + n log k)
  // instead of sorting the fleet.
  const std::size_t k = std::min(top_k, osts_.size());
  if (k == 0) return v;
  std::vector<LiveOst>& top = v.stragglers;
  top.reserve(k + 1);
  const double fleet = fleet_service_mean();
  for (std::uint32_t i = 0; i < osts_.size(); ++i) {
    const double score = score_of(osts_[i], fleet);
    if (top.size() == k && !(score > top.back().score)) continue;
    // After the rows already kept with a score >= this one: they all have
    // lower ids, so this is the (score desc, ost asc) position.
    const auto at = std::upper_bound(top.begin(), top.end(), score,
                                     [](double s, const LiveOst& o) { return s > o.score; });
    top.insert(at, row_of(i, score));
    if (top.size() > k) top.pop_back();
  }
  return v;
}

Json LivePlane::wait_json(const WaitSplit& w) {
  Json j = Json::object();
  j.set("mds_s", w.mds_s);
  j.set("internal_s", w.internal_s);
  j.set("external_s", w.external_s);
  j.set("network_s", w.network_s);
  j.set("total_s", w.total_s);
  j.set("writers", static_cast<double>(w.writers));
  return j;
}

Json LivePlane::snapshot_json(double now, bool final) const {
  const LiveView v = view();
  Json row = Json::object();
  row.set("schema", "aio-live-v1");
  if (final) row.set("final", true);
  row.set("t", now);
  row.set("runs", static_cast<double>(v.runs));
  row.set("window", wait_json(v.window));
  row.set("cumulative", wait_json(v.cumulative));
  Json rt = Json::object();
  rt.set("count", static_cast<double>(v.run_time.count));
  rt.set("mean_s", v.run_time.mean_s);
  rt.set("cov", v.run_time.cov);
  rt.set("p99_s", v.run_time.p99_s);
  row.set("run_time", std::move(rt));
  Json st = Json::object();
  st.set("completed", static_cast<double>(v.steals.completed));
  st.set("est_saved_s", v.steals.est_saved_s);
  row.set("steals", std::move(st));
  Json mds = Json::object();
  mds.set("ops", static_cast<double>(fold_.mds_ops()));
  mds.set("service_s", fold_.mds_service_s());
  if (fold_.mds_servers().size() > 1) {
    // A real tier: break the same totals out per server so a live consumer
    // can see placement skew as it develops.
    Json servers = Json::object();
    for (std::size_t i = 0; i < fold_.mds_servers().size(); ++i)
      servers.set("mds" + std::to_string(i), mds_json(fold_.mds_servers()[i]));
    mds.set("servers", std::move(servers));
  }
  row.set("mds", std::move(mds));
  Json stragglers = Json::array();
  for (const LiveOst& o : v.stragglers) {
    Json oj = Json::object();
    oj.set("ost", o.ost);
    oj.set("score", o.score);
    oj.set("load_ewma", o.load_ewma);
    oj.set("service_ewma_s", o.service_ewma_s);
    oj.set("writes", static_cast<double>(o.writes));
    stragglers.push(std::move(oj));
  }
  row.set("stragglers", std::move(stragglers));
  // The report's summary.attribution block: the CI consistency gate checks
  // these keys for equality with aio_report's.
  if (final) row.set("attribution", attribution_json(v.cumulative));
  return row;
}

void LivePlane::snapshot_tick(double now) {
  if (!snap_) return;
  const std::string row = snapshot_json(now).dump();
  if (std::fputs(row.c_str(), snap_) < 0 || std::fputc('\n', snap_) == EOF) {
    ++rows_dropped_;
    return;
  }
  // Flush per row: a crashed or killed run keeps every completed row.
  std::fflush(snap_);
  ++rows_;
}

void LivePlane::flush() {
  if (flushed_) return;
  flushed_ = true;
  fold_.finish();
  if (!snap_) {
    if (!config_.snapshot_path.empty()) ++rows_dropped_;  // the open itself failed
    return;
  }
  const std::string row = snapshot_json(now_, /*final=*/true).dump();
  if (std::fputs(row.c_str(), snap_) >= 0 && std::fputc('\n', snap_) != EOF)
    ++rows_;
  else
    ++rows_dropped_;
  std::fclose(snap_);
  snap_ = nullptr;
}

bool LivePlane::dump_flight(const std::string& path) const {
  if (!flight_enabled() || path.empty()) return false;
  const std::size_t n = flight_.size();
  Journal j(Journal::Config{std::string(), n + 1});
  j.reserve(n);
  // Oldest record first: once the ring has wrapped, flight_next_ points at
  // the record about to be overwritten, i.e. the oldest retained one.
  const std::size_t start = n == config_.flight_records ? flight_next_ : 0;
  std::uint32_t runs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& rec = flight_[(start + i) % n];
    if (rec.kind == Rec::kRunBegin) ++runs;
    j.append(rec);
  }
  for (std::uint32_t i = 0; i < runs; ++i) (void)j.begin_run();
  return j.write(path);
}

}  // namespace aio::obs
