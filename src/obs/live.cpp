#include "obs/live.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/env.hpp"
#include "obs/prof.hpp"

namespace aio::obs {

namespace {

std::size_t wrap(std::int64_t s, std::int64_t n) {
  return static_cast<std::size_t>(((s % n) + n) % n);
}

}  // namespace

LivePlane::LivePlane(Config config) : config_(std::move(config)) {
  // Degenerate geometry would divide by zero or leave the ring empty;
  // clamp instead of asserting so a bad env value degrades gracefully.
  if (!(config_.window_slot_s > 0.0)) config_.window_slot_s = 1.0;
  if (config_.window_slots == 0) config_.window_slots = 1;
  if (config_.run_window == 0) config_.run_window = 1;
  slots_.assign(config_.window_slots, LiveWait{});
  run_ring_.reserve(config_.run_window);
  flight_.reserve(config_.flight_records);
  // Typical rigs fit these; bigger fleets grow once during the warm-up run.
  osts_.reserve(64);
  writers_.reserve(512);
  file_ost_.reserve(64);
  grants_.reserve(256);
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
  // Numbered paths per machine, same scheme as Journal::from_env.
  static std::atomic<int> instances{0};
  const int ordinal = slot >= 0 ? slot + 1 : ++instances;
  const auto numbered = [ordinal](const char* p) {
    return ordinal == 1 ? std::string(p) : std::string(p) + "." + std::to_string(ordinal);
  };
  Config cfg;
  if (live_set && std::strcmp(live, "1") != 0 && std::strcmp(live, "-") != 0)
    cfg.snapshot_path = numbered(live);
  if (flight_set) cfg.flight_path = numbered(flight);
  // The ring only earns its copy-per-record when there is somewhere to dump
  // it: AIO_LIVE alone runs with the recorder disarmed.
  if (!flight_set) cfg.flight_records = 0;
  cfg.snapshot_period_s = env_double("AIO_LIVE_PERIOD_S", cfg.snapshot_period_s);
  cfg.window_slot_s = env_double("AIO_LIVE_WINDOW_S", cfg.window_slot_s);
  cfg.window_slots = env_size("AIO_LIVE_SLOTS", cfg.window_slots);
  cfg.flight_records = env_size("AIO_FLIGHT_RECORDS", cfg.flight_records);
  return std::make_unique<LivePlane>(std::move(cfg));
}

void LivePlane::ensure_ost(std::uint32_t id) {
  if (id >= osts_.size()) osts_.resize(static_cast<std::size_t>(id) + 1);
}

double LivePlane::ewma_toward(double prev, double prev_t, double v, double t, double tau) {
  if (prev_t < 0.0 || !(tau > 0.0)) return v;
  const double dt = t > prev_t ? t - prev_t : 0.0;
  if (dt == 0.0) return prev;  // event cascades at one sim time: skip the exp
  const double keep = std::exp(-dt / tau);
  return v + (prev - v) * keep;
}

LiveWait& LivePlane::slot_at(double t) {
  const auto idx = static_cast<std::int64_t>(std::floor(t / config_.window_slot_s));
  const auto n = static_cast<std::int64_t>(slots_.size());
  if (cur_slot_ == INT64_MIN) {
    cur_slot_ = idx;
  } else if (idx > cur_slot_) {
    if (idx - cur_slot_ >= n) {
      std::fill(slots_.begin(), slots_.end(), LiveWait{});
    } else {
      for (std::int64_t s = cur_slot_ + 1; s <= idx; ++s) slots_[wrap(s, n)] = LiveWait{};
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

  switch (r.kind) {
    case Rec::kRunBegin: {
      run_t_begin_ = r.t;
      run_t_open_ = -1.0;
      run_writers_ = r.u0;
      if (writers_.size() < r.u0) writers_.resize(r.u0);
      std::fill(writers_.begin(), writers_.end(), WriterSlot{});
      std::fill(grants_.begin(), grants_.end(), GrantSlot{});
      if (r.u2 > 0) ensure_ost(r.u2 - 1);
      break;
    }
    case Rec::kRunMark:
      switch (static_cast<Mark>(r.a)) {
        case Mark::kOpenDone:
          run_t_open_ = r.t;
          // Snapshot every OST's load integral at the shared open boundary;
          // writer external shares are measured from here.
          for (OstState& o : osts_) o.ext_at_open = o.cum_at(r.t);
          break;
        case Mark::kDataDone:
          break;
        case Mark::kComplete:
          ++runs_completed_;
          if (run_t_open_ >= 0.0) {
            const double rt = r.t - run_t_open_;  // IoResult::io_seconds
            run_hist_.add(rt);
            if (run_ring_.size() < config_.run_window) {
              run_ring_.push_back(rt);
            } else {
              run_ring_[run_ring_next_] = rt;
              run_ring_next_ = (run_ring_next_ + 1) % config_.run_window;
            }
          }
          break;
      }
      break;
    case Rec::kFileMap:
      if (r.u0 >= file_ost_.size()) file_ost_.resize(static_cast<std::size_t>(r.u0) + 1, 0);
      file_ost_[r.u0] = r.u1;
      ensure_ost(r.u1);
      break;
    case Rec::kWriterSignal:
      if (r.id < writers_.size()) {
        WriterSlot& w = writers_[r.id];
        w.signal_t = r.t;
        w.target = r.u0;
        w.origin = r.u1;
        // The queue interval [t_open, signal] is priced on the writer's home
        // OST; freeze its load integral now so kWriterEnd can difference it.
        const std::uint32_t home = r.u1 < file_ost_.size() ? file_ost_[r.u1] : 0;
        w.ext_at_signal = home < osts_.size() ? osts_[home].cum_at(r.t) : 0.0;
      }
      break;
    case Rec::kWriterStart:
      if (r.id < writers_.size()) writers_[r.id].start_t = r.t;
      break;
    case Rec::kWriterEnd:
      on_writer_end(r);
      break;
    case Rec::kOstState: {
      ensure_ost(r.id);
      OstState& o = osts_[r.id];
      // Close the previous constant-load segment into the running integral,
      // then start the new one (same step function the analyzer rebuilds).
      o.cum_ext = o.cum_at(r.t);
      o.last_t = r.t;
      o.ext = std::max(r.v1, r.v2);
      o.load_ewma = ewma_toward(o.load_ewma, o.load_ewma_t, o.ext, r.t, config_.ewma_tau_s);
      o.load_ewma_t = r.t;
      o.m_dirty = r.u0;
      break;
    }
    case Rec::kMdsOp: {
      ++mds_ops_;
      mds_service_s_ += r.v0;
      if (r.id >= mds_servers_.size()) mds_servers_.resize(static_cast<std::size_t>(r.id) + 1);
      LiveMds& m = mds_servers_[r.id];
      ++m.ops;
      m.items += 1 + static_cast<std::uint64_t>(r.u1);
      m.service_s += r.v0;
      m.peak_queue = std::max(m.peak_queue, r.u0);
      break;
    }
    case Rec::kStealGrant: {
      if (r.id >= grants_.size()) grants_.resize(static_cast<std::size_t>(r.id) + 1);
      GrantSlot& g = grants_[r.id];
      g.t = r.t;
      g.queue_depth = r.v1;
      g.source = r.u0;
      break;
    }
    case Rec::kProfShard:
      // Host-runtime artifact (sharded-run profiler); carries no simulated
      // state, so the live attribution ignores it.  The flight recorder
      // above already retained it.
      break;
    case Rec::kStealComplete:
      if (r.id < grants_.size() && grants_[r.id].t >= 0.0) {
        const GrantSlot& g = grants_[r.id];
        // No-steal counterfactual: the stolen writer would have drained
        // behind queue_depth writers at the source file's service time —
        // the live EWMA standing in for the analyzer's end-of-run mean.
        const double svc =
            g.source < groups_.size() && groups_[g.source].svc_ewma_t >= 0.0
                ? groups_[g.source].svc_ewma
                : 0.0;
        const double saved = (g.t + g.queue_depth * svc) - r.t;
        ++steals_.completed;
        steals_.est_saved_s += saved;
        if (g.source >= groups_.size())
          groups_.resize(static_cast<std::size_t>(g.source) + 1);
        GroupState& grp = groups_[g.source];
        ++grp.steals;
        grp.est_saved_s += saved;
      }
      break;
  }
}

void LivePlane::on_writer_end(const Record& r) {
  if (r.id >= writers_.size()) return;
  const WriterSlot& w = writers_[r.id];
  if (w.start_t < 0.0) return;

  const double dur = r.t - w.start_t;
  ++svc_count_;
  svc_sum_ += dur;
  // Service EWMA of the OST the write landed on (straggler numerator) and of
  // the file written (the steal counterfactual's per-source service rate).
  const std::uint32_t target_ost = r.u0 < file_ost_.size() ? file_ost_[r.u0] : 0;
  if (target_ost < osts_.size()) {
    OstState& o = osts_[target_ost];
    o.svc_ewma = ewma_toward(o.svc_ewma, o.svc_ewma_t, dur, r.t, config_.ewma_tau_s);
    o.svc_ewma_t = r.t;
    ++o.writes;
  }
  if (r.u0 >= groups_.size()) groups_.resize(static_cast<std::size_t>(r.u0) + 1);
  GroupState& grp = groups_[r.u0];
  grp.svc_ewma = ewma_toward(grp.svc_ewma, grp.svc_ewma_t, dur, r.t, config_.ewma_tau_s);
  grp.svc_ewma_t = r.t;

  LiveWait& win = slot_at(r.t);
  ++win.writers;
  ++cum_.writers;

  // Wait partition — the same gates and arithmetic as the offline analyzer
  // (analysis.cpp), so cumulative totals agree to floating-point noise.
  if (run_t_open_ < 0.0 || w.signal_t < 0.0) return;
  const double wait = w.start_t - run_t_begin_;
  const double mds = std::max(0.0, run_t_open_ - run_t_begin_);
  const double net = std::max(0.0, w.start_t - w.signal_t);
  const double q = std::max(0.0, w.signal_t - run_t_open_);
  const std::uint32_t home = w.origin < file_ost_.size() ? file_ost_[w.origin] : 0;
  double ext = 0.0;
  if (home < osts_.size())
    ext = std::min(q, std::max(0.0, w.ext_at_signal - osts_[home].ext_at_open));
  const double internal = q - ext;
  win.mds_s += mds;
  win.network_s += net;
  win.internal_s += internal;
  win.external_s += ext;
  win.total_s += wait;
  cum_.mds_s += mds;
  cum_.network_s += net;
  cum_.internal_s += internal;
  cum_.external_s += ext;
  cum_.total_s += wait;
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

LiveWait LivePlane::window() const {
  LiveWait sum;
  for (const LiveWait& s : slots_) {
    sum.mds_s += s.mds_s;
    sum.internal_s += s.internal_s;
    sum.external_s += s.external_s;
    sum.network_s += s.network_s;
    sum.total_s += s.total_s;
    sum.writers += s.writers;
  }
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

double LivePlane::steal_benefit_s(std::uint32_t group) const {
  return group < groups_.size() ? groups_[group].est_saved_s : 0.0;
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
  v.cumulative = cum_;
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

Json LivePlane::wait_json(const LiveWait& w) {
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
  mds.set("ops", static_cast<double>(mds_ops_));
  mds.set("service_s", mds_service_s_);
  if (mds_servers_.size() > 1) {
    // A real tier: break the same totals out per server so a live consumer
    // can see placement skew as it develops.
    Json servers = Json::object();
    for (std::size_t i = 0; i < mds_servers_.size(); ++i) {
      const LiveMds& m = mds_servers_[i];
      Json mj = Json::object();
      mj.set("ops", static_cast<double>(m.ops));
      mj.set("items", static_cast<double>(m.items));
      mj.set("service_s", m.service_s);
      mj.set("peak_queue", static_cast<double>(m.peak_queue));
      servers.set("mds" + std::to_string(i), std::move(mj));
    }
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
  if (prof_ && prof_->n_shards() > 0) {
    // Cumulative host-runtime split (obs/prof.hpp), read-only: the live row
    // shows where the wall clock is going while the run is still in flight.
    const prof::ShardProfiler::Slot t = prof_->totals();
    Json pj = Json::object();
    pj.set("n_shards", static_cast<double>(prof_->n_shards()));
    pj.set("rounds", static_cast<double>(t.rounds));
    pj.set("execute_s", t.execute_s);
    pj.set("barrier_s", t.barrier_s);
    pj.set("merge_s", t.merge_s);
    pj.set("skip_s", t.skip_s);
    pj.set("events", static_cast<double>(t.events));
    pj.set("msgs_posted", static_cast<double>(t.msgs_posted));
    pj.set("msgs_drained", static_cast<double>(t.msgs_drained));
    pj.set("backlog_hw", static_cast<double>(t.backlog_hw));
    pj.set("imbalance", prof_->imbalance());
    row.set("prof", std::move(pj));
  }
  if (final) {
    // Mirror summary.attribution from the offline report exactly — the CI
    // consistency gate compares these keys against aio_report's output.
    Json attrib = Json::object();
    attrib.set("total_wait_s", cum_.total_s);
    attrib.set("internal_s", cum_.internal_s);
    attrib.set("external_s", cum_.external_s);
    attrib.set("mds_s", cum_.mds_s);
    attrib.set("network_s", cum_.network_s);
    const double denom = cum_.total_s > 0.0 ? cum_.total_s : 1.0;
    attrib.set("internal_share", cum_.internal_s / denom);
    attrib.set("external_share", cum_.external_s / denom);
    attrib.set("mds_share", cum_.mds_s / denom);
    attrib.set("network_share", cum_.network_s / denom);
    attrib.set("attributed_frac",
               cum_.total_s > 0.0
                   ? (cum_.internal_s + cum_.external_s + cum_.mds_s + cum_.network_s) /
                         cum_.total_s
                   : 1.0);
    row.set("attribution", std::move(attrib));
  }
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
