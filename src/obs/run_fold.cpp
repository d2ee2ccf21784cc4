#include "obs/run_fold.hpp"

#include <algorithm>
#include <cmath>

namespace aio::obs {

RunFold::RunFold(Sink* sink) : sink_(sink) {
  // Typical rigs fit these; bigger fleets grow once during the first run.
  writers_.reserve(512);
  file_ost_.reserve(64);
  grants_.reserve(256);
  file_service_.reserve(64);
  osts_.reserve(64);
  log_.reserve(1024);
}

void RunFold::ensure_osts(std::size_t n) {
  if (n > osts_.size()) osts_.resize(n);
}

bool RunFold::ingest(const Record& r) {
  if (!std::isfinite(r.t) || !std::isfinite(r.v0) || !std::isfinite(r.v1) ||
      !std::isfinite(r.v2))
    return reject();

  switch (r.kind) {
    case Rec::kRunBegin:
      if (r.u0 > kMaxRunSize || r.u1 > kMaxRunSize || r.u2 > kMaxOsts) return reject();
      close_run();
      open_ = true;
      run_ = Run{};
      run_.id = r.id;
      run_.t_begin = r.t;
      run_.n_writers = r.u0;
      run_.n_files = r.u1;
      run_.n_osts = r.u2;
      writers_.assign(r.u0, Writer{});
      file_ost_.assign(r.u1, 0);
      file_service_.assign(r.u1, stats::Summary{});
      grants_.clear();
      ensure_osts(r.u2);
      // Seed the segment log with the load each OST carries into the run.
      log_.clear();
      if (sink_)
        for (std::uint32_t i = 0; i < osts_.size(); ++i)
          if (osts_[i].seen) log_.push_back(LoadSeg{osts_[i].seg_t, osts_[i].ext, i});
      return true;

    case Rec::kRunMark:
      if (r.a > static_cast<std::uint8_t>(Mark::kComplete)) return reject();
      if (!open_) return true;
      switch (static_cast<Mark>(r.a)) {
        case Mark::kOpenDone:
          run_.t_open = r.t;
          // Queue intervals start here: every OST's integral restarts.
          for (OstLoad& o : osts_) o.since_open = 0.0;
          break;
        case Mark::kDataDone:
          run_.t_data_done = r.t;
          break;
        case Mark::kComplete:
          run_.t_complete = r.t;
          run_.steals = r.v0;
          run_.grants = r.v1;
          break;
      }
      return true;

    case Rec::kFileMap:
      if (r.u1 >= kMaxOsts) return reject();
      if (!open_) return true;
      if (r.u0 >= run_.n_files) return reject();
      file_ost_[r.u0] = r.u1;
      ensure_osts(static_cast<std::size_t>(r.u1) + 1);
      return true;

    case Rec::kWriterSignal: {
      if (!open_) return true;
      if (r.id >= run_.n_writers || r.u0 >= run_.n_files || r.u1 >= run_.n_files)
        return reject();
      Writer& w = writers_[r.id];
      w.signal_t = r.t;
      w.target = r.u0;
      w.origin = r.u1;
      w.grant_seq = r.u2;
      w.adaptive = r.a != 0;
      // The queue interval [t_open, signal] is priced on the home OST, whose
      // load up to now is all the fold will ever need for it.
      w.queue_ext_s = run_.t_open >= 0.0 ? queue_integral(file_ost(r.u1), r.t) : 0.0;
      return true;
    }

    case Rec::kWriterStart: {
      if (!open_) return true;
      if (r.id >= run_.n_writers || r.u0 >= run_.n_files) return reject();
      Writer& w = writers_[r.id];
      w.start_t = r.t;
      w.bytes = r.v0;
      return true;
    }

    case Rec::kWriterEnd: {
      if (!open_) return true;
      if (r.id >= run_.n_writers || r.u0 >= run_.n_files) return reject();
      Writer& w = writers_[r.id];
      w.end_t = r.t;
      if (w.start_t >= 0.0) {
        ++partial_.writers;
        WaitSplit s;
        if (split(w, s)) partial_ += s;
      }
      return true;
    }

    case Rec::kOstState: {
      if (r.id >= kMaxOsts) return reject();
      ensure_osts(static_cast<std::size_t>(r.id) + 1);
      OstLoad& o = osts_[r.id];
      // Close the current segment into the since-open integral, then start
      // the new one.
      if (open_ && run_.t_open >= 0.0 && o.seen) {
        const double lo = std::max(run_.t_open, o.seg_t);
        if (r.t > lo) o.since_open += (r.t - lo) * o.ext;
      }
      o.seg_t = r.t;
      o.ext = std::max(r.v1, r.v2);
      o.seen = true;
      if (open_ && sink_) log_.push_back(LoadSeg{r.t, o.ext, r.id});
      return true;
    }

    case Rec::kMdsOp: {
      if (r.id >= kMaxMds) return reject();
      ++mds_ops_;
      mds_service_s_ += r.v0;
      if (r.id >= mds_.size()) mds_.resize(static_cast<std::size_t>(r.id) + 1);
      Mds& m = mds_[r.id];
      ++m.ops;
      m.items += 1 + static_cast<std::uint64_t>(r.u1);
      m.service_s += r.v0;
      m.peak_queue = std::max(m.peak_queue, r.u0);
      if (open_) {
        ++run_.mds_ops;
        run_.mds_service_s += r.v0;
        if (run_.t_open < 0.0)
          run_.mds_open_s += r.v0;
        else if (run_.t_data_done >= 0.0 && r.t >= run_.t_data_done)
          run_.mds_close_s += r.v0;
      }
      return true;
    }

    case Rec::kStealGrant:
    case Rec::kStealComplete: {
      if (!open_) return true;
      // Grant ids are 1-based and unique per run: one per steal plus at most
      // one declined grant per group.
      if (r.id > run_.n_writers + run_.n_files || r.u0 >= run_.n_files) return reject();
      if (r.id >= grants_.size()) grants_.resize(static_cast<std::size_t>(r.id) + 1);
      Grant& g = grants_[r.id];
      g.source = r.u0;
      if (r.kind == Rec::kStealComplete) {
        g.complete_t = r.t;
      } else {
        g.grant_t = r.t;
        g.queue_depth = r.v1;
      }
      return true;
    }

    case Rec::kProfShard:
      // Host-runtime artifact (obs/prof.hpp): no simulated state to fold.
      return true;
  }
  return reject();  // unknown kind
}

void RunFold::finish() { close_run(); }

bool RunFold::split(const Writer& w, WaitSplit& out) const {
  if (run_.t_open < 0.0 || w.signal_t < 0.0) return false;
  // Run begin -> first data byte splits exactly: MDS = the shared open phase;
  // queue = [t_open, signal] on the home OST, its background load integral
  // external and the rest internal (waiting behind earlier writers); network
  // = signal -> start, the write signal's transfer.
  const double q = std::max(0.0, w.signal_t - run_.t_open);
  out.total_s = w.start_t - run_.t_begin;
  out.mds_s = std::max(0.0, run_.t_open - run_.t_begin);
  out.network_s = std::max(0.0, w.start_t - w.signal_t);
  out.external_s = std::min(q, w.queue_ext_s);
  out.internal_s = q - out.external_s;
  out.writers = 0;
  return true;
}

WaitSplit RunFold::cumulative() const {
  WaitSplit c = closed_;
  c += partial_;
  return c;
}

double RunFold::queue_integral(std::uint32_t ost, double t) const {
  if (ost >= osts_.size()) return 0.0;
  const OstLoad& o = osts_[ost];
  const double lo = std::max(run_.t_open, o.seg_t);
  return o.seen && t > lo ? o.since_open + (t - lo) * o.ext : o.since_open;
}

double RunFold::logged_integral(std::uint32_t ost, double a, double b) const {
  if (b <= a) return 0.0;
  // Each segment holds until the next one of the same OST; segments ending
  // at or before `a` add nothing, and the scan stops at the first starting
  // at or after `b`.
  double total = 0.0;
  const LoadSeg* cur = nullptr;
  const auto add = [&](double hi) {
    const double lo = std::max(a, cur->t);
    if (hi > lo) total += (hi - lo) * cur->ext;
  };
  for (const LoadSeg& s : log_) {
    if (s.ost != ost) continue;
    if (cur) add(std::min(b, s.t));
    if (s.t >= b) return total;
    cur = &s;
  }
  if (cur) add(b);
  return total;
}

void RunFold::close_run() {
  if (!open_) return;

  // Writers in rank order: write times per file (the steal counterfactual's
  // service rate), the closed split, and the anchor — the last writer to
  // finish its data write (lowest rank on ties), the one the close phase
  // waited on.
  const Writer* anchor = nullptr;
  std::uint32_t anchor_rank = 0;
  for (std::uint32_t rank = 0; rank < writers_.size(); ++rank) {
    const Writer& w = writers_[rank];
    if (w.start_t < 0.0 || w.end_t < 0.0) continue;
    if (w.target < file_service_.size()) file_service_[w.target].add(w.end_t - w.start_t);
    ++closed_.writers;
    WaitSplit s;
    if (split(w, s)) closed_ += s;
    if (w.signal_t >= 0.0 && (!anchor || w.end_t > anchor->end_t)) {
      anchor = &w;
      anchor_rank = rank;
    }
  }
  partial_ = WaitSplit{};
  if (!sink_) {  // nobody reads the chains' prices or the path
    open_ = false;
    return;
  }

  // Steal provenance: the stolen writer would have drained behind
  // `queue_depth` writers at the source file's mean write time.
  const auto mean_service = [&](std::uint32_t file) {
    return file < file_service_.size() && file_service_[file].count() > 0
               ? file_service_[file].mean()
               : 0.0;
  };
  for (Grant& g : grants_)
    if (g.completed())
      g.saved_s = (g.grant_t + g.queue_depth * mean_service(g.source)) - g.complete_t;

  path_ = PathInputs{};
  path_.t_open = run_.t_open;
  path_.t_data_done = run_.t_data_done;
  path_.t_complete = run_.t_complete;
  path_.t_begin = run_.t_begin;
  path_.open_mds_service_s = run_.mds_open_s;
  path_.close_mds_s = run_.mds_close_s;
  if (anchor) {
    path_.have_anchor = true;
    path_.anchor_writer = anchor_rank;
    path_.anchor_target = anchor->target;
    path_.anchor_ost = file_ost(anchor->target);
    path_.anchor_adaptive = anchor->adaptive;
    path_.signal_t = anchor->signal_t;
    path_.start_t = anchor->start_t;
    path_.end_t = anchor->end_t;
    if (run_.t_open >= 0.0) path_.queue_ext_s = anchor->queue_ext_s;
    path_.service_ext_s = logged_integral(path_.anchor_ost, anchor->start_t, anchor->end_t);
    if (anchor->adaptive && anchor->grant_seq < grants_.size()) {
      const Grant& g = grants_[anchor->grant_seq];
      if (g.grant_t >= 0.0) {
        path_.grant_t = g.grant_t;
        if (g.complete_t >= 0.0) path_.steal_saved_s = g.saved_s;
      }
    }
  }

  sink_->run_closed(*this);
  open_ = false;
}

}  // namespace aio::obs
