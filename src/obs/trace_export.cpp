#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace aio::obs {

namespace {

constexpr double kUsPerSecond = 1e6;

/// Category label of a track group, derived from its pid.
const char* cat_name(std::uint32_t pid) {
  switch (pid) {
    case kPidProtocol: return "protocol";
    case kPidStorage: return "storage";
    case kPidMds: return "mds";
    case kPidRuntime: return "runtime";
    case kPidPath: return "critical_path";
    default: return "misc";
  }
}

/// Streams a trace document to an ostream as it is built: spans (ph B/E),
/// instants (ph i) and counter samples (ph C) on fixed pid/tid tracks, plus
/// track-name metadata (ph M).  Nothing is buffered, so the output is never
/// truncated; its size is bounded by the journal's own `max_records`.
class TraceSink {
 public:
  using Args = std::vector<std::pair<std::string, Json>>;

  explicit TraceSink(std::ostream& out) : out_(out) { out_ << "{\"traceEvents\":["; }

  void name_process(std::uint32_t pid, const std::string& name) {
    add('M', pid, 0, 0.0, "process_name", {{"name", Json(name)}});
  }
  void name_thread(std::uint32_t pid, std::uint32_t tid, const std::string& name) {
    add('M', pid, tid, 0.0, "thread_name", {{"name", Json(name)}});
  }
  /// Span begin / end on track (pid, tid).  Ends pair with the most recent
  /// unclosed begin on the same track (trace_event stack semantics).
  void begin(std::uint32_t pid, std::uint32_t tid, double t_s, const std::string& name,
             const Args& args = {}) {
    add('B', pid, tid, t_s * kUsPerSecond, name, args);
  }
  void end(std::uint32_t pid, std::uint32_t tid, double t_s) {
    add('E', pid, tid, t_s * kUsPerSecond, {}, {});
  }
  void instant(std::uint32_t pid, std::uint32_t tid, double t_s, const std::string& name,
               const Args& args = {}) {
    add('i', pid, tid, t_s * kUsPerSecond, name, args);
  }
  /// Counter sample: renders as a value track named `name` under `pid`.
  void counter(std::uint32_t pid, double t_s, const std::string& name, double value) {
    add('C', pid, 0, t_s * kUsPerSecond, name, {}, value);
  }

  /// Closes the document.
  void finish() { out_ << "],\"displayTimeUnit\":\"ms\"}\n"; }

 private:
  void add(char ph, std::uint32_t pid, std::uint32_t tid, double ts_us, const std::string& name,
           const Args& args, double value = 0.0) {
    buf_.clear();
    if (!first_) buf_ += ',';
    first_ = false;
    buf_ += "{\"ph\":\"";
    buf_ += ph;
    buf_ += "\",\"pid\":";
    Json::append_number(buf_, pid);
    buf_ += ",\"tid\":";
    Json::append_number(buf_, tid);
    buf_ += ",\"ts\":";
    Json::append_number(buf_, ts_us);
    if (ph != 'E') {
      buf_ += ",\"name\":";
      Json::append_quoted(buf_, name);
    }
    if (ph != 'M') {
      buf_ += ",\"cat\":\"";
      buf_ += cat_name(pid);
      buf_ += '"';
    }
    if (ph == 'i') buf_ += ",\"s\":\"t\"";  // instant scope: thread
    if (ph == 'C') {
      buf_ += ",\"args\":{\"value\":";
      Json::append_number(buf_, value);
      buf_ += '}';
    } else if (!args.empty()) {
      buf_ += ",\"args\":{";
      bool first = true;
      for (const auto& [k, v] : args) {
        if (!first) buf_ += ',';
        first = false;
        Json::append_quoted(buf_, k);
        buf_ += ':';
        buf_ += v.dump();
      }
      buf_ += '}';
    }
    buf_ += "}\n";
    out_ << buf_;
  }

  std::ostream& out_;
  std::string buf_;  // one event's text, reused
  bool first_ = true;
};

Json num(std::uint32_t v) { return Json(static_cast<double>(v)); }

const char* mds_op_name(std::uint8_t kind) {
  // kMdsOp.a encoding (journal.hpp; pinned by a static_assert in fs/mds.cpp).
  static const char* const kNames[] = {"mds.open", "mds.close", "mds.stat", "mds.create"};
  return kind < std::size(kNames) ? kNames[kind] : "mds.op";
}

void name_tracks(TraceSink& sink) {
  sink.name_process(kPidProtocol, "protocol");
  sink.name_process(kPidStorage, "storage");
  sink.name_process(kPidMds, "mds");
  sink.name_process(kPidRuntime, "runtime");
}

void journal_events(TraceSink& sink, const std::vector<Record>& records) {
  // Last rendered per-OST state: counters and instants mark transitions only.
  struct OstTrack {
    std::uint32_t m_dirty = 0;
    bool cache_full = false;
  };
  std::unordered_map<std::uint32_t, OstTrack> osts;
  std::unordered_set<std::uint32_t> mds_named;

  // Writer spans pair kWriterStart with kWriterEnd on the writer's own
  // thread; a start without an end (crash dump) leaves an open span, which
  // the viewers render to the end of the trace — exactly right for a hang.
  for (const Record& r : records) {
    switch (r.kind) {
      case Rec::kRunBegin:
        sink.instant(kPidProtocol, 0, r.t, "run " + std::to_string(r.id),
                     {{"writers", num(r.u0)}, {"files", num(r.u1)}, {"osts", num(r.u2)}});
        break;
      case Rec::kRunMark: {
        const char* name = r.a == 0 ? "open-done" : r.a == 1 ? "data-done" : "complete";
        sink.instant(kPidProtocol, 0, r.t, name);
        break;
      }
      case Rec::kFileMap:
        break;  // placement is static context, not a timeline event
      case Rec::kWriterSignal:
        sink.instant(kPidProtocol, r.id + 1, r.t, r.a != 0 ? "signal (adaptive)" : "signal",
                     {{"target", num(r.u0)}, {"origin", num(r.u1)}});
        break;
      case Rec::kWriterStart:
        sink.begin(kPidProtocol, r.id + 1, r.t, "write",
                   {{"file", num(r.u0)}, {"bytes", Json(r.v0)}});
        break;
      case Rec::kWriterEnd:
        sink.end(kPidProtocol, r.id + 1, r.t);
        break;
      case Rec::kOstState: {
        const std::string ost = "ost" + std::to_string(r.id);
        sink.counter(kPidStorage, r.t, ost + " ext", std::max(r.v1, r.v2));
        const auto [it, first] = osts.try_emplace(r.id);
        OstTrack& track = it->second;
        if (first) sink.name_thread(kPidStorage, r.id, ost);
        const bool cache_full = r.a != 0;
        if (cache_full != track.cache_full) {
          sink.instant(kPidStorage, r.id, r.t, ost + (cache_full ? ".cache_full" : ".cache_drained"),
                       {{"dirty_streams", num(r.u0)}});
          track.cache_full = cache_full;
        }
        if (r.u0 != track.m_dirty) {
          // The dirty-stream count drives the drain efficiency; both tracks
          // together show the internal-interference penalty.
          sink.counter(kPidStorage, r.t, ost + ".dirty_streams", static_cast<double>(r.u0));
          sink.counter(kPidStorage, r.t, ost + ".efficiency", r.v0);
          track.m_dirty = r.u0;
        }
        break;
      }
      case Rec::kMdsOp:
        if (mds_named.insert(r.id).second)
          sink.name_thread(kPidMds, r.id, "mds" + std::to_string(r.id));
        // The backlog track makes an open storm directly visible: every
        // rank's simultaneous open stacks up before the server drains it.
        sink.counter(kPidMds, r.t, "mds.backlog", static_cast<double>(r.u0));
        sink.begin(kPidMds, r.id, r.t, mds_op_name(r.a),
                   {{"queued_behind", num(r.u0)}, {"batched", num(r.u1)},
                    {"service_s", Json(r.v0)}});
        sink.end(kPidMds, r.id, r.t + r.v0);
        break;
      case Rec::kStealGrant:
        sink.instant(kPidProtocol, 0, r.t, "steal-grant " + std::to_string(r.id),
                     {{"source", num(r.u0)}, {"file", num(r.u1)}, {"queue_depth", Json(r.v1)}});
        break;
      case Rec::kStealComplete:
        sink.instant(kPidProtocol, 0, r.t, "steal-complete " + std::to_string(r.id),
                     {{"writer", num(r.u2)}, {"bytes", Json(r.v0)}});
        break;
      case Rec::kProfShard:
        sink.instant(kPidRuntime, r.id, r.t, "prof shard " + std::to_string(r.id),
                     {{"execute_s", Json(r.v0)},
                      {"barrier_s", Json(r.v1)},
                      {"merge_s", Json(r.v2)},
                      {"events", num(r.u0)},
                      {"msgs_posted", num(r.u1)},
                      {"msgs_drained", num(r.u2)}});
        break;
    }
  }
}

void critical_path_events(TraceSink& sink, const Json& report) {
  sink.name_process(kPidPath, "critical path");
  const Json* runs = report.find("runs");
  if (!runs || !runs->is_array()) return;
  std::uint32_t tid = 0;
  for (const Json& run : runs->items()) {
    ++tid;  // 1-based, matching the journal's run ordinals
    const Json* cp = run.find("critical_path");
    if (!cp) continue;
    sink.name_thread(kPidPath, tid, "run " + std::to_string(tid));
    const Json* segs = cp->find("segments");
    if (!segs || !segs->is_array()) continue;
    for (const Json& seg : segs->items()) {
      const Json* type = seg.find("type");
      const Json* t0 = seg.find("t0");
      const Json* t1 = seg.find("t1");
      if (!type || !t0 || !t1) continue;
      sink.begin(kPidPath, tid, t0->number(), type->str(),
                 {{"dur_s", Json(t1->number() - t0->number())}});
      sink.end(kPidPath, tid, t1->number());
    }
  }
}

void render(TraceSink& sink, const Journal& journal) {
  name_tracks(sink);
  journal_events(sink, journal.records());
}

/// Builds a document in memory through `fill(sink)`.
template <typename F>
Json to_json(F&& fill) {
  std::ostringstream text;
  TraceSink sink(text);
  fill(sink);
  sink.finish();
  return *Json::parse(text.str());
}

}  // namespace

Json journal_trace(const Journal& journal) {
  return to_json([&](TraceSink& sink) { render(sink, journal); });
}

bool write_journal_trace(const Journal& journal, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  TraceSink sink(out);
  render(sink, journal);
  sink.finish();
  return static_cast<bool>(out);
}

Json critical_path_trace(const Json& report) {
  return to_json([&](TraceSink& sink) { critical_path_events(sink, report); });
}

Json report_trace(const Journal& journal, const Json& report) {
  return to_json([&](TraceSink& sink) {
    render(sink, journal);
    critical_path_events(sink, report);
  });
}

}  // namespace aio::obs
