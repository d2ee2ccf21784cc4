// Negative tests for the benchmark's output checks (checks.hpp): a genuine
// result passes, and each check fires on a result tampered in its field.
// Exits non-zero on the first check that fails to behave.
//
//   ./aio_perfbench_checks
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using namespace aio;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// True when `bad` holds exactly one violation mentioning `needle`.
bool fires(const std::vector<std::string>& bad, const std::string& needle) {
  return bad.size() == 1 && bad.front().find(needle) != std::string::npos;
}

core::IoResult good_result() {
  core::IoResult r;
  r.t_open_done = 1.0;
  r.t_complete = 4.5;
  r.writer_times.assign(4, core::WriterTiming{1.0, 4.0});
  r.total_blocks_indexed = 32;
  return r;
}

perfbench::Expect good_expect(bool adaptive) {
  perfbench::Expect e;
  e.job_bytes = 4 * 2e6;
  e.writers = 4;
  e.blocks = 32;
  e.adaptive = adaptive;
  e.index_allowance = adaptive ? 4096.0 : 0.0;
  return e;
}

obs::Json good_run(double io_seconds) {
  const auto seg = [](const char* type, double t0, double t1) {
    obs::Json s = obs::Json::object();
    s.set("type", type);
    s.set("t0", t0);
    s.set("t1", t1);
    s.set("dur_s", t1 - t0);
    return s;
  };
  obs::Json segs = obs::Json::array();
  segs.push(seg("internal", 1.0, 2.0));
  segs.push(seg("external", 2.0, 1.0 + io_seconds));
  obs::Json cp = obs::Json::object();
  cp.set("t0", 1.0);
  cp.set("t1", 1.0 + io_seconds);
  cp.set("segments", std::move(segs));
  obs::Json run = obs::Json::object();
  run.set("run_time_s", io_seconds);
  run.set("critical_path", std::move(cp));
  return run;
}

/// Rebuilds `run` with segment `i`'s field `key` replaced by `value`.
obs::Json tamper_segment(const obs::Json& run, std::size_t i, const char* key, double value) {
  obs::Json segs = obs::Json::array();
  const obs::Json& cp = *run.find("critical_path");
  for (std::size_t k = 0; k < cp.find("segments")->size(); ++k) {
    obs::Json s = cp.find("segments")->at(k);
    if (k == i) s.set(key, value);
    segs.push(std::move(s));
  }
  obs::Json cp2 = cp;
  cp2.set("segments", std::move(segs));
  obs::Json out = run;
  out.set("critical_path", std::move(cp2));
  return out;
}

}  // namespace

int main() {
  using perfbench::check_collective;
  const core::IoResult r = good_result();

  for (const bool adaptive : {false, true}) {
    const perfbench::Expect e = good_expect(adaptive);
    const std::string tag = adaptive ? "adaptive: " : "mpiio: ";
    const double index = adaptive ? 1000.0 : 0.0;
    expect(check_collective(e, r, e.job_bytes + index).empty(), tag + "genuine result passes");
    expect(fires(check_collective(e, r, e.job_bytes - 2e6), "bytes_submitted"),
           tag + "missing payload bytes fire");
    expect(fires(check_collective(e, r, e.job_bytes + 1e6), "bytes_submitted"),
           tag + "surplus bytes fire");
    core::IoResult short_timings = r;
    short_timings.writer_times.pop_back();
    expect(fires(check_collective(e, short_timings, e.job_bytes + index), "writer timings"),
           tag + "a missing writer timing fires");
    core::IoResult nan = r;
    nan.t_complete = std::numeric_limits<double>::quiet_NaN();
    expect(fires(check_collective(e, nan, e.job_bytes + index), "io_seconds"),
           tag + "non-finite io_seconds fires");
    core::IoResult zero = r;
    zero.t_complete = zero.t_open_done;
    expect(fires(check_collective(e, zero, e.job_bytes + index), "io_seconds"),
           tag + "zero io_seconds fires");
  }
  {
    const perfbench::Expect e = good_expect(true);
    core::IoResult lost = r;
    lost.total_blocks_indexed = 31;
    expect(fires(check_collective(e, lost, e.job_bytes), "blocks indexed"),
           "adaptive: a lost index block fires");
  }

  expect(perfbench::check_fig7_loop(0.5, 1.0, 0).empty(), "fig7: genuine shape passes");
  expect(fires(perfbench::check_fig7_loop(1.0, 0.5, 0), "stddev"),
             "fig7: adaptive spreading more than MPI-IO fires");
  expect(fires(perfbench::check_fig7_loop(0.5, 0.5, 0), "stddev"), "fig7: a tie fires");
  expect(fires(perfbench::check_fig7_loop(0.5, 1.0, 3), "dropped"),
         "fig7: journal drops fire");

  const obs::Json run = good_run(3.5);
  expect(perfbench::check_report_run(run, 3.5).empty(), "report: genuine run passes");
  obs::Json bad_rt = run;
  bad_rt.set("run_time_s", 3.4);
  expect(fires(perfbench::check_report_run(bad_rt, 3.5), "run_time_s"),
         "report: tampered run_time_s fires");
  expect(fires(perfbench::check_report_run(tamper_segment(run, 1, "t0", 2.1), 3.5), "gap"),
         "report: a gap in the critical path fires");
  expect(fires(perfbench::check_report_run(tamper_segment(run, 1, "dur_s", 2.0), 3.5), "tiles"),
         "report: segment durations off io_seconds fire");
  expect(fires(perfbench::check_report_run(tamper_segment(run, 1, "t1", 4.0), 3.5), "ends at"),
         "report: a path ending short of t1 fires");
  obs::Json no_cp = obs::Json::object();
  no_cp.set("run_time_s", 3.5);
  expect(fires(perfbench::check_report_run(no_cp, 3.5), "no critical path"),
         "report: a run without a critical path fires");

  std::printf("%s\n", failures == 0 ? "all output checks fire on tampered results"
                                    : "OUTPUT CHECK SELF-TEST FAILED");
  return failures == 0 ? 0 : 1;
}
