// Figure 3 — illustration of imbalanced concurrent writers.
//
// Two external-interference samples taken 3 minutes apart on Jaguar
// (512 writers, 128 MB/process, one writer per OST): the paper's Test 1
// shows an imbalance factor (slowest/fastest write time) of 3.44, Test 2 —
// three minutes later — only 1.56, yet even then "nearly twice as much data
// could be written to the faster storage target than to the slower one".
//
// This bench runs a series of samples at 3-minute spacing, prints the
// per-writer write-time distribution of the most- and least-imbalanced
// adjacent pair, and the imbalance factor of every sample — demonstrating
// both the magnitude and the minutes-timescale transience of the effect.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "parallel.hpp"
#include "workload/ior.hpp"

namespace {

using namespace aio;

constexpr double kMiB = 1 << 20;

void print_sample(const char* name, const workload::IorSample& s) {
  const std::vector<double>& t = s.writer_seconds;
  stats::Table table({"metric", "value"});
  table.add_row({"writers", std::to_string(t.size())});
  table.add_row({"fastest writer (s)", stats::Table::num(stats::percentile(t, 0.0), 3)});
  table.add_row({"p25 (s)", stats::Table::num(stats::percentile(t, 25.0), 3)});
  table.add_row({"median (s)", stats::Table::num(stats::percentile(t, 50.0), 3)});
  table.add_row({"p75 (s)", stats::Table::num(stats::percentile(t, 75.0), 3)});
  table.add_row({"slowest writer (s)", stats::Table::num(stats::percentile(t, 100.0), 3)});
  table.add_row({"imbalance factor", stats::Table::num(s.imbalance, 2)});
  std::printf("%s\n%s\n", name, table.render().c_str());
  const stats::Histogram hist = stats::Histogram::fit(t, 10);
  std::printf("per-writer write-time histogram (seconds):\n%s\n", hist.render(40).c_str());
}

}  // namespace

int main() {
  const std::size_t n_samples = bench::samples_or(24);
  // Test 1 / Test 2 are an adjacent pair of samples, so a series needs two.
  if (n_samples < 2) {
    std::fprintf(stderr, "fig3_imbalance: AIO_BENCH_SAMPLES=%zu, need at least 2\n", n_samples);
    return 2;
  }

  bench::banner("fig3_imbalance",
                "Fig. 3(a,b): per-writer write times of two samples minutes apart",
                "Jaguar, IOR POSIX, 512 writers, 128 MB/process, one writer per OST");

  bench::Report report("fig3_imbalance", 29);
  report.config("samples", static_cast<double>(n_samples));
  // One machine carries the whole 3-minute-spaced series (the transience
  // *is* the experiment), so this bench is a single replication unit.
  const auto samples = bench::run_samples(1, [&](std::size_t) {
    bench::Machine machine(fs::jaguar(), /*seed=*/29, /*with_load=*/true);
    std::vector<workload::IorSample> out;
    out.reserve(n_samples);
    for (std::size_t i = 0; i < n_samples; ++i) {
      workload::IorConfig cfg;
      cfg.writers = 512;
      cfg.bytes_per_writer = 128.0 * kMiB;
      cfg.osts_to_use = 512;
      out.push_back(workload::run_ior_once(machine.filesystem, cfg));
      machine.advance(180.0);  // "Test 2 took place only 3 minutes later"
    }
    return out;
  })[0];

  // The most contrasting adjacent pair plays the role of Test 1 / Test 2.
  std::size_t pick = 0;
  double best_contrast = 0.0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const double contrast = std::abs(samples[i].imbalance - samples[i + 1].imbalance);
    if (contrast > best_contrast) {
      best_contrast = contrast;
      pick = i;
    }
  }
  const bool first_worse = samples[pick].imbalance > samples[pick + 1].imbalance;
  const auto& test1 = first_worse ? samples[pick] : samples[pick + 1];
  const auto& test2 = first_worse ? samples[pick + 1] : samples[pick];

  print_sample("Fig 3(a) Test 1 (paper: imbalance factor 3.44):", test1);
  print_sample("Fig 3(b) Test 2, 3 minutes later (paper: imbalance factor 1.56):", test2);

  // Even at low imbalance, the fast target absorbs ~2x the slow one's data
  // per unit time (paper: "nearly twice as much data could be written").
  std::printf("Test 2 fast/slow target throughput ratio: %.2fx\n\n", test2.imbalance);

  stats::Summary all;
  stats::Table series({"sample", "t+min", "imbalance factor", "aggregate"});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.add(samples[i].imbalance);
    report.row()
        .value("sample", static_cast<double>(i))
        .value("t_min", static_cast<double>(i * 3))
        .value("imbalance", samples[i].imbalance)
        .value("aggregate_bw", samples[i].aggregate_bw);
    series.add_row({std::to_string(i), std::to_string(i * 3),
                    stats::Table::num(samples[i].imbalance, 2),
                    stats::Table::bandwidth(samples[i].aggregate_bw)});
  }
  std::printf("Imbalance factor per sample (3-minute spacing):\n%s\n", series.render().c_str());
  report.row().tag("metric", "imbalance_summary").stat("imbalance", all);
  std::printf("Overall average imbalance factor (paper: ~3.9 across all tests): %.2f\n",
              all.mean());
  return 0;
}
