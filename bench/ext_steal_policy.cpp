// Extension — steal-source policy: round-robin vs a state-richer variant.
//
// The paper's coordinator spreads adaptive write requests "evenly among the
// sub coordinators" (round-robin over the still-writing SCs).  An obvious
// state-richer alternative (Section VI future work) is to steal from the
// group with the most unredirected writers — draining the deepest backlog
// first.  This bench compares the two policies under the interference job,
// where a handful of groups carry most of the residual work.
#include "harness.hpp"
#include "parallel.hpp"
#include "workload/pixie3d.hpp"

using namespace aio;

int main() {
  const std::size_t samples = bench::samples_or(5);
  const std::size_t max_procs = bench::max_procs_or(8192);
  bench::warn_unreached_max_procs(max_procs, {2048, 8192});
  bench::banner("ext_steal_policy",
                "future-work extension: round-robin vs longest-queue steal source",
                "Pixie3D large (128 MB), Jaguar, adaptive/512 OSTs, with interference job");

  bench::Report report("ext_steal_policy", 980);
  report.config("samples", static_cast<double>(samples))
      .config("max_procs", static_cast<double>(max_procs))
      .config("policy", "longest-queue");
  stats::Table table({"procs", "round-robin avg", "longest-queue avg", "delta", "rr stddev(s)",
                      "lq stddev(s)"});
  const workload::Pixie3dConfig model = workload::Pixie3dConfig::large_model();

  // One machine carries the whole policy sweep in sequence: a single unit.
  struct Point {
    std::size_t procs;
    stats::Summary rr_bw, rr_t, lq_bw, lq_t;
  };
  const auto points = bench::run_samples(1, [&](std::size_t) {
    bench::Machine machine(fs::jaguar(), 980, /*with_load=*/true, /*min_ranks=*/max_procs);
    machine.add_interference_job();
    std::vector<Point> out;
    for (const std::size_t procs : {std::size_t{2048}, std::size_t{8192}}) {
      if (procs > max_procs) continue;
      const core::IoJob job = workload::pixie3d_job(model, procs);

      core::AdaptiveTransport::Config rr_cfg;
      rr_cfg.n_files = 512;
      core::AdaptiveTransport rr(machine.filesystem, machine.network, rr_cfg);
      core::AdaptiveTransport::Config lq_cfg;
      lq_cfg.n_files = 512;
      lq_cfg.steal_most_remaining = true;
      core::AdaptiveTransport lq(machine.filesystem, machine.network, lq_cfg);

      Point p;
      p.procs = procs;
      for (std::size_t s = 0; s < samples; ++s) {
        const core::IoResult a = machine.run(rr, job);
        p.rr_bw.add(a.bandwidth());
        p.rr_t.add(a.io_seconds());
        machine.advance(600.0);
        const core::IoResult b = machine.run(lq, job);
        p.lq_bw.add(b.bandwidth());
        p.lq_t.add(b.io_seconds());
        machine.advance(600.0);
      }
      out.push_back(std::move(p));
    }
    return out;
  })[0];

  for (const auto& p : points) {
    const double delta = (p.lq_bw.mean() / p.rr_bw.mean() - 1.0) * 100.0;
    report.row()
        .value("procs", static_cast<double>(p.procs))
        .value("delta_pct", delta)
        .stat("rr_bw", p.rr_bw)
        .stat("lq_bw", p.lq_bw)
        .stat("rr_t", p.rr_t)
        .stat("lq_t", p.lq_t);
    table.add_row({std::to_string(p.procs), stats::Table::bandwidth(p.rr_bw.mean()),
                   stats::Table::bandwidth(p.lq_bw.mean()),
                   (delta >= 0 ? "+" : "") + stats::Table::num(delta, 1) + "%",
                   stats::Table::num(p.rr_t.stddev(), 2), stats::Table::num(p.lq_t.stddev(), 2)});
  }
  std::printf("Steal-source policy comparison\n%s\n", table.render().c_str());
  std::printf("Round-robin is the paper's choice; longest-queue is the state-rich variant.\n"
              "Differences are modest by design: whichever SC is asked, a steal removes\n"
              "one waiting writer, and the coordinator keeps every free file busy.\n");
  return 0;
}
