// End-to-end protocol-path micro-benchmark (google-benchmark).
//
// Measures what the table benches cannot see: the host-side cost of one
// complete adaptive output operation — every protocol message sent,
// delivered and handled, every simulated OST write scheduled and completed —
// at writer counts from 512 to 16384, next to the MPI-IO baseline's
// striped-write path over the same machine and job.
//
// Each benchmark also reports `allocs_per_msg`: heap allocations during the
// run (counted by a global operator-new hook) divided by protocol messages
// sent.  The adaptive hot path is designed to be allocation-free per
// message — callbacks ride SBO callables end to end, FSM action lists and
// block shapes are inline, map nodes are recycled — so this counter is the
// regression alarm for the whole chain.  (It is not exactly zero: per-run
// setup — actors, files, the final index gather — amortizes over messages.)
//
// Setup (machine + transport + job construction) happens outside the timed
// region; the measured interval is transport.run() through engine drain.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "workload/pixie3d.hpp"

namespace {

std::atomic<std::size_t> g_allocs{0};

}  // namespace

// The replacements stay out of line: once inlined, gcc 12 pairs malloc() or
// free() with the builtin new/delete at the call site and reports a false
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace aio;

/// One simulated machine: default (Jaguar-like) file system, one rank per
/// writer.  No background load or interference — this bench measures host
/// cost, not simulated bandwidth, and determinism keeps samples comparable.
struct Rig {
  sim::Engine engine;
  fs::FileSystem filesystem;
  net::Network network;

  explicit Rig(std::size_t n_ranks)
      : filesystem(engine, fs::FsConfig{}), network(engine, net::NetConfig{}, n_ranks) {}
};

constexpr std::size_t kFiles = 512;  // one output file per storage target

void BM_AdaptiveRun(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  const core::IoJob job =
      workload::pixie3d_job(workload::Pixie3dConfig::large_model(), writers);
  std::size_t messages = 0;
  std::size_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto rig = std::make_unique<Rig>(writers);
    core::AdaptiveTransport::Config cfg;
    cfg.n_files = kFiles;
    core::AdaptiveTransport transport(rig->filesystem, rig->network, cfg);
    core::IoResult result;
    state.ResumeTiming();

    const std::size_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    transport.run(job, [&](core::IoResult r) { result = std::move(r); });
    rig->engine.run();
    allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
    messages += rig->network.messages_sent();

    state.PauseTiming();
    benchmark::DoNotOptimize(result.total_blocks_indexed);
    rig.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writers));
  state.counters["msgs"] =
      benchmark::Counter(static_cast<double>(messages) / static_cast<double>(state.iterations()));
  state.counters["allocs_per_msg"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(messages));
}
BENCHMARK(BM_AdaptiveRun)->Arg(512)->Arg(2048)->Arg(8192)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_MpiioRun(benchmark::State& state) {
  const auto writers = static_cast<std::size_t>(state.range(0));
  const core::IoJob job =
      workload::pixie3d_job(workload::Pixie3dConfig::large_model(), writers);
  for (auto _ : state) {
    state.PauseTiming();
    auto rig = std::make_unique<Rig>(writers);
    core::MpiioTransport transport(rig->filesystem, core::MpiioTransport::Config{});
    core::IoResult result;
    state.ResumeTiming();

    transport.run(job, [&](core::IoResult r) { result = std::move(r); });
    rig->engine.run();

    state.PauseTiming();
    benchmark::DoNotOptimize(result.t_complete);
    rig.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writers));
}
BENCHMARK(BM_MpiioRun)->Arg(512)->Arg(2048)->Arg(8192)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so micro_protocol honours AIO_BENCH_JSON like every table
// bench: the variable maps onto google-benchmark's native JSON reporter.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (const char* path = std::getenv("AIO_BENCH_JSON"); path && *path) {
    out_flag = std::string("--benchmark_out=") + path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
