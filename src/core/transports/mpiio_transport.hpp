// ADIOS MPI-IO-style shared-file transport (the paper's baseline).
//
// Output is buffered on the compute nodes, rank offsets are computed, and
// every process writes its contiguous region of one shared file
// independently and concurrently.  On Lustre 1.6 the single file is striped
// over at most 160 storage targets — the limit the paper identifies as an
// internal-interference bottleneck: at 16k writers that is >100 concurrent
// streams per OST.  An explicit flush precedes the close, matching the
// paper's Section IV measurement protocol.
#pragma once

#include <functional>

#include "core/transports/layout.hpp"
#include "fs/filesystem.hpp"

namespace aio::core {

class MpiioTransport final : public Transport {
 public:
  struct Config {
    std::size_t stripe_count = 0;      ///< 0 = the file system's stripe limit
    double stripe_size = 0.0;          ///< 0 = file system default
    std::size_t max_segments = 16;     ///< chain bound for wide writes
  };

  MpiioTransport(fs::FileSystem& fs, Config config) : fs_(fs), config_(config) {}

  [[nodiscard]] std::string name() const override { return "MPI-IO"; }
  void run(const IoJob& job, std::function<void(IoResult)> on_done) override;

 private:
  fs::FileSystem& fs_;
  Config config_;
};

}  // namespace aio::core
