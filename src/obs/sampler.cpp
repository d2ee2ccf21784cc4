#include "obs/sampler.hpp"

namespace aio::obs {

void Sampler::add_probe(std::string name, Probe probe) {
  probes_.push_back(Entry{&registry_.series(name), std::move(probe)});
}

void Sampler::tick(double now) {
  ++ticks_;
  for (Entry& p : probes_) p.series->add(now, p.probe(now));
}

}  // namespace aio::obs
