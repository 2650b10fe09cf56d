#pragma once

// Per-layer probes of the traced run: each one calls a module's public
// functions on the workload's own graph, partitioning and rank-0 shapes,
// timed with the driver's clock. Nothing here reads a CostModel projection.

#include <string>
#include <vector>

#include "api/run.hpp"
#include "bench.hpp"

namespace bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // repetitions behind a timed median
};

/// Run every probe for `w` over one set-up (`ds`, `part` built from
/// `cfg`) and return the partition/tensor/nn/core/comm metrics. Each probe
/// is also recorded as a span on `tracer`, under the span `parent`.
[[nodiscard]] std::vector<Metric> run_probes(const Workload& w,
                                             const bnsgcn::api::RunConfig& cfg,
                                             const bnsgcn::Dataset& ds,
                                             const bnsgcn::Partitioning& part,
                                             Tracer& tracer, int parent);

} // namespace bench
