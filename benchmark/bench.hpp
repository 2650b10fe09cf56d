#pragma once

// Shared pieces of the benchmark driver: the workload table, the driver's
// own wall clock, the span recorder behind --trace 1, and the small
// statistics helpers every metric goes through.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/run.hpp"

namespace bench {

/// Seconds on the driver's clock (std::chrono::steady_clock, i.e.
/// CLOCK_MONOTONIC on Linux: one system-wide clock, so stamps taken in a
/// forked rank and in the parent are comparable).
[[nodiscard]] double now_s();

/// One named benchmark input. Every workload trains 4-layer SAGE on 4
/// METIS partitions with the stream overlap schedule and one kernel lane
/// per rank; what differs is the graph size, the boundary sampling rate,
/// the fabric, and whether the measured loop trains or serves.
struct Workload {
  std::string name;
  double scale = 1.0;         // reddit preset size multiplier
  float sample_rate = 1.0f;   // BNS-GCN boundary sampling rate p
  bnsgcn::comm::TransportKind transport = bnsgcn::comm::TransportKind::kMailbox;
  bool serve = false;         // measured loop runs api::serve, not api::run
  std::int64_t cache_mb = 0;  // halo-cache budget (0 = off)
  int epochs = 0;             // fixed epoch count of every training call
  int serve_batches = 0;      // query batches per api::serve call
};

inline constexpr int kParts = 4;
inline constexpr int kBatchSize = 32;
/// Every training iteration also deploys a model on the same set-up: one
/// weight-producing epoch, then this many query batches on the workload's
/// fabric, so serving is sampled across the whole run.
inline constexpr int kDeployEpochs = 1;
inline constexpr int kDeployBatches = 8;

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The api-level config of `w` at `seed`: the seed drives the model
/// initialization and the sampler; the graph and its partitioning are
/// fixed per workload.
[[nodiscard]] bnsgcn::api::RunConfig run_config(const Workload& w,
                                                std::uint64_t seed);

/// A recorded interval on the driver's clock. `parent` is the index of the
/// enclosing span (-1 for a root).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

/// In-memory span buffer, written out once when the run ends. When off,
/// add() is a single branch and records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  /// Wall time spent inside add/open/close so far: what tracing itself
  /// costs the run.
  [[nodiscard]] double self_s() const { return self_s_; }
  /// Record a finished span; returns its index (or -1 when off).
  int add(std::string name, double start_s, double end_s, int parent = -1);
  /// Open a span starting now; close() stamps its end. Both are no-ops
  /// when off (open returns -1).
  int open(std::string name, int parent = -1);
  void close(int span);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (chrome://tracing, Perfetto), times in
  /// microseconds from the first span; args carry the span tree.
  void write_chrome(const std::string& path) const;

 private:
  bool on_;
  double self_s_ = 0.0;
  std::vector<Span> spans_;
};

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);

} // namespace bench
