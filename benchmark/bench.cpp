#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "api/presets.hpp"
#include "common/check.hpp"
#include "common/json.hpp"

namespace bench {

using namespace bnsgcn;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {.name = "train-mailbox-p0.1",
       .scale = 1.0,
       .sample_rate = 0.1f,
       .transport = comm::TransportKind::kMailbox,
       .epochs = 10},
      {.name = "train-uds-p1",
       .scale = 1.0,
       .sample_rate = 1.0f,
       .transport = comm::TransportKind::kUds,
       .epochs = 8},
      {.name = "serve-uds-cache",
       .scale = 0.5,
       .sample_rate = 0.1f,
       .transport = comm::TransportKind::kUds,
       .serve = true,
       .cache_mb = 1,
       .epochs = 6,
       .serve_batches = 8},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

api::RunConfig run_config(const Workload& w, std::uint64_t seed) {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  // The graph is the preset's own and its partitioning is fixed, per
  // workload: a different graph or partitioning per seed moves the loss,
  // the ranks' memory high-water mark and the halo working sets (so the
  // serving latency) far more than any change under test would.
  cfg.dataset.custom = reddit_like(w.scale);
  cfg.partition.kind = api::PartitionSpec::Kind::kMetis;
  cfg.partition.nparts = kParts;
  cfg.partition.seed = 1;
  cfg.trainer = api::preset_trainer_config("reddit");
  cfg.trainer.epochs = w.epochs;
  cfg.trainer.eval_every = 0;
  cfg.trainer.seed = seed + 41;
  cfg.trainer.sample_rate = w.sample_rate;
  cfg.trainer.threads = 1;
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.cache_mb = w.cache_mb;
  cfg.comm.transport = w.transport;
  return cfg;
}

int Tracer::add(std::string name, double start_s, double end_s,
                int parent) {
  if (!on_) return -1;
  const double t0 = now_s();
  spans_.push_back({std::move(name), start_s, end_s, parent});
  self_s_ += now_s() - t0;
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(std::string name, int parent) {
  if (!on_) return -1;
  const double t = now_s();
  spans_.push_back({std::move(name), t, t, parent});
  self_s_ += now_s() - t;
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) {
  if (span < 0) return;
  const double t = now_s();
  spans_[static_cast<std::size_t>(span)].end_s = t;
  self_s_ += now_s() - t;
}

void Tracer::write_chrome(const std::string& path) const {
  double t0 = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (i == 0 || spans_[i].start_s < t0) t0 = spans_[i].start_s;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 0);
    e.set("tid", 0);
    e.set("ts", (s.start_s - t0) * 1e6);
    e.set("dur", (s.end_s - s.start_s) * 1e6);
    json::Value args = json::Value::object();
    args.set("id", static_cast<int>(i));
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  BNSGCN_CHECK_MSG(out.good(), "cannot write trace file " + path);
  out << doc.dump() << "\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace bench
