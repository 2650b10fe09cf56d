// End-to-end benchmark driver (benchmark/README.md): runs one named
// workload through api::run / api::serve for a fixed wall-clock budget,
// times it with its own clock, checks the answers, and prints one JSON row
// per metric followed by the summary line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <malloc.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/serve.hpp"
#include "bench.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "probes.hpp"

namespace {

using namespace bnsgcn;
using namespace bench;

constexpr const char* kUsage =
    "usage: bnsgcn_benchmark --workload <name> --seed <n> --seconds <s> "
    "--trace <0|1>\n"
    "                        [--git-sha <sha>] [--src-digest <hex>]\n"
    "       bnsgcn_benchmark --workload <name> --seed <n> --record-golden\n"
    "  workloads: train-mailbox-p0.1, train-uds-p1, serve-uds-cache\n"
    "  --seconds   wall-clock budget of the measured loop (1..600)\n"
    "  --trace     0: end-to-end metrics; 1: per-layer metrics and a "
    "Chrome trace in .bench_build/\n"
    "  --record-golden  run one iteration and print this seed's golden "
    "entry\n"
    "Run from the repository root: the golden record is read from "
    "benchmark/golden.json.\n";

/// Paths relative to the repository root, the driver's working directory.
constexpr const char* kGoldenPath = "benchmark/golden.json";
constexpr const char* kTraceDir = ".bench_build";

/// Relative tolerance of the golden train_loss check: loose enough for a
/// change that reassociates floating-point sums, far below the spread of
/// the loss across seeds.
constexpr double kLossTol = 1e-3;
/// Share of served predictions that may differ from the golden record (a
/// reassociated sum may flip a near-tie argmax).
constexpr double kPredictionTol = 0.01;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool record_golden = false;
  std::string git_sha = "none";
  std::string src_digest = "none";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "bnsgcn_benchmark: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

std::int64_t parse_int(const std::string& flag, const std::string& text,
                       std::int64_t lo, std::int64_t hi) {
  if (text.empty() || text.size() > 15 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    usage_error(flag + " needs a whole number, got '" + text + "'");
  const std::int64_t v = std::stoll(text);
  if (v < lo || v > hi)
    usage_error(flag + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + text);
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-golden") {
      o.record_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      o.workload = find_workload(val);
      if (o.workload == nullptr) usage_error("unknown workload '" + val + "'");
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_int(flag, val, 0, std::int64_t{1} << 40));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(parse_int(flag, val, 1, 600));
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(parse_int(flag, val, 0, 1));
    } else if (flag == "--git-sha") {
      o.git_sha = val;
    } else if (flag == "--src-digest") {
      o.src_digest = val;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (o.record_golden) {
    if (o.seconds != 0 || o.trace >= 0)
      usage_error("--record-golden takes no --seconds or --trace");
  } else if (o.seconds == 0 || o.trace < 0) {
    usage_error("--seconds and --trace are required");
  }
  return o;
}

// ------------------------------------------------------------ epoch stamps

/// What the per-epoch observer records: the driver's clock at the end of
/// the epoch plus the epoch's loss and traffic counters.
struct EpochRecord {
  double stamp_s;
  double loss;
  std::int64_t feature_bytes;
  std::int64_t grad_bytes;
  std::int64_t control_bytes;
};

/// Epoch records in a shared anonymous mapping, so the observer can write
/// them from a forked rank 0 (UDS training) as well as from a rank thread.
class SharedEpochs {
 public:
  explicit SharedEpochs(int n) : n_(n) {
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    BNSGCN_CHECK_MSG(p != MAP_FAILED, "mmap of the epoch records failed");
    rec_ = static_cast<EpochRecord*>(p);
  }
  ~SharedEpochs() { ::munmap(rec_, bytes()); }
  SharedEpochs(const SharedEpochs&) = delete;
  SharedEpochs& operator=(const SharedEpochs&) = delete;

  void reset() {
    for (int i = 0; i < n_; ++i)
      rec_[i] = {std::numeric_limits<double>::quiet_NaN(), 0, 0, 0, 0};
  }
  [[nodiscard]] core::EpochObserver observer() const {
    return [rec = rec_, n = n_](const core::EpochSnapshot& s) {
      if (s.epoch < 1 || s.epoch > n) return;
      rec[s.epoch - 1] = {now_s(), s.train_loss, s.breakdown.feature_bytes,
                          s.breakdown.grad_bytes, s.breakdown.control_bytes};
    };
  }
  /// All records, or nullopt when some epoch never reported.
  [[nodiscard]] std::optional<std::vector<EpochRecord>> read() const {
    std::vector<EpochRecord> out(rec_, rec_ + n_);
    for (const auto& r : out)
      if (std::isnan(r.stamp_s)) return std::nullopt;
    return out;
  }

 private:
  [[nodiscard]] std::size_t bytes() const {
    return static_cast<std::size_t>(n_) * sizeof(EpochRecord);
  }
  int n_;
  EpochRecord* rec_ = nullptr;
};

// -------------------------------------------------------------- iterations

struct SetUp {
  Dataset ds;
  Partitioning part;
};

/// One measured iteration: a fresh set-up plus one api::run (training
/// workloads) or api::serve (serving workload) call.
struct Iteration {
  double wall_s = 0.0;
  double dataset_s = 0.0;
  double partition_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> epoch_s;     // pure training epochs (2 .. E-1)
  double eval_epoch_s = 0.0;       // the last epoch, which also evaluates
  std::vector<double> losses;      // per epoch
  std::int64_t feature_bytes = 0;  // training traffic, summed over epochs
  std::int64_t grad_bytes = 0;
  std::int64_t control_bytes = 0;
  // Serving: the serve workload's batches, or a training deploy step's.
  std::vector<double> latency_s;
  std::vector<NodeId> queries;
  std::vector<int> predictions;
  std::vector<float> logits;
  std::int64_t serve_feature_bytes = 0;
  std::int64_t cache_hit_rows = 0;  // summed over ranks and batches
  std::int64_t cache_miss_rows = 0;
  int num_classes = 0;
  int batches = 0;  // query batches served
  int ops = 0;      // epochs + batches attempted
};

void build_setup(const api::RunConfig& cfg, std::optional<SetUp>& su,
                 Iteration& x, Tracer& tr, int parent) {
  su.reset();  // never hold two graphs: peak RSS is a reported metric
  int s = tr.open("graph.make_dataset", parent);
  double t0 = now_s();
  Dataset ds = api::make_dataset(cfg.dataset);
  x.dataset_s = now_s() - t0;
  tr.close(s);
  s = tr.open("partition.partition", parent);
  t0 = now_s();
  Partitioning part = api::make_partition(ds.graph, cfg.partition);
  x.partition_s = now_s() - t0;
  tr.close(s);
  su.emplace(SetUp{std::move(ds), std::move(part)});
  // The set-up's scratch is freed: hand it back to the OS so the driver's
  // own peak RSS counts training, not the partitioner.
  ::malloc_trim(0);
}

/// Epoch intervals between successive observer stamps; epoch 1 (start not
/// observable from outside the call) and the evaluating last epoch are
/// kept out of the training samples.
void take_epochs(const std::vector<EpochRecord>& rec, double t_call,
                 Iteration& x, Tracer& tr, int parent) {
  const std::size_t E = rec.size();
  tr.add("api.startup+epoch1", t_call, rec[0].stamp_s, parent);
  for (std::size_t k = 1; k < E; ++k) {
    const double dt = rec[k].stamp_s - rec[k - 1].stamp_s;
    tr.add("epoch" + std::to_string(k + 1), rec[k - 1].stamp_s, rec[k].stamp_s,
           parent);
    if (k + 1 < E) x.epoch_s.push_back(dt);
    else x.eval_epoch_s = dt;
  }
  for (const auto& r : rec) {
    x.losses.push_back(r.loss);
    x.feature_bytes += r.feature_bytes;
    x.grad_bytes += r.grad_bytes;
    x.control_bytes += r.control_bytes;
  }
}

/// Copy a serve report's answers and per-batch rows into `x`.
void take_serve(api::ServeReport&& r, Iteration& x) {
  for (const auto& b : r.batches) {
    x.latency_s.push_back(b.latency_s);
    x.serve_feature_bytes += b.feature_bytes;
  }
  x.cache_hit_rows += r.cache_hit_rows();
  x.cache_miss_rows += r.cache_miss_rows();
  x.num_classes = r.num_classes;
  x.queries.insert(x.queries.end(), r.queries.begin(), r.queries.end());
  x.predictions.insert(x.predictions.end(), r.predictions.begin(),
                       r.predictions.end());
  x.logits = std::move(r.logits);
}

double peak_rss_mb(const Workload& w) {
  rusage ru{};
  ::getrusage(w.transport == comm::TransportKind::kMailbox ? RUSAGE_SELF
                                                           : RUSAGE_CHILDREN,
              &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-run state the iterations share.
struct Loop {
  const Workload& w;
  api::RunConfig cfg;
  api::ServeConfig scfg;
  SharedEpochs shm;
  std::optional<SetUp> su;
  /// Peak RSS once the first main call returned (before any deploy or
  /// parity serve could add its own ranks to the high-water mark).
  double peak_rss_mb = 0.0;
};

/// Training: api::run on the workload's fabric, then (unless recording the
/// golden entry, which needs only the training) the deploy step: one
/// weight-producing epoch and kDeployBatches batches, cache off.
Iteration train_iteration(Loop& lp, bool deploy_model, Tracer& tr) {
  Iteration x;
  const double t0 = now_s();
  const int it = tr.open("iteration");
  build_setup(lp.cfg, lp.su, x, tr, it);
  api::RunConfig cfg = lp.cfg;
  cfg.trainer.observer = lp.shm.observer();
  lp.shm.reset();
  int call = tr.open("api.run", it);
  const double t_call = now_s();
  const api::RunReport report = api::run(lp.su->ds, lp.su->part, cfg);
  tr.close(call);
  if (lp.peak_rss_mb == 0.0) lp.peak_rss_mb = peak_rss_mb(lp.w);
  x.ops = cfg.trainer.epochs;
  const auto rec = lp.shm.read();
  BNSGCN_CHECK_MSG(rec.has_value(), "an epoch never reached the observer");
  BNSGCN_CHECK_MSG(report.train_loss.size() == rec->size(),
                   "report and observer disagree on the epoch count");
  take_epochs(*rec, t_call, x, tr, call);
  x.setup_s = x.dataset_s + x.partition_s + ((*rec)[0].stamp_s - t_call);
  if (!deploy_model) {
    tr.close(it);
    x.wall_s = now_s() - t0;
    return x;
  }

  api::RunConfig deploy = lp.cfg;
  deploy.trainer.epochs = kDeployEpochs;
  api::ServeConfig s = lp.scfg;
  s.num_batches = kDeployBatches;
  call = tr.open("deploy.serve", it);
  take_serve(api::serve(lp.su->ds, lp.su->part, deploy, s), x);
  tr.close(call);
  x.ops += deploy.trainer.epochs + s.num_batches;
  x.batches = s.num_batches;
  tr.close(it);
  x.wall_s = now_s() - t0;
  return x;
}

/// Serving: api::serve on the workload's fabric; the weight-producing
/// training inside the call is timed through the observer.
Iteration serve_iteration(Loop& lp, bool record_logits, Tracer& tr) {
  Iteration x;
  const double t0 = now_s();
  const int it = tr.open("iteration");
  build_setup(lp.cfg, lp.su, x, tr, it);
  api::RunConfig cfg = lp.cfg;
  cfg.trainer.observer = lp.shm.observer();
  lp.shm.reset();
  api::ServeConfig s = lp.scfg;
  s.record_logits = record_logits;
  const int call = tr.open("api.serve", it);
  const double t_call = now_s();
  api::ServeReport r = api::serve(lp.su->ds, lp.su->part, cfg, s);
  const double t_ret = now_s();
  tr.close(call);
  if (lp.peak_rss_mb == 0.0) lp.peak_rss_mb = peak_rss_mb(lp.w);
  x.ops = cfg.trainer.epochs + s.num_batches;
  x.batches = s.num_batches;
  const auto rec = lp.shm.read();
  BNSGCN_CHECK_MSG(rec.has_value(), "an epoch never reached the observer");
  take_epochs(*rec, t_call, x, tr, call);
  tr.add("serve.batches", rec->back().stamp_s, t_ret, call);
  take_serve(std::move(r), x);
  double busy = 0.0;
  for (const double l : x.latency_s) busy += l;
  // Everything in the call that is not answering a batch: the
  // weight-producing training, engine build, rank bootstrap and teardown.
  x.setup_s = x.dataset_s + x.partition_s + (t_ret - t_call - busy);
  tr.close(it);
  x.wall_s = now_s() - t0;
  return x;
}

// ------------------------------------------------------------------ checks

struct Checks {
  std::vector<json::Value> rows;
  int failed = 0;     // operations the failed checks cover
  bool all_ok = true;

  void add(const std::string& name, bool ok, int ops_at_stake,
           const std::string& detail) {
    json::Value v = json::Value::object();
    v.set("row", "check");
    v.set("name", name);
    v.set("ok", ok);
    v.set("detail", detail);
    rows.push_back(std::move(v));
    if (!ok) {
      failed += ops_at_stake;
      all_ok = false;
    }
  }
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// The byte counters the golden record pins. Feature bytes are left out
/// when the halo cache runs (the serving workload's training and its
/// batches): a change of cache policy moves them, and the cache's hit
/// counts, without changing a single answer.
std::vector<std::pair<const char*, std::int64_t>> gated_counters(
    const Workload& w, const Iteration& x) {
  std::vector<std::pair<const char*, std::int64_t>> c = {
      {"grad_bytes", x.grad_bytes}, {"control_bytes", x.control_bytes}};
  if (w.cache_mb == 0) c.push_back({"feature_bytes", x.feature_bytes});
  return c;
}

/// The golden fingerprint of a seed: the training loss, the gated byte
/// counters and the served answers.
json::Value golden_entry(const Workload& w, const Iteration& x) {
  json::Value v = json::Value::object();
  v.set("train_loss", x.losses.back());
  for (const auto& [key, value] : gated_counters(w, x)) v.set(key, value);
  if (w.serve) {
    json::Value preds = json::Value::array();
    for (const int p : x.predictions) preds.push_back(p);
    v.set("predictions", std::move(preds));
  }
  return v;
}

/// Iterations of one run repeat the same inputs, so their losses, traffic
/// and answers must be bit-equal.
bool same_run(const Iteration& a, const Iteration& b) {
  return bits_equal(a.losses, b.losses) && a.feature_bytes == b.feature_bytes &&
         a.grad_bytes == b.grad_bytes && a.control_bytes == b.control_bytes &&
         a.serve_feature_bytes == b.serve_feature_bytes &&
         a.queries == b.queries && a.predictions == b.predictions;
}

/// Every query answered with a class in range.
bool all_answered(const Iteration& x, int expected) {
  if (static_cast<int>(x.predictions.size()) != expected ||
      static_cast<int>(x.queries.size()) != expected)
    return false;
  for (const int p : x.predictions)
    if (p < 0 || p >= x.num_classes) return false;
  return true;
}

void check_golden(const Options& o, const Iteration& x, int ops, Checks& c) {
  std::ifstream in(kGoldenPath);
  if (!in) {
    c.add("golden", false, ops, std::string("cannot open ") + kGoldenPath);
    return;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::Value doc = json::Value::parse(text);
  const json::Value* per_wl = doc.get(o.workload->name);
  const json::Value* g =
      per_wl != nullptr ? per_wl->get(std::to_string(o.seed)) : nullptr;
  if (g == nullptr) {
    c.add("golden", true, 0,
          "no golden record for seed " + std::to_string(o.seed) +
              "; determinism and parity checks still apply");
    return;
  }
  const double gl = g->at("train_loss").as_double();
  const double loss = x.losses.back();
  c.add("golden.train_loss", std::fabs(loss - gl) <= kLossTol * std::fabs(gl),
        ops, "measured " + json::Value(loss).dump() + " recorded " +
                 json::Value(gl).dump());
  for (const auto& [key, got] : gated_counters(*o.workload, x)) {
    const std::int64_t want = g->at(key).as_int64();
    c.add(std::string("golden.") + key, got == want, ops,
          "measured " + std::to_string(got) + " recorded " +
              std::to_string(want));
  }
  if (!o.workload->serve) return;
  const auto& preds = g->at("predictions").items();
  std::size_t diff = preds.size();
  if (preds.size() == x.predictions.size()) {
    diff = 0;
    for (std::size_t i = 0; i < preds.size(); ++i)
      diff += preds[i].as_int64() != x.predictions[i] ? 1 : 0;
  }
  c.add("golden.predictions",
        static_cast<double>(diff) <=
            kPredictionTol * static_cast<double>(preds.size()),
        ops, std::to_string(diff) + " of " + std::to_string(preds.size()) +
                 " differ");
}

// ------------------------------------------------------------------ output

/// Wall time of a fixed integer loop run on every CPU at once, median of
/// three: the host's speed when the run started. On a shared virtual
/// machine it moves with the neighbours' load, and every time metric moves
/// with it, so each row carries it as provenance.
double host_reference_ms() {
  const unsigned lanes = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> sinks(lanes);
    const double t0 = now_s();
    for (unsigned t = 0; t < lanes; ++t)
      threads.emplace_back([&sinks, t] {
        std::uint64_t x = t + 1;
        for (int i = 0; i < 20'000'000; ++i)
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sinks[t] = x;
      });
    for (auto& th : threads) th.join();
    times.push_back((now_s() - t0) * 1e3);
  }
  return median(times);
}

json::Value provenance(const Options& o, double host_ms) {
  json::Value p = json::Value::object();
  p.set("git_sha", o.git_sha);
  p.set("src_digest", o.src_digest);
  p.set("build_type", BENCH_BUILD_TYPE);
  p.set("cxx_flags", BENCH_CXX_FLAGS);
  p.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  p.set("ranks", kParts);
  p.set("lanes", 1);
  p.set("transport", comm::transport_kind_name(o.workload->transport));
  p.set("host_reference_ms", host_ms);
  return p;
}

struct Result {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  std::string source;  // how the value was obtained
};

int run(const Options& o) {
  const Workload& w = *o.workload;
  api::ServeConfig scfg;
  scfg.batch_size = kBatchSize;
  scfg.num_batches = w.serve_batches;
  scfg.seed = o.seed + 7;
  const api::RunConfig base = run_config(w, o.seed);
  Loop lp{w, base, scfg, SharedEpochs(base.trainer.epochs), std::nullopt, 0.0};
  const api::RunConfig& cfg = lp.cfg;

  const double host_ms = o.record_golden ? 0.0 : host_reference_ms();
  Tracer tracer(o.trace == 1);
  std::vector<Iteration> iters;
  Checks checks;
  int attempted = 0;

  // ---- measured loop: fresh set-up + one call per iteration, while the
  // next one is expected to end within half an iteration of the budget
  // (at least one), so runs last --seconds on average.
  const double t_start = now_s();
  double last_wall = 0.0;
  try {
    for (int k = 0;; ++k) {
      if (k > 0 && (now_s() - t_start) + 0.5 * last_wall > o.seconds) break;
      Iteration x = w.serve ? serve_iteration(lp, k == 0, tracer)
                            : train_iteration(lp, !o.record_golden, tracer);
      attempted += x.ops;
      last_wall = x.wall_s;
      iters.push_back(std::move(x));
      if (o.record_golden) break;
    }
  } catch (const std::exception& e) {
    const int lost = cfg.trainer.epochs + (w.serve ? scfg.num_batches
                                                   : kDeployEpochs +
                                                         kDeployBatches);
    attempted += lost;
    checks.add("iteration", false, lost, e.what());
  }
  const double loop_trace_s = tracer.self_s();
  const int loop_ops = attempted;

  if (o.record_golden) {
    if (iters.empty() || !checks.all_ok) {
      std::fprintf(stderr, "bnsgcn_benchmark: iteration failed\n");
      return 1;
    }
    json::Value v = json::Value::object();
    v.set("golden", golden_entry(w, iters[0]));
    std::printf("%s\n", v.dump().c_str());
    return 0;
  }

  // ---- correctness: per-iteration determinism, golden record, answers.
  if (!iters.empty()) {
    const Iteration& first = iters[0];
    for (std::size_t k = 1; k < iters.size(); ++k)
      checks.add("deterministic.iteration" + std::to_string(k),
                 same_run(first, iters[k]), iters[k].ops,
                 "losses, byte counters and answers bit-equal to iteration 0");
    int all_ops = 0;
    for (const auto& x : iters) all_ops += x.ops;
    try {
      check_golden(o, first, all_ops, checks);
    } catch (const std::exception& e) {
      checks.add("golden", false, all_ops, e.what());
    }
    for (std::size_t k = 0; k < iters.size(); ++k)
      checks.add("answered.iteration" + std::to_string(k),
                 all_answered(iters[k], iters[k].batches * kBatchSize),
                 iters[k].batches, "every query answered with a class");
  }

  // ---- parity: the serving workload re-serves its first batches on the
  // in-process mailbox, whose answers must be bit-identical.
  if (w.serve && lp.su.has_value() && !iters.empty()) {
    api::RunConfig c2 = cfg;
    c2.comm.transport = comm::TransportKind::kMailbox;
    api::ServeConfig s2 = scfg;
    s2.num_batches = 2;
    s2.record_logits = true;
    attempted += c2.trainer.epochs + s2.num_batches;
    const int span = tracer.open("parity.serve");
    try {
      const api::ServeReport r = api::serve(lp.su->ds, lp.su->part, c2, s2);
      const Iteration& first = iters[0];
      const std::size_t n = r.logits.size();
      bool same =
          n == static_cast<std::size_t>(s2.num_batches * kBatchSize *
                                        first.num_classes) &&
          first.logits.size() >= n &&
          std::equal(r.queries.begin(), r.queries.end(), first.queries.begin());
      for (std::size_t i = 0; same && i < n; ++i)
        same = std::bit_cast<std::uint32_t>(r.logits[i]) ==
               std::bit_cast<std::uint32_t>(first.logits[i]);
      checks.add("parity.mailbox_vs_uds", same, s2.num_batches,
                 "first batches' logits bit-identical to a mailbox serve");
    } catch (const std::exception& e) {
      checks.add("parity.serve", false, c2.trainer.epochs + s2.num_batches,
                 e.what());
    }
    tracer.close(span);
  }
  std::vector<double> latencies;
  std::int64_t served_queries = 0;
  for (const auto& x : iters) {
    latencies.insert(latencies.end(), x.latency_s.begin(), x.latency_s.end());
    served_queries += static_cast<std::int64_t>(x.queries.size());
  }

  // ---- metrics.
  std::vector<double> setup, epochs, dataset, partition;
  for (const auto& x : iters) {
    setup.push_back(x.setup_s);
    dataset.push_back(x.dataset_s);
    partition.push_back(x.partition_s);
    epochs.insert(epochs.end(), x.epoch_s.begin(), x.epoch_s.end());
  }
  double busy = 0.0;
  for (const double l : latencies) busy += l;
  const double epoch_med = median(epochs);
  const double p50 = median(latencies);

  std::vector<Result> results;
  const auto sample_row = [&](const char* name, const char* unit,
                              const std::vector<double>& values) {
    json::Value v = json::Value::object();
    v.set("row", "samples");
    v.set("name", name);
    v.set("unit", unit);
    json::Value arr = json::Value::array();
    for (const double x : values) arr.push_back(x);
    v.set("values", std::move(arr));
    checks.rows.push_back(std::move(v));
  };
  if (o.trace == 0) {
    std::vector<double> eval_epochs;
    for (const auto& x : iters) eval_epochs.push_back(x.eval_epoch_s);
    sample_row("setup_s", "s", setup);
    sample_row("epoch_s", "s", epochs);
    sample_row("eval_epoch_s", "s", eval_epochs);
    sample_row("serve_latency_s", "s", latencies);
    results.push_back({"setup_s", median(setup), "s", setup.size(),
                       "driver wall clock"});
    results.push_back({"epoch_s", epoch_med, "s", epochs.size(),
                       "driver wall clock between observer stamps"});
    results.push_back({"train_loss",
                       iters.empty() ? 0.0 : iters[0].losses.back(), "loss",
                       iters.size(), "RunReport/observer loss after the fixed "
                                     "epoch count"});
    results.push_back({"peak_rss_mb", lp.peak_rss_mb, "MB", 1,
                       w.transport == comm::TransportKind::kMailbox
                           ? "getrusage(RUSAGE_SELF)"
                           : "getrusage(RUSAGE_CHILDREN)"});
    results.push_back({"serve_p50_ms", p50 * 1e3, "ms", latencies.size(),
                       "rank-0 wall clock per batch (ServeBatchStats)"});
    results.push_back({"serve_qps", busy > 0 ? served_queries / busy : 0.0,
                       "1/s", latencies.size(),
                       "queries / summed batch wall clock"});
  } else if (lp.su.has_value() && !iters.empty()) {
    const int span = tracer.open("probes");
    std::vector<Metric> probes;
    try {
      probes = run_probes(w, cfg, lp.su->ds, lp.su->part, tracer, span);
    } catch (const std::exception& e) {
      checks.add("probes", false, 1, e.what());
      ++attempted;
    }
    tracer.close(span);
    const auto find = [&](const char* name) {
      for (const auto& m : probes)
        if (m.name == name) return m.value;
      return 0.0;
    };
    const Iteration& first = iters[0];
    const double ne = static_cast<double>(first.losses.size());
    std::int64_t hit_rows = 0, miss_rows = 0;
    for (const auto& x : iters) {
      hit_rows += x.cache_hit_rows;
      miss_rows += x.cache_miss_rows;
    }
    // 0 when the served batches ran with the cache off (training deploys).
    results.push_back({"core.serve_cache_hit_rate",
                       hit_rows + miss_rows > 0
                           ? static_cast<double>(hit_rows) /
                                 static_cast<double>(hit_rows + miss_rows)
                           : 0.0,
                       "ratio", latencies.size(),
                       "ServeBatchStats cache counters of the measured loop"});
    results.push_back({"graph.make_dataset_s", median(dataset), "s",
                       dataset.size(), "driver wall clock"});
    results.push_back({"partition.partition_s", median(partition), "s",
                       partition.size(), "driver wall clock"});
    for (const auto& m : probes)
      results.push_back({m.name, m.value, m.unit, m.samples, "driver probe"});
    results.push_back({"comm.feature_mb_per_epoch",
                       static_cast<double>(first.feature_bytes) / ne / 1e6,
                       "MB", first.losses.size(), "RunReport byte counters"});
    results.push_back({"comm.grad_mb_per_epoch",
                       static_cast<double>(first.grad_bytes) / ne / 1e6, "MB",
                       first.losses.size(), "RunReport byte counters"});
    results.push_back({"comm.control_mb_per_epoch",
                       static_cast<double>(first.control_bytes) / ne / 1e6,
                       "MB", first.losses.size(), "RunReport byte counters"});
    // One operation (a training epoch, or a served batch) minus the parts
    // the probes timed for it.
    const bool uds = w.transport != comm::TransportKind::kMailbox;
    double parts = find("nn.sage_forward_s");
    if (!w.serve) parts += find("nn.sage_backward_s");
    if (!w.serve && w.sample_rate < 1.0f) parts += find("core.sample_s");
    if (w.cache_mb > 0) parts += find("core.cache_step_s");
    if (uds) parts += find("comm.halo_exchange_s");
    if (uds && !w.serve) parts += find("comm.allreduce_s");
    results.push_back({"api.unattributed_s",
                       (w.serve ? p50 : epoch_med) - parts, "s", 1,
                       "measured operation minus probed parts"});
    // The traced run's own operation median: minus the untraced run's
    // epoch_s (or serve_p50_ms) it is the tracing overhead as seen end to
    // end. The tracer records spans only between calls into the library,
    // from stamps it already holds, so its direct cost per operation is
    // also reported.
    results.push_back({"api.traced_op_s", w.serve ? p50 : epoch_med, "s",
                       w.serve ? latencies.size() : epochs.size(),
                       "driver wall clock, tracing on"});
    results.push_back({"api.trace_overhead_s",
                       loop_ops > 0 ? loop_trace_s / loop_ops : 0.0, "s",
                       static_cast<std::size_t>(loop_ops),
                       "driver wall clock inside the tracer, per operation"});
    const std::string path = std::string(kTraceDir) + "/trace-" + w.name +
                             "-seed" + std::to_string(o.seed) + ".json";
    tracer.write_chrome(path);
    json::Value v = json::Value::object();
    v.set("row", "trace");
    v.set("path", path);
    v.set("spans", static_cast<std::int64_t>(tracer.spans().size()));
    checks.rows.push_back(std::move(v));
  }

  // ---- print: one row per check and per metric, then the summary line.
  for (const auto& row : checks.rows) std::printf("%s\n", row.dump().c_str());
  const json::Value prov = provenance(o, host_ms);
  json::Value metrics = json::Value::object();
  for (const auto& r : results) {
    json::Value v = json::Value::object();
    v.set("row", "metric");
    v.set("workload", w.name);
    v.set("seed", static_cast<std::int64_t>(o.seed));
    v.set("name", r.name);
    v.set("value", r.value);
    v.set("unit", r.unit);
    v.set("samples", static_cast<std::int64_t>(r.samples));
    v.set("timing_source", r.source);
    v.set("provenance", prov);
    std::printf("%s\n", v.dump().c_str());
    json::Value m = json::Value::object();
    m.set("value", r.value);
    m.set("unit", r.unit);
    metrics.set(r.name, std::move(m));
  }
  const bool correct = checks.all_ok && !iters.empty();
  json::Value summary = json::Value::object();
  summary.set("correct", correct);
  summary.set("attempted", attempted);
  summary.set("failed", std::min(checks.failed, attempted));
  summary.set("metrics", std::move(metrics));
  std::printf("%s\n", summary.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
  if (BENCH_INSTRUMENTED || kSanitized || bnsgcn::kCheckedBuild) {
    std::fprintf(stderr,
                 "bnsgcn_benchmark: refusing to record from an instrumented "
                 "(sanitizer or checked) build\n");
    return 3;
  }
  // Forked ranks inherit the driver's resident pages. Handing freed heap
  // back to the OS right before every fork (including the ones inside
  // api::run / api::serve) makes a rank's peak RSS count what the driver
  // still holds, not the partitioner's or an in-process training's scratch.
  ::pthread_atfork([] { ::malloc_trim(0); }, nullptr, nullptr);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bnsgcn_benchmark: %s\n", e.what());
    return 1;
  }
}
