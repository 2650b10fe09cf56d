#include "probes.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "api/multiprocess.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace bench {

using namespace bnsgcn;

namespace {

constexpr int kReps = 5;    // repetitions behind every probe median
constexpr int kRounds = 5;  // sampled epochs / cache exchange rounds

/// Deterministic fill in [-1, 1): probe timings must not depend on values,
/// but the kernels should not see denormals or all-zero rows either.
Matrix filled(std::int64_t rows, std::int64_t cols, std::uint32_t salt) {
  Matrix m(rows, cols);
  std::uint32_t x = 2463534242u ^ salt;
  for (float& f : m.flat()) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    f = static_cast<float>(x >> 8) / static_cast<float>(1u << 23) - 1.0f;
  }
  return m;
}

/// Per-layer input/output widths of the workload's SAGE stack.
struct Dims {
  std::vector<std::int64_t> in, out;
};

Dims layer_dims(const core::TrainerConfig& tcfg, const Dataset& ds) {
  Dims d;
  for (int l = 0; l < tcfg.num_layers; ++l) {
    d.in.push_back(l == 0 ? ds.feat_dim() : tcfg.hidden);
    d.out.push_back(l == tcfg.num_layers - 1 ? ds.num_classes : tcfg.hidden);
  }
  return d;
}

/// Plans the other probes run on, produced by the sampler probe.
struct SamplerOutcome {
  double rank0_median_s = 0.0;
  std::vector<core::EpochPlan> per_rank;     // one plan per rank
  std::vector<core::EpochPlan> rank0_rounds; // rank 0's plan per round
};

/// core.sample_s: what one epoch's plan costs rank 0. Below p=1 that is
/// BoundarySampler::sample_epoch, whose index negotiation needs every
/// rank, so all ranks run as threads over a mailbox fabric. At p=1 the
/// trainer uses the structural full plan. Serving always uses the full
/// plan, so a serve workload hands the full plans on to the other probes.
SamplerOutcome probe_sampler(const Workload& w, const core::TrainerConfig& tcfg,
                             const std::vector<core::LocalGraph>& lgs) {
  const bool sampled = w.sample_rate < 1.0f;
  comm::Fabric fabric(kParts);
  SamplerOutcome out;
  out.per_rank.resize(kParts);
  std::vector<double> rank0_times;
  std::vector<std::exception_ptr> errors(kParts);
  std::vector<std::thread> threads;
  for (PartId r = 0; r < kParts; ++r) {
    threads.emplace_back([&, r] {
      try {
        const auto& lg = lgs[static_cast<std::size_t>(r)];
        core::BoundarySampler::Options so;
        so.rate = w.sample_rate;
        so.seed = tcfg.seed * 131 + static_cast<std::uint64_t>(r);
        core::BoundarySampler sampler(lg, so);
        auto& ep = fabric.endpoint(r);
        for (int k = 0; k < kRounds; ++k) {
          const double t0 = now_s();
          core::EpochPlan plan =
              sampled ? sampler.sample_epoch(ep, k) : sampler.full_plan();
          const double t1 = now_s();
          if (w.serve) plan = sampler.full_plan();
          if (r == 0) {
            rank0_times.push_back(t1 - t0);
            out.rank0_rounds.push_back(plan);
          }
          out.per_rank[static_cast<std::size_t>(r)] = std::move(plan);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        fabric.shutdown(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  out.rank0_median_s = median(rank0_times);
  return out;
}

/// tensor.*: one epoch's worth of each hot kernel on rank 0's shapes (one
/// call per layer), with its operation count and the bytes it must move.
void probe_kernels(const Dims& dims, const core::EpochPlan& plan,
                   std::span<const float> inv_deg, std::vector<Metric>& out) {
  const std::int64_t n_dst = plan.adj.n_dst;
  const std::int64_t n_src = plan.adj.n_src;
  const auto nnz = static_cast<double>(plan.adj.num_edges());
  const std::size_t L = dims.in.size();
  std::vector<Matrix> u, w, dz, src;
  for (std::size_t l = 0; l < L; ++l) {
    const auto salt = static_cast<std::uint32_t>(l);
    u.push_back(filled(n_dst, 2 * dims.in[l], salt));
    w.push_back(filled(2 * dims.in[l], dims.out[l], salt + 11));
    dz.push_back(filled(n_dst, dims.out[l], salt + 23));
    src.push_back(filled(n_src, dims.in[l], salt + 37));
  }
  double nn_ops = 0, nn_bytes = 0, tn_ops = 0, tn_bytes = 0;
  double agg_ops = 0, agg_bytes = 0;
  for (std::size_t l = 0; l < L; ++l) {
    const double m = static_cast<double>(n_dst);
    const double k = static_cast<double>(2 * dims.in[l]);
    const double n = static_cast<double>(dims.out[l]);
    const double d = static_cast<double>(dims.in[l]);
    nn_ops += 2 * m * k * n;
    nn_bytes += 4 * (m * k + k * n + m * n);
    tn_ops += 2 * m * k * n;
    tn_bytes += 4 * (m * k + m * n + k * n);
    agg_ops += nnz * d + m * d;
    agg_bytes += 4 * (nnz * d + m * d + nnz + m);
  }
  std::vector<double> t_nn, t_tn, t_agg;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_s();
    for (std::size_t l = 0; l < L; ++l) {
      Matrix c(n_dst, dims.out[l]);
      ops::gemm_nn(u[l], w[l], c);
    }
    t_nn.push_back(now_s() - t0);
    t0 = now_s();
    for (std::size_t l = 0; l < L; ++l) {
      Matrix c(2 * dims.in[l], dims.out[l]);
      ops::gemm_tn(u[l], dz[l], c);
    }
    t_tn.push_back(now_s() - t0);
    t0 = now_s();
    for (std::size_t l = 0; l < L; ++l) {
      Matrix z(n_dst, dims.in[l]);
      nn::mean_aggregate(plan.adj, src[l], inv_deg, z);
    }
    t_agg.push_back(now_s() - t0);
  }
  out.push_back({"tensor.gemm_nn_s", median(t_nn), "s", kReps});
  out.push_back({"tensor.gemm_nn_ops", nn_ops, "count"});
  out.push_back({"tensor.gemm_nn_mb", nn_bytes / 1e6, "MB"});
  out.push_back({"tensor.gemm_tn_s", median(t_tn), "s", kReps});
  out.push_back({"tensor.gemm_tn_ops", tn_ops, "count"});
  out.push_back({"tensor.gemm_tn_mb", tn_bytes / 1e6, "MB"});
  out.push_back({"tensor.mean_aggregate_s", median(t_agg), "s", kReps});
  out.push_back({"tensor.mean_aggregate_ops", agg_ops, "count"});
  out.push_back({"tensor.mean_aggregate_mb", agg_bytes / 1e6, "MB"});
}

/// nn.*: rank 0's layer stack, forward then backward over its local graph
/// (the workload's plan). A serving workload's forward is the inference
/// forward (training=false); the backward is timed after a training one.
void probe_layers(const Workload& w, const core::TrainerConfig& tcfg,
                  const Dataset& ds, const Dims& dims,
                  const core::EpochPlan& plan, std::span<const float> inv_deg,
                  std::vector<Metric>& out) {
  auto layers = core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0);
  const std::size_t L = layers.size();
  std::vector<Matrix> feats, grads;
  for (std::size_t l = 0; l < L; ++l) {
    feats.push_back(filled(plan.adj.n_src, dims.in[l],
                           static_cast<std::uint32_t>(l) + 101));
    grads.push_back(filled(plan.adj.n_dst, dims.out[l],
                           static_cast<std::uint32_t>(l) + 211));
  }
  std::vector<double> t_fwd, t_bwd;
  for (int rep = 0; rep < kReps; ++rep) {
    double fwd = 0.0;
    for (std::size_t l = 0; l < L; ++l) {
      const double t0 = now_s();
      (void)layers[l]->forward(plan.adj, feats[l], inv_deg, !w.serve);
      fwd += now_s() - t0;
    }
    if (w.serve) {
      // Backward needs a training forward's caches.
      for (std::size_t l = 0; l < L; ++l)
        (void)layers[l]->forward(plan.adj, feats[l], inv_deg, true);
    }
    double bwd = 0.0;
    for (std::size_t l = L; l-- > 0;) {
      const double t0 = now_s();
      (void)layers[l]->backward(plan.adj, grads[l], inv_deg);
      bwd += now_s() - t0;
    }
    t_fwd.push_back(fwd);
    t_bwd.push_back(bwd);
  }
  out.push_back({"nn.sage_forward_s", median(t_fwd), "s", kReps});
  out.push_back({"nn.sage_backward_s", median(t_bwd), "s", kReps});
}

/// core.cache_*: rank 0's layer-0 send/recv directories, one per peer,
/// stepped with the position lists of successive plans at the workload's
/// budget (the serve budget for the training workloads, which run with
/// the cache off). The first round is cold and not counted. Alongside the
/// time: the largest per-peer request list (the working set a budget is
/// measured against) and the rows a warm round evicts. Serving requests
/// the same full plan every batch, so its directories fill in the cold
/// round and never evict.
void probe_cache(const Workload& w, const Dataset& ds,
                 const std::vector<core::EpochPlan>& rounds,
                 std::vector<Metric>& out) {
  const std::int64_t budget_mb = w.cache_mb > 0 ? w.cache_mb : 1;
  const auto cap = static_cast<NodeId>(
      budget_mb * (1 << 20) / (ds.feat_dim() * std::int64_t{4}));
  std::vector<core::HaloCacheDir> send_dirs(kParts, core::HaloCacheDir(cap));
  std::vector<core::HaloCacheDir> recv_dirs(kParts, core::HaloCacheDir(cap));
  std::vector<double> warm;
  std::int64_t hits = 0, misses = 0, evictions = 0;
  std::size_t working_set = 0;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const auto& plan = rounds[k];
    std::int64_t h = 0, m = 0, ev = 0;
    const double t0 = now_s();
    for (std::size_t j = 1; j < static_cast<std::size_t>(kParts); ++j) {
      const NodeId free_slots = cap - recv_dirs[j].size();
      (void)send_dirs[j].step(plan.send_pos[j], static_cast<int>(k), -1);
      const core::CacheStep cs =
          recv_dirs[j].step(plan.recv_pos[j], static_cast<int>(k), -1);
      h += cs.hits;
      m += cs.misses;
      // Layer-0 rows never go stale, so every store is a new resident:
      // the ones beyond the free slots each replaced a victim.
      const auto stores = std::count(cs.action.begin(), cs.action.end(),
                                     core::CacheAction::kMissStore);
      ev += std::max<std::int64_t>(0, stores - free_slots);
    }
    const double dt = now_s() - t0;
    for (std::size_t j = 1; j < static_cast<std::size_t>(kParts); ++j)
      working_set = std::max(working_set, plan.recv_pos[j].size());
    if (k == 0) continue;
    warm.push_back(dt);
    hits += h;
    misses += m;
    evictions += ev;
  }
  out.push_back({"core.cache_step_s", median(warm), "s", warm.size()});
  out.push_back({"core.cache_hit_rate",
                 hits + misses > 0 ? static_cast<double>(hits) /
                                         static_cast<double>(hits + misses)
                                   : 0.0,
                 "ratio"});
  out.push_back({"core.cache_working_set_rows",
                 static_cast<double>(working_set), "count"});
  out.push_back({"core.cache_evictions",
                 warm.empty() ? 0.0
                              : static_cast<double>(evictions) /
                                    static_cast<double>(warm.size()),
                 "count", warm.size()});
}

/// comm.*: one epoch's boundary exchanges (forward per layer, plus the
/// backward gradient exchanges when training) at every rank's per-peer
/// slab sizes, and one allreduce of the model's parameter count, over a
/// forked UDS group. Rank 0 times both and ships the medians home. Slabs
/// are full width: a cached channel would ship fewer layer-0 rows.
void probe_comm(const Workload& w, const core::TrainerConfig& tcfg,
                const Dims& dims, const std::vector<core::EpochPlan>& plans,
                std::int64_t param_count, std::vector<Metric>& out) {
  const auto body = [&](comm::Fabric& fabric, PartId rank) -> std::string {
    auto& ep = fabric.endpoint(rank);
    const auto& plan = plans[static_cast<std::size_t>(rank)];
    int tag = 0;
    const auto exchange = [&](std::int64_t d, bool backward) {
      std::vector<comm::Request> reqs;
      std::vector<std::size_t> expect;
      for (PartId j = 0; j < kParts; ++j) {
        const auto jj = static_cast<std::size_t>(j);
        const std::size_t rx =
            backward ? plan.send_rows[jj].size() : plan.recv_slots[jj].size();
        if (j == rank || rx == 0) continue;
        reqs.push_back(ep.irecv_floats(j, tag, comm::TrafficClass::kFeature));
        expect.push_back(rx * static_cast<std::size_t>(d));
      }
      const std::size_t n_recv = reqs.size();
      for (PartId j = 0; j < kParts; ++j) {
        const auto jj = static_cast<std::size_t>(j);
        const std::size_t tx =
            backward ? plan.recv_slots[jj].size() : plan.send_rows[jj].size();
        if (j == rank || tx == 0) continue;
        reqs.push_back(ep.isend_floats(
            j, tag, std::vector<float>(tx * static_cast<std::size_t>(d), 1.0f),
            comm::TrafficClass::kFeature));
      }
      comm::wait_all(reqs);
      for (std::size_t i = 0; i < n_recv; ++i)
        BNSGCN_CHECK_MSG(reqs[i].take_floats().size() == expect[i],
                         "halo probe received a slab of the wrong size");
      ++tag;
    };
    std::vector<double> t_halo, t_ar;
    std::vector<float> grads(static_cast<std::size_t>(param_count), 1.0f);
    for (int rep = 0; rep < kReps; ++rep) {
      ep.barrier();
      double t0 = now_s();
      for (const std::int64_t d : dims.in) exchange(d, false);
      if (!w.serve)
        for (std::size_t l = 1; l < dims.in.size(); ++l)
          exchange(dims.in[l], true);
      t_halo.push_back(now_s() - t0);
      ep.barrier();
      t0 = now_s();
      ep.allreduce_sum(grads);
      t_ar.push_back(now_s() - t0);
    }
    if (rank != 0) return {};
    json::Value v = json::Value::object();
    v.set("halo", median(t_halo));
    v.set("allreduce", median(t_ar));
    return v.dump();
  };
  const json::Value res = json::Value::parse(
      api::run_ranks_piped(comm::TransportKind::kUds, kParts, tcfg.cost, body));
  out.push_back(
      {"comm.halo_exchange_s", res.at("halo").as_double(), "s", kReps});
  out.push_back(
      {"comm.allreduce_s", res.at("allreduce").as_double(), "s", kReps});
}

} // namespace

std::vector<Metric> run_probes(const Workload& w, const api::RunConfig& cfg,
                               const Dataset& ds, const Partitioning& part,
                               Tracer& tracer, int parent) {
  common::set_ops_threads(1);
  const core::TrainerConfig tcfg = api::engine_config(cfg);
  std::vector<Metric> out;
  const auto span = [&](const char* name, double t0) {
    tracer.add(name, t0, now_s(), parent);
  };

  // core.trainer_build_s, and the local graphs every later probe reads.
  std::vector<double> t_build;
  std::optional<core::BnsTrainer> trainer;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    trainer.emplace(ds, part, tcfg);
    t_build.push_back(now_s() - t0);
    span("core.trainer_build", t0);
  }
  const auto& lgs = trainer->local_graphs();

  std::int64_t boundary = 0;
  for (const auto& lg : lgs) boundary += lg.n_halo();
  std::int64_t cut_arcs = 0;
  for (NodeId u = 0; u < ds.graph.n; ++u)
    for (const NodeId v : ds.graph.neighbors(u))
      if (part.owner[static_cast<std::size_t>(u)] !=
          part.owner[static_cast<std::size_t>(v)])
        ++cut_arcs;
  out.push_back({"partition.boundary_nodes", static_cast<double>(boundary),
                 "count"});
  out.push_back({"partition.edge_cut", static_cast<double>(cut_arcs / 2),
                 "count"});
  out.push_back({"core.trainer_build_s", median(t_build), "s", t_build.size()});

  double t0 = now_s();
  const SamplerOutcome so = probe_sampler(w, tcfg, lgs);
  span("core.sample", t0);
  out.push_back({"core.sample_s", so.rank0_median_s, "s", kRounds});

  const Dims dims = layer_dims(tcfg, ds);
  const core::EpochPlan& plan0 = so.per_rank[0];
  const std::span<const float> inv_deg = lgs[0].inv_full_degree;
  t0 = now_s();
  probe_kernels(dims, plan0, inv_deg, out);
  span("tensor.kernels", t0);
  t0 = now_s();
  probe_layers(w, tcfg, ds, dims, plan0, inv_deg, out);
  span("nn.sage", t0);
  t0 = now_s();
  probe_cache(w, ds, so.rank0_rounds, out);
  span("core.cache_step", t0);

  std::int64_t param_count = 0;
  for (const auto& layer :
       core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0))
    for (Matrix* p : layer->params()) param_count += p->size();
  trainer.reset();
  t0 = now_s();
  probe_comm(w, tcfg, dims, so.per_rank, param_count, out);
  span("comm.exchange", t0);
  return out;
}

} // namespace bench
