// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Side-by-side comparison of SAE and TOM on one dataset: a miniature version
// of the paper's whole evaluation (Figs. 5-8) on laptop-friendly scale.
//
//   $ ./examples/outsourcing_comparison [cardinality]

#include <cstdio>
#include <cstdlib>

#include "core/system.h"
#include "sim/cost_model.h"
#include "workload/dataset.h"
#include "workload/queries.h"

using namespace sae;

int main(int argc, char** argv) {
  size_t n = 20000;
  if (argc > 1) {
    char* end = nullptr;
    n = size_t(std::strtoull(argv[1], &end, 10));
    if (argc > 2 || end == argv[1] || *end != '\0' || argv[1][0] == '-' ||
        n == 0) {
      std::fprintf(stderr, "usage: %s [cardinality > 0]\n", argv[0]);
      return 2;
    }
  }
  constexpr size_t kRecSize = 500;
  constexpr uint32_t kDomain = 10'000'000;

  workload::DatasetSpec spec;
  spec.cardinality = n;
  spec.record_size = kRecSize;
  spec.domain_max = kDomain;
  auto records = workload::GenerateDataset(spec);
  std::printf("dataset: %zu records x %zu bytes, uniform keys in [0, 10^7]\n\n",
              n, kRecSize);

  core::SaeSystem::Options sae_options;
  sae_options.record_size = kRecSize;
  core::SaeSystem sae_system(sae_options);
  if (!sae_system.Load(records).ok()) return 1;

  core::TomSystem::Options tom_options;
  tom_options.record_size = kRecSize;
  core::TomSystem tom_system(tom_options);
  if (!tom_system.Load(records).ok()) return 1;

  workload::QueryWorkloadSpec qspec;
  qspec.count = 50;
  qspec.extent_fraction = 0.005;
  qspec.domain_max = kDomain;
  auto queries = workload::GenerateQueries(qspec);

  sim::CostModel cost;  // the paper's 10 ms / node access
  double sae_sp_ms = 0, sae_te_ms = 0, tom_sp_ms = 0;
  double sae_client_ms = 0, tom_client_ms = 0;
  uint64_t sae_auth_bytes = 0, tom_auth_bytes = 0;
  size_t results = 0;

  for (const auto& q : queries) {
    auto sae = sae_system.Query(q.lo, q.hi).value();
    auto tom = tom_system.Query(q.lo, q.hi).value();
    if (!sae.verification.ok() || !tom.verification.ok()) {
      std::fprintf(stderr, "verification failed unexpectedly\n");
      return 1;
    }
    results += sae.results.size();
    sae_sp_ms += cost.AccessCostMs(sae.costs.sp_index_accesses +
                                   sae.costs.sp_heap_accesses);
    sae_te_ms += cost.AccessCostMs(sae.costs.te_accesses);
    tom_sp_ms += cost.AccessCostMs(tom.costs.sp_index_accesses +
                                   tom.costs.sp_heap_accesses);
    sae_client_ms += sae.costs.client_verify_ms;
    tom_client_ms += tom.costs.client_verify_ms;
    sae_auth_bytes += sae.costs.auth_bytes;
    tom_auth_bytes += tom.costs.auth_bytes;
  }
  double nq = double(queries.size());

  std::printf("averages over %zu range queries (extent 0.5%% of domain, "
              "avg %.0f results):\n\n",
              queries.size(), double(results) / nq);
  std::printf("%-34s %14s %14s\n", "metric", "SAE", "TOM");
  std::printf("%-34s %14s %14s\n", "------", "---", "---");
  std::printf("%-34s %14.1f %14.1f\n", "SP processing [ms, 10ms/access]",
              sae_sp_ms / nq, tom_sp_ms / nq);
  std::printf("%-34s %14.1f %14s\n", "TE processing [ms, 10ms/access]",
              sae_te_ms / nq, "-");
  std::printf("%-34s %14.0f %14.0f\n", "auth traffic [bytes/query]",
              double(sae_auth_bytes) / nq, double(tom_auth_bytes) / nq);
  std::printf("%-34s %14.3f %14.3f\n", "client verification [ms]",
              sae_client_ms / nq, tom_client_ms / nq);
  std::printf("%-34s %14.1f %14.1f\n", "SP storage [MB]",
              sae_system.sp().StorageBytes() / 1048576.0,
              tom_system.sp().StorageBytes() / 1048576.0);
  std::printf("%-34s %14.2f %14s\n", "TE storage [MB]",
              sae_system.te().StorageBytes() / 1048576.0, "-");
  std::printf("%-34s %14s %14.1f\n", "DO-side ADS [MB]", "-",
              tom_system.owner().AdsStorageBytes() / 1048576.0);

  bool sae_wins = sae_sp_ms < tom_sp_ms && sae_auth_bytes < tom_auth_bytes &&
                  sae_client_ms < tom_client_ms &&
                  sae_system.sp().StorageBytes() <
                      tom_system.sp().StorageBytes();
  if (sae_wins) {
    std::printf("\nSAE is lower than TOM on every metric both report.\n");
  }
  return 0;
}
