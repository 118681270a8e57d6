// Ablation A8: the zero-sum game, measured directly with a heterogeneous
// population (Section 3). Five clients whose interests center on
// different parts of the database share one broadcast; we sweep the
// server's skew (Delta) and report each client's response time plus
// population mean and spread — first without caches, then with PIX
// caches, the paper's remedy.

#include <iostream>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/multi_client.h"
#include "pop/engine.h"

namespace bcast {
namespace {

MultiClientParams Population(bool cached) {
  MultiClientParams params;
  params.disk_sizes = {500, 2000, 2500};
  params.measured_requests = bench::MeasuredRequests(40000);
  // Interests spread across the database; client 0 matches the server's
  // hot ranking exactly, client 4 wants the coldest physical region.
  for (uint64_t shift : {0ull, 500ull, 1500ull, 2500ull, 4000ull}) {
    ClientSpec spec;
    spec.interest_shift = shift;
    spec.cache_size = cached ? 500 : 1;
    spec.policy = cached ? PolicyKind::kPix : PolicyKind::kLru;
    params.clients.push_back(spec);
  }
  return params;
}

void RunOne(bool cached) {
  std::cout << (cached ? "\nWith 500-page PIX caches:\n"
                       : "\nNo client caches:\n");
  AsciiTable table({"Delta", "Client0", "Client1", "Client2", "Client3",
                    "Client4", "PopMean", "Max/Min"});
  for (uint64_t delta : {0, 1, 2, 3, 4, 5}) {
    MultiClientParams params = Population(cached);
    params.delta = delta;
    auto result = pop::RunPopulationSimulation(params, pop::PopParams{});
    BCAST_CHECK(result.ok()) << result.status().ToString();
    std::vector<std::string> row{std::to_string(delta)};
    for (double rt : result->mean_response_times) {
      row.push_back(FormatDouble(rt, 0));
    }
    row.push_back(FormatDouble(result->response_across_clients.mean(), 0));
    row.push_back(FormatDouble(result->response_across_clients.max() /
                                   result->response_across_clients.min(),
                               2));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
}

void Run() {
  bench::Banner("Ablation A8", "the zero-sum game: one broadcast, five "
                               "clients with shifted interests");
  RunOne(/*cached=*/false);
  RunOne(/*cached=*/true);
  std::cout << "\nExpected: without caches, raising Delta helps the "
               "aligned client and taxes the\nshifted ones (Max/Min "
               "explodes). With cost-based caches every client improves\n"
               "4-5x and the fairness spread shrinks markedly — caching is "
               "what makes skewed\nbroadcasts viable for a population.\n";
}

}  // namespace
}  // namespace bcast

int main() {
  bcast::Run();
  return 0;
}
