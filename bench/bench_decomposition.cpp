// Sec. 6.4: dual decomposition. Split graphs that exceed one substrate into
// two overlapping regions and iterate subproblem min-cuts to global
// agreement.
#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"
#include "mincut/decomposition.hpp"

int main(int argc, char** argv) {
  using namespace aflow;
  const util::Flag flags[] = {{"--seeds", "N"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  bench::banner("Sec. 6.4 — dual decomposition of large instances");

  const int seeds = args.number("--seeds", 6);
  std::printf("%6s %6s %7s %10s %10s %7s %8s %8s %8s\n", "|V|", "|E|", "seed",
              "exact cut", "decomp", "iters", "agreed", "size M", "size N");
  bench::rule();
  int agreements = 0;
  int optimal = 0;
  int total = 0;
  for (int n : {200, 400, 800}) {
    for (int seed = 1; seed <= seeds / 2; ++seed) {
      const auto g = graph::rmat_sparse(n, seed);
      const auto exact = flow::min_cut_from_flow(g, core::solve("push_relabel", g));
      mincut::DecompositionOptions opt;
      opt.max_iterations = 80;
      const auto r = mincut::solve_by_decomposition(g, opt);
      ++total;
      agreements += r.agreed;
      optimal += std::abs(r.cut_value - exact.cut_value) < 1e-6;
      std::printf("%6d %6d %7d %10.0f %10.0f %7d %8s %8d %8d\n",
                  g.num_vertices(), g.num_edges(), seed, exact.cut_value,
                  r.cut_value, r.iterations, r.agreed ? "yes" : "no",
                  r.subproblem_vertices_m, r.subproblem_vertices_n);
    }
  }
  bench::rule();
  std::printf("overlap agreement on %d/%d instances; optimal merged cut on "
              "%d/%d.\nAgreement certifies optimality (strong duality, "
              "Sec. 6.4); disagreement cases carry the\nsubgradient plateau "
              "typical of dual decomposition on graphs with many optimal cuts.\n",
              agreements, total, optimal, total);
  return 0;
}
