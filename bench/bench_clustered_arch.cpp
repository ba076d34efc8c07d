// Sec. 6.2 (Fig. 11): clustered island-style architectures. Map sparse
// R-MAT graphs onto a monolithic crossbar, a 1-D island array with a shared
// channel, and a 2-D island grid with switch boxes; report utilisation,
// minimum channel width, wirelength and mapping time.
#include "arch/clustered.hpp"
#include "bench_util.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace aflow;
  const util::Flag flags[] = {{"--island", "N"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  bench::banner("Sec. 6.2 / Fig. 11 — clustered architectures vs monolithic crossbar");

  const int island = args.number("--island", 32);
  std::printf("island capacity: %d vertices (a %dx%d local crossbar per island)\n\n",
              island, island, island);
  std::printf("%6s %7s | %10s | %8s %7s %7s | %8s %7s %7s | %9s\n", "|V|",
              "|E|", "mono util", "1D util", "1D Wmin", "1D wire", "2D util",
              "2D Wmin", "2D wire", "map time");
  bench::rule(' ', 0);
  bench::rule();
  for (int n : {128, 256, 512, 1000}) {
    const auto g = graph::rmat_sparse(n, 11);
    arch::ArchSpec d1;
    d1.island_capacity = island;
    d1.channel_width = 1 << 20;
    arch::ArchSpec d2 = d1;
    d2.style = arch::RoutingStyle::kGrid2D;
    d2.grid_columns = std::max(2, (n / island) / 4);

    const auto m1 = arch::map_to_islands(g, d1, 11);
    const auto m2 = arch::map_to_islands(g, d2, 11);
    std::printf("%6d %7d | %10.4f | %8.4f %7d %7lld | %8.4f %7d %7lld | %8.3fs\n",
                n, g.num_edges(), m1.monolithic_utilization,
                m1.clustered_utilization, m1.required_channel_width,
                m1.total_wirelength, m2.clustered_utilization,
                m2.required_channel_width, m2.total_wirelength,
                m1.mapping_seconds + m2.mapping_seconds);
  }
  bench::rule();
  std::printf("shape checks (paper's hypotheses): clustering recovers the "
              "utilisation a monolithic\ncrossbar wastes on sparse graphs; "
              "the 1-D shared channel needs monotonically more tracks\nthan "
              "the 2-D switch-box fabric as graphs grow; 1-D maps faster "
              "(no 2-D placement).\n");
  return 0;
}
