// Batch workload construction: turn a DIMACS file / directory or a compact
// generator spec string into a vector of FlowNetwork instances for the
// BatchEngine. Shared by aflow_cli, the batch bench, and the tests.
//
// Spec grammar (';'-separated sources, each `kind:key=val,key=val,...`):
//   grid:side=31,count=32,seed=1,cap=16,neighbor=4
//   grid:height=24,width=40,count=8,seed=9
//   rmat_sparse:n=1000,degree=8,count=32,seed=7
//   rmat_dense:n=480,count=4,seed=7
//   layered:layers=6,width=20,fanout=4,cap=32,count=4,seed=5
//   uniform:n=500,m=2500,cap=64,count=4,seed=11
//   gridflow:height=1000,width=1000,cap=64,seed=3
// `count` (default 1) emits that many instances with seeds seed, seed+1, ...
// `vary=K` (default 1, any generator kind) replaces each generated instance
// by K same-topology capacity variants (see capacity_variants) — the
// reconfiguration-batch shape of the paper: one crossbar topology, many
// programmed conductance sets, e.g. grid:side=13,seed=5,vary=64.
// A source that names an existing file is read as one DIMACS instance; a
// directory contributes every *.dimacs / *.max file in it, sorted by name.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/network.hpp"

namespace aflow::core {

/// Reads every DIMACS instance (*.dimacs, *.max) in `dir`, sorted by
/// filename. Throws std::invalid_argument when the directory does not exist
/// or contains no instances.
std::vector<graph::FlowNetwork> load_dimacs_dir(const std::string& dir);

/// Expands a workload spec (grammar above): each ';'-separated source is a
/// DIMACS file, a directory of instances, or a generator spec, so a bare
/// path is a spec too. Throws std::invalid_argument on unknown kinds,
/// unknown keys, or malformed key=value lists.
std::vector<graph::FlowNetwork> load_batch(const std::string& spec_or_path);

/// Writes the single instance described by `spec` (one source, count=1) as a
/// DIMACS file at `path`. The gridflow kind is emitted directly from its
/// generator walk in O(1) memory — the way to put a million-node instance on
/// disk for `aflow solve --shards` without ever materialising it — while the
/// other kinds materialise the FlowNetwork and write it out.
void write_spec_dimacs(const std::string& spec, const std::string& path);

/// The capacity factors of capacity_variants: i.i.d. uniform on [0.5, 1.5]
/// from one stream seeded by `seed`, drawn edge by edge, variant by variant.
/// Serve's `reconfigure --seed K` scales the capacities as loaded by the
/// first m factors of stream K, so it answers as capacity_variants(loaded,
/// 2, K)[1] without building either variant.
class CapacityFactors {
 public:
  explicit CapacityFactors(std::uint64_t seed) : rng_(seed) {}
  double next() { return factor_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> factor_{0.5, 1.5};
};

/// Reconfiguration batch: `count` same-topology copies of `base` with every
/// capacity rescaled by a CapacityFactors draw (seeded, deterministic).
/// Variant 0 is `base` unchanged. Same graph, same MNA pattern, new values
/// — the substrate's reprogramming scenario and the natural workload for
/// the cross-instance warm-start layer.
std::vector<graph::FlowNetwork> capacity_variants(
    const graph::FlowNetwork& base, int count, std::uint64_t seed);

} // namespace aflow::core
