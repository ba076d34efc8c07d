// DIMACS max-flow format I/O ("p max", "n", "a" lines), the de-facto
// interchange format for max-flow benchmarks. Vertices are 1-based on disk
// and 0-based in memory.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/network.hpp"

namespace aflow::graph {

/// Parses a DIMACS max-flow problem in one pass: a reused line buffer with
/// std::from_chars field parsing and the edge list preallocated from the
/// problem line, so a million-node instance loads at 16 bytes per edge.
/// Self loops and non-positive capacities are dropped; the declared arc
/// count must still match the a-lines seen. Throws std::runtime_error
/// naming the offending 1-based line on malformed input (missing or
/// duplicate problem line, node designators or arc endpoints outside
/// 1..N, duplicate terminals, truncation, ...). Refuses a problem line
/// declaring 2^31 - 1 arcs or more before reading any arc.
FlowNetwork read_dimacs(std::istream& in);
FlowNetwork read_dimacs_file(const std::string& path);

/// Forwards to read_dimacs_file; kept for perfbench/layers.cpp.
FlowNetwork read_dimacs_stream_file(const std::string& path);

/// Writes `net` in DIMACS max-flow format.
void write_dimacs(std::ostream& out, const FlowNetwork& net);
void write_dimacs_file(const std::string& path, const FlowNetwork& net);

} // namespace aflow::graph
