// DIMACS max-flow format I/O ("p max", "n", "a" lines), the de-facto
// interchange format for max-flow benchmarks. Vertices are 1-based on disk
// and 0-based in memory.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/network.hpp"

namespace aflow::graph {

/// A malformed DIMACS text: every parse error read_dimacs throws. The
/// message names the offending 1-based line.
class DimacsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a DIMACS max-flow problem in one pass. The stream is read in
/// fixed 1 MiB blocks through std::istream::read and each line is parsed in
/// place in its block; only a line that straddles two blocks is first
/// joined in a side buffer. So the reader holds one block plus the longest
/// line, besides the edge list itself, which is preallocated from the
/// problem line at 16 bytes per edge. Vertex ids of up to 18 digits and
/// capacities of at most 15 plain decimal digits are converted exactly in
/// place; any other id goes through std::from_chars, any other capacity
/// through strtod.
///
/// Fields are strict: nothing but whitespace may follow a line's last
/// field, a node role is exactly 's' or 't', and an arc capacity must be a
/// decimal number (no hexadecimal; "inf" and "nan" are refused as
/// non-finite). Self loops and non-positive capacities are dropped; the
/// declared arc count must still match the a-lines seen. Throws DimacsError
/// naming the offending 1-based line on malformed input (missing or
/// duplicate problem line, node designators or arc endpoints outside
/// 1..N, duplicate terminals, truncation, ...), and refuses a problem line
/// declaring 2^31 - 1 arcs or more before reading any arc. A stream that
/// fails mid-read throws std::runtime_error.
FlowNetwork read_dimacs(std::istream& in);
FlowNetwork read_dimacs_file(const std::string& path);

/// Forwards to read_dimacs_file; kept for perfbench/layers.cpp.
FlowNetwork read_dimacs_stream_file(const std::string& path);

/// Writes `net` in DIMACS max-flow format.
void write_dimacs(std::ostream& out, const FlowNetwork& net);
void write_dimacs_file(const std::string& path, const FlowNetwork& net);

} // namespace aflow::graph
