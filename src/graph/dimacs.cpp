#include "graph/dimacs.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aflow::graph {

namespace {

const char* skip_ws(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

bool parse_i64(const char*& p, const char* end, std::int64_t& out) {
  p = skip_ws(p, end);
  const auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc()) return false;
  p = next;
  return true;
}

// The capacity field is the last token of an arc line and the line buffer is
// NUL-terminated, so strtod's unbounded scan is safe; from_chars for doubles
// is still spotty across the toolchains CI builds with.
bool parse_cap(const char*& p, const char* end, double& out) {
  p = skip_ws(p, end);
  char* next = nullptr;
  errno = 0;
  out = std::strtod(p, &next);
  if (next == p || errno == ERANGE) return false;
  p = next;
  return true;
}

} // namespace

FlowNetwork read_dimacs(std::istream& in) {
  std::string line;
  std::int64_t n = -1, m = -1, arcs_seen = 0;
  long long lineno = 0;
  int source = -1, sink = -1;
  std::vector<Edge> edges;

  // Every parse error names the offending 1-based line so a truncated or
  // corrupted multi-gigabyte file can be diagnosed without a binary search.
  const auto fail = [&](const std::string& what) -> void {
    throw std::runtime_error("read_dimacs: " + what + " at line " +
                             std::to_string(lineno));
  };

  while (std::getline(in, line)) {
    ++lineno;
    const char* p = line.c_str();
    const char* end = p + line.size();
    p = skip_ws(p, end);
    if (p == end) continue;
    const char kind = *p++;
    switch (kind) {
      case 'c':
        break;
      case 'p': {
        if (n != -1) fail("duplicate problem line");
        p = skip_ws(p, end);
        if (end - p < 3 || p[0] != 'm' || p[1] != 'a' || p[2] != 'x')
          fail("expected 'p max N M'");
        p += 3;
        if (!parse_i64(p, end, n) || !parse_i64(p, end, m) || n < 0 || m < 0)
          fail("expected 'p max N M'");
        if (n >= std::numeric_limits<int>::max())
          fail("node count " + std::to_string(n) +
               " exceeds the int vertex index");
        // Refused before any arc is read, so a huge declaration costs
        // neither the preallocation nor a pass over the file.
        if (m >= std::numeric_limits<int>::max())
          fail("arc count " + std::to_string(m) +
               " exceeds the int edge index");
        edges.reserve(static_cast<size_t>(m));
        break;
      }
      case 'n': {
        std::int64_t v = 0;
        p = skip_ws(p, end);
        if (!parse_i64(p, end, v)) fail("malformed node line");
        p = skip_ws(p, end);
        if (p == end) fail("malformed node line");
        if (n < 0) fail("node line before problem line");
        if (v < 1 || v > n)
          fail("node designator " + std::to_string(v) + " outside 1.." +
               std::to_string(n));
        if (*p == 's') {
          if (source != -1) fail("duplicate source");
          source = static_cast<int>(v - 1);
        } else if (*p == 't') {
          if (sink != -1) fail("duplicate sink");
          sink = static_cast<int>(v - 1);
        } else {
          fail("node role must be 's' or 't'");
        }
        break;
      }
      case 'a': {
        std::int64_t u = 0, v = 0;
        double c = 0.0;
        if (!parse_i64(p, end, u) || !parse_i64(p, end, v) ||
            !parse_cap(p, end, c))
          fail("malformed arc line (truncated mid-line?)");
        if (n < 0) fail("arc line before problem line");
        if (u < 1 || u > n || v < 1 || v > n)
          fail("arc endpoint out of range");
        if (!std::isfinite(c)) fail("non-finite arc capacity");
        ++arcs_seen;
        // Self loops carry no s-t flow and zero-capacity arcs are no-ops.
        if (u == v || c <= 0.0) break;
        edges.push_back(
            {static_cast<int>(u - 1), static_cast<int>(v - 1), c});
        break;
      }
      default:
        fail("unknown line kind '" + std::string(1, kind) + "'");
    }
  }
  if (in.bad())
    fail("stream read error (I/O failure mid-file)");
  if (n < 2)
    throw std::runtime_error("read_dimacs: missing problem line");
  if (source < 0 || sink < 0)
    fail("missing source or sink designator");
  if (source == sink)
    fail("source and sink designate the same node " +
         std::to_string(source + 1));
  // The declared-vs-seen reconciliation is what catches a file truncated at
  // a line boundary (every surviving line parses; arcs are just missing).
  if (arcs_seen != m)
    throw std::runtime_error(
        "read_dimacs: problem line declares " + std::to_string(m) +
        " arcs but the file contains " + std::to_string(arcs_seen) +
        " (input truncated after line " + std::to_string(lineno) + "?)");
  return FlowNetwork(static_cast<int>(n), source, sink, std::move(edges));
}

FlowNetwork read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_dimacs_file: cannot open " + path);
  return read_dimacs(in);
}

FlowNetwork read_dimacs_stream_file(const std::string& path) {
  return read_dimacs_file(path);
}

void write_dimacs(std::ostream& out, const FlowNetwork& net) {
  // Capacities are doubles: max_digits10 keeps a write -> read round trip
  // bit-exact (the default 6 significant digits corrupt anything >= 1e6 or
  // with a fine fractional part).
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "c analogflow DIMACS max-flow export\n";
  out << "p max " << net.num_vertices() << ' ' << net.num_edges() << '\n';
  out << "n " << net.source() + 1 << " s\n";
  out << "n " << net.sink() + 1 << " t\n";
  for (const Edge& e : net.edges())
    out << "a " << e.from + 1 << ' ' << e.to + 1 << ' ' << e.capacity << '\n';
  out.precision(old_precision);
}

void write_dimacs_file(const std::string& path, const FlowNetwork& net) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_dimacs_file: cannot open " + path);
  write_dimacs(out, net);
}

} // namespace aflow::graph
