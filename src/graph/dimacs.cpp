#include "graph/dimacs.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace aflow::graph {

namespace {

/// Bytes per read: the reader holds one block, plus the line that
/// straddles into the next block while it is joined.
constexpr size_t kBlockBytes = size_t{1} << 20;

/// The most arcs the problem line's count preallocates: the count is only
/// a claim until the arcs are read, and a file that overstates it must read
/// as the count mismatch it is, not fail the allocation. 2^22 arcs (64 MiB)
/// covers every instance the benches build; a larger file grows the vector
/// as it reads.
constexpr std::int64_t kMaxReservedArcs = std::int64_t{1} << 22;

constexpr const char* kMalformedArc = "malformed arc line (truncated mid-line?)";

// Every line the parser sees ends in '\n', so the scanners below stop at
// it without an end pointer: '\n' is neither whitespace nor a digit.
bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }

bool ends_token(char c) { return is_ws(c) || c == '\n'; }

bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

const char* skip_ws(const char* p) {
  while (is_ws(*p)) ++p;
  return p;
}

const char* token_end(const char* p) {
  while (!ends_token(*p)) ++p;
  return p;
}

bool parse_i64(const char*& p, std::int64_t& out) {
  p = skip_ws(p);
  // Up to 18 digits cannot overflow: the common case skips from_chars.
  const char* q = p;
  std::int64_t value = 0;
  while (is_digit(*q) && q - p < 18) value = value * 10 + (*q++ - '0');
  if (q != p && !is_digit(*q)) {
    out = value;
    p = q;
    return true;
  }
  const auto [next, ec] = std::from_chars(p, token_end(p), out);
  if (ec != std::errc()) return false;
  p = next;
  return true;
}

/// The parse state across lines. line() parses one line in place.
class Parser {
 public:
  /// Parses the line at p, which ends in '\n', and returns the byte after
  /// that '\n'.
  const char* line(const char* p);
  FlowNetwork finish();
  long long lineno() const { return lineno_; }

 private:
  // Every parse error names the offending 1-based line so a truncated or
  // corrupted multi-gigabyte file can be diagnosed without a binary search.
  [[noreturn]] void fail(const std::string& what) const {
    throw DimacsError("read_dimacs: " + what + " at line " +
                      std::to_string(lineno_));
  }
  /// Refuses anything but whitespace after the last field; returns the
  /// byte after the line's '\n'.
  const char* expect_end(const char* p) const {
    p = skip_ws(p);
    if (*p != '\n') fail("trailing characters after the last field");
    return p + 1;
  }
  double capacity(const char*& p) const;

  std::int64_t n_ = -1, m_ = -1, arcs_seen_ = 0;
  long long lineno_ = 0;
  int source_ = -1, sink_ = -1;
  std::vector<Edge> edges_;
};

const char* Parser::line(const char* p) {
  ++lineno_;
  p = skip_ws(p);
  const char kind = *p++;
  switch (kind) {
    case '\n':
      return p;
    case 'c':
      while (*p != '\n') ++p;
      return p + 1;
    case 'p': {
      if (n_ != -1) fail("duplicate problem line");
      p = skip_ws(p);
      if (p[0] != 'm' || p[1] != 'a' || p[2] != 'x')
        fail("expected 'p max N M'");
      p += 3;
      if (!parse_i64(p, n_) || !parse_i64(p, m_) || n_ < 0 || m_ < 0)
        fail("expected 'p max N M'");
      p = expect_end(p);
      if (n_ >= std::numeric_limits<int>::max())
        fail("node count " + std::to_string(n_) +
             " exceeds the int vertex index");
      // Refused before any arc is read, so a huge declaration costs
      // neither the preallocation nor a pass over the file.
      if (m_ >= std::numeric_limits<int>::max())
        fail("arc count " + std::to_string(m_) +
             " exceeds the int edge index");
      edges_.reserve(static_cast<size_t>(std::min(m_, kMaxReservedArcs)));
      return p;
    }
    case 'n': {
      std::int64_t v = 0;
      if (!parse_i64(p, v)) fail("malformed node line");
      const char* const role = skip_ws(p);
      const char* const role_end = token_end(role);
      if (role_end == role) fail("malformed node line");
      p = expect_end(role_end);
      if (n_ < 0) fail("node line before problem line");
      if (v < 1 || v > n_)
        fail("node designator " + std::to_string(v) + " outside 1.." +
             std::to_string(n_));
      if (role_end - role != 1 || (*role != 's' && *role != 't'))
        fail("node role must be 's' or 't'");
      int& terminal = *role == 's' ? source_ : sink_;
      if (terminal != -1)
        fail(*role == 's' ? "duplicate source" : "duplicate sink");
      terminal = static_cast<int>(v - 1);
      return p;
    }
    case 'a': {
      std::int64_t u = 0, v = 0;
      if (!parse_i64(p, u) || !parse_i64(p, v)) fail(kMalformedArc);
      const double c = capacity(p);
      p = expect_end(p);
      if (n_ < 0) fail("arc line before problem line");
      if (u < 1 || u > n_ || v < 1 || v > n_) fail("arc endpoint out of range");
      if (!std::isfinite(c)) fail("non-finite arc capacity");
      ++arcs_seen_;
      // Self loops carry no s-t flow and zero-capacity arcs are no-ops.
      if (u != v && c > 0.0)
        edges_.push_back(
            {static_cast<int>(u - 1), static_cast<int>(v - 1), c});
      return p;
    }
    default:
      fail("unknown line kind '" + std::string(1, kind) + "'");
  }
}

/// Reads the capacity token at p; strtod stops at the whitespace or '\n'
/// after it. "inf" and "nan" pass, for the caller to refuse as non-finite.
double Parser::capacity(const char*& p) const {
  p = skip_ws(p);
  const char* const token = p;
  std::uint64_t value = 0;
  while (is_digit(*p)) value = value * 10 + static_cast<unsigned>(*p++ - '0');
  // Up to 15 digits stay below 2^53, so the integer is exact as a double.
  if (p != token && p - token <= 15 && ends_token(*p))
    return static_cast<double>(value);
  p = token_end(p);
  if (p == token) fail(kMalformedArc);
  // strtod reads hexadecimal, "inf" and "nan" too: a decimal number is a
  // token it reads whole that holds only digits, signs, '.', 'e' or 'E'.
  const bool decimal = std::all_of(token, p, [](char ch) {
    return is_digit(ch) || std::string_view("+-.eE").find(ch) !=
                               std::string_view::npos;
  });
  char* next = nullptr;
  errno = 0;
  const double c = std::strtod(token, &next);
  if (next != p || (!decimal && (std::isfinite(c) || errno == ERANGE)))
    fail("arc capacity is not a decimal number");
  if (errno == ERANGE) fail(kMalformedArc);
  return c;
}

FlowNetwork Parser::finish() {
  if (n_ < 2) throw DimacsError("read_dimacs: missing problem line");
  if (source_ < 0 || sink_ < 0) fail("missing source or sink designator");
  if (source_ == sink_)
    fail("source and sink designate the same node " +
         std::to_string(source_ + 1));
  // The declared-vs-seen reconciliation is what catches a file truncated at
  // a line boundary (every surviving line parses; arcs are just missing).
  if (arcs_seen_ != m_)
    throw DimacsError(
        "read_dimacs: problem line declares " + std::to_string(m_) +
        " arcs but the file contains " + std::to_string(arcs_seen_) +
        " (input truncated after line " + std::to_string(lineno_) + "?)");
  return FlowNetwork(static_cast<int>(n_), source_, sink_, std::move(edges_));
}

} // namespace

FlowNetwork read_dimacs(std::istream& in) {
  Parser parser;
  const auto block = std::make_unique_for_overwrite<char[]>(kBlockBytes);
  std::string carry; // the unfinished last line of the previous block
  for (bool more = true; more;) {
    in.read(block.get(), static_cast<std::streamsize>(kBlockBytes));
    const auto got = static_cast<size_t>(in.gcount());
    more = got == kBlockBytes;
    const char* p = block.get();
    const char* const end = p + got;
    // The lines up to the block's last '\n' are parsed in place; the rest
    // is carried into the next block.
    const char* stop = end;
    while (stop != p && stop[-1] != '\n') --stop;
    if (!carry.empty() && stop != p) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<size_t>(stop - p)));
      carry.append(p, nl + 1);
      parser.line(carry.data());
      carry.clear();
      p = nl + 1;
    }
    while (p != stop) p = parser.line(p);
    carry.append(p, end);
  }
  if (in.bad())
    throw std::runtime_error(
        "read_dimacs: stream read error (I/O failure mid-file) at line " +
        std::to_string(parser.lineno()));
  // The last line may end without a newline.
  if (!carry.empty()) {
    carry += '\n';
    parser.line(carry.data());
  }
  return parser.finish();
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
