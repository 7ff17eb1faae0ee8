// Dataset generator CLI: writes the synthetic analogues (or any custom
// generator configuration) as edge-list files, ready for partition_tool
// or external systems.
//
// Usage:
//   graphgen dataset <twitter|uk2007|usaroad|ldbc> <scale> <out.el>
//   graphgen er <n> <m> <seed> <out.el>
//   graphgen ba <n> <deg> <seed> <out.el>
//   graphgen ws <n> <nbrs> <rewire_p> <seed> <out.el>
//
// Every argument is checked against the generator's preconditions before
// anything runs, and the output file is opened before generating; a bad
// argument or an unwritable output prints "error: ..." and exits 1.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flags.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace {

constexpr uint64_t kMaxVertices = std::numeric_limits<sgp::VertexId>::max();
// GraphBuilder numbers the edges it is given with 32-bit ids.
constexpr uint64_t kMaxEdges = std::numeric_limits<uint32_t>::max();

int Usage(const char* why) {
  std::cerr
      << "error: " << why << "\n"
      << "usage:\n"
         "  graphgen dataset <twitter|uk2007|usaroad|ldbc> <scale> <out.el>\n"
         "  graphgen er <n> <m> <seed> <out.el>\n"
         "  graphgen ba <n> <deg> <seed> <out.el>\n"
         "  graphgen ws <n> <nbrs> <rewire_p> <seed> <out.el>\n"
         "Counts and seeds are unsigned decimal integers; rewire_p is a "
         "number.\n"
         "Rejected with \"error:\" and exit 1 before anything is generated:\n"
         "  - an unknown dataset, or a scale outside [6, 24];\n"
         "  - n, deg or nbrs above 4294967295;\n"
         "  - er with n < 2 or m > n(n-1)/2; ba with deg < 1 or n <= deg;\n"
         "    ws with n <= 2 * nbrs or rewire_p outside [0, 1];\n"
         "  - more than 4294967295 edges (m, n * deg or n * nbrs);\n"
         "  - an output file that cannot be opened.\n"
         "A write that fails part-way also exits 1 with \"error:\".\n";
  return 1;
}

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

// Parses all of `text` as a double; a sign-free "nan" or "inf" parses and is
// left to the caller's range check.
std::optional<double> ParseDouble(std::string_view text) {
  double value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgp;
  if (argc < 2) return Usage("no mode given");
  const std::string mode = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);

  // Positional argument `i` as an unsigned integer no larger than `max`;
  // the first bad argument's diagnostic goes to `error`.
  std::string error;
  auto uint_arg = [&](size_t i, const char* name, uint64_t max) -> uint64_t {
    const std::optional<uint64_t> value = ParseUint64(args[i]);
    if (!error.empty()) return 0;
    if (!value) {
      error = std::string(name) + " expects an unsigned integer, got '" +
              args[i] + "'";
    } else if (*value > max) {
      error = std::string(name) + " must be at most " + std::to_string(max) +
              ", got " + args[i];
    }
    return error.empty() ? *value : 0;
  };

  Graph g;
  const std::string out = args.empty() ? "" : args.back();
  std::ofstream file;
  auto open_output = [&] {
    file.open(out);
    return file.is_open();
  };

  if (mode == "dataset" && args.size() == 3) {
    const std::vector<std::string> names = DatasetNames();
    if (std::find(names.begin(), names.end(), args[0]) == names.end()) {
      return Fail("unknown dataset '" + args[0] +
                  "' (expected twitter, uk2007, usaroad or ldbc)");
    }
    const uint64_t scale = uint_arg(1, "scale", UINT64_MAX);
    if (!error.empty()) return Fail(error);
    if (scale < 6 || scale > 24) {
      return Fail("scale must be in [6, 24], got " + args[1]);
    }
    if (!open_output()) return Fail("cannot open output file " + out);
    g = MakeDataset(args[0], static_cast<uint32_t>(scale));
  } else if (mode == "er" && args.size() == 4) {
    const uint64_t n = uint_arg(0, "n", kMaxVertices);
    const uint64_t m = uint_arg(1, "m", kMaxEdges);
    const uint64_t seed = uint_arg(2, "seed", UINT64_MAX);
    if (!error.empty()) return Fail(error);
    if (n < 2) return Fail("er needs n >= 2, got " + args[0]);
    if (m > n * (n - 1) / 2) {
      return Fail("er needs m <= n(n-1)/2 = " +
                  std::to_string(n * (n - 1) / 2) + ", got " + args[1]);
    }
    if (!open_output()) return Fail("cannot open output file " + out);
    g = ErdosRenyi(static_cast<VertexId>(n), m, seed);
  } else if (mode == "ba" && args.size() == 4) {
    const uint64_t n = uint_arg(0, "n", kMaxVertices);
    const uint64_t deg = uint_arg(1, "deg", kMaxVertices);
    const uint64_t seed = uint_arg(2, "seed", UINT64_MAX);
    if (!error.empty()) return Fail(error);
    if (deg < 1) return Fail("ba needs deg >= 1, got " + args[1]);
    if (n <= deg) return Fail("ba needs n > deg, got n = " + args[0]);
    if (n * deg > kMaxEdges) {
      return Fail("ba would make n * deg > " + std::to_string(kMaxEdges) +
                  " edges");
    }
    if (!open_output()) return Fail("cannot open output file " + out);
    g = BarabasiAlbert(static_cast<VertexId>(n), static_cast<uint32_t>(deg),
                       seed);
  } else if (mode == "ws" && args.size() == 5) {
    const uint64_t n = uint_arg(0, "n", kMaxVertices);
    const uint64_t nbrs = uint_arg(1, "nbrs", kMaxVertices);
    const std::optional<double> rewire = ParseDouble(args[2]);
    if (error.empty() && !(rewire && *rewire >= 0.0 && *rewire <= 1.0)) {
      error = "rewire_p must be a number in [0, 1], got '" + args[2] + "'";
    }
    const uint64_t seed = uint_arg(3, "seed", UINT64_MAX);
    if (!error.empty()) return Fail(error);
    if (n <= 2 * nbrs) {
      return Fail("ws needs n > 2 * nbrs, got n = " + args[0] +
                  ", nbrs = " + args[1]);
    }
    if (n * nbrs > kMaxEdges) {
      return Fail("ws would make n * nbrs > " + std::to_string(kMaxEdges) +
                  " edges");
    }
    if (!open_output()) return Fail("cannot open output file " + out);
    g = WattsStrogatz(static_cast<VertexId>(n), static_cast<uint32_t>(nbrs),
                      *rewire, seed);
  } else {
    return Usage("unknown mode or wrong number of arguments");
  }

  WriteEdgeList(g, file);
  file.close();
  if (file.fail()) return Fail("cannot write output file " + out);
  GraphStats s = ComputeStats(g);
  std::cout << "wrote " << out << ": " << s.num_vertices << " vertices, "
            << s.num_edges << " edges, avg degree " << s.avg_degree
            << ", max degree " << s.max_degree << "\n";
  return 0;
}
