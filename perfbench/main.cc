// perfbench — one repetition of one workload, printed as one JSON line.
//
//   perfbench --workload seq_dispatch|mpi_gang|swift_rem --seed N
//             [--traced] [--probes]
//
// --traced attaches an obs::Tracer and an actor-spawn counter (the
// per-layer run); --probes also times each layer in isolation afterwards.
// Exit status 2 on bad arguments, 1 if the run throws.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"

namespace jets::perfbench {

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

void JsonObject::put(const std::string& k, double v) {
  key(k);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
}

void JsonObject::put(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObject::put(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + v + "\"";  // callers pass plain identifiers and hex
}

void JsonObject::put_raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

}  // namespace jets::perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload seq_dispatch|mpi_gang|swift_rem "
               "--seed N [--traced] [--probes]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jets::perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      options.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      options.traced = true;
    } else if (std::strcmp(argv[i], "--probes") == 0) {
      options.probes = true;
    } else {
      return usage();
    }
  }
  const std::string& w = options.workload;
  if (w != "seq_dispatch" && w != "mpi_gang" && w != "swift_rem") return usage();
  try {
    const std::string record = jets::perfbench::run_workload(options);
    std::printf("%s\n", record.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
