// Shared pieces of the repo benchmark: run options, sample statistics, the
// metric report with its one-line JSON result, and the request entries that
// both the serve workloads and the per-layer probes run on.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bits/test_set.h"
#include "codec/nine_coded.h"
#include "serve/frame.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed that produces the committed baseline, and the one kept out of
/// tuning so a later gain claim can be re-checked on inputs it never saw.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // tiny inputs, every metric still reported
  std::string ninec;        // path of the CLI binary under test
  std::string work;         // scratch directory inside the checkout
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Quantile by linear interpolation between closest ranks (the same rule
/// as Python's statistics.quantiles(method="inclusive")). 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Collects every metric and check of one run. Metrics print as they are
/// added (`metric <name> <value> <unit>`); finish() prints the JSON result
/// as the last line of stdout. Only metrics named in BENCHMARK.json go into
/// the JSON: end-to-end ones in untraced runs, per-layer ones in traced runs.
class Report {
 public:
  enum class Kind { kEndToEnd, kLayer, kInfo };

  explicit Report(bool trace) : trace_(trace) {}

  void add(Kind kind, const std::string& name, double value,
           const std::string& unit, const std::string& note = "");
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    add(Kind::kEndToEnd, name, value, unit, note);
  }
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    add(Kind::kLayer, name, value, unit, note);
  }
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    add(Kind::kInfo, name, value, unit, note);
  }

  /// Counts operations; a failed one names what went wrong.
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(const std::string& what);
  /// A failed check that is not an operation (e.g. a workload property).
  void check(bool ok, const std::string& what);
  /// A warning line that does not fail the run.
  void flag(const std::string& what);

  /// Prints the JSON line; returns the process exit code.
  int finish();

 private:
  struct Metric {
    Kind kind;
    std::string name;
    double value;
    std::string unit;
  };
  bool trace_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// One request of the serve traffic mix, with its reference reply computed
/// serially on the server's exact path (spec.make_coder, the same decode
/// watchdog budget, the same payload builders).
struct Entry {
  nc::serve::FrameType type = nc::serve::FrameType::kEncodeRequest;
  nc::serve::CodecSpec spec;
  std::vector<std::uint8_t> payload;
  nc::serve::FrameType expected_type = nc::serve::FrameType::kEncodeReply;
  std::vector<std::uint8_t> expected;
  std::size_t original_bits = 0;  // encode entries: |TD|
  std::size_t encoded_bits = 0;   // encode entries: |TE| per NineCodedStats
  std::size_t kind = 0;           // index into kKinds
};

/// The four operations every workload times: {compress, decompress} at the
/// paper's operating points K = 8 and K = 16.
struct OpKind {
  const char* name;
  bool compress;
  std::size_t k;
};
inline constexpr OpKind kKinds[4] = {{"compress_k8", true, 8},
                                     {"decompress_k8", false, 8},
                                     {"compress_k16", true, 16},
                                     {"decompress_k16", false, 16}};

Entry make_entry(const nc::bits::TestSet& ts, std::size_t kind);

/// Share of 9C block halves that are mismatches at K (travel verbatim).
double mismatch_halves_pct(const nc::codec::NineCodedStats& stats);

/// Per-layer timings of public library functions on one workload's inputs
/// (`sets` for the bits/codec layers, `entries` for the serve/store path),
/// using files and a store under `dir`. Adds the bits, codec, serve and
/// store per-layer metrics and returns the sums the callers' coverage
/// figures need.
struct LayerSums {
  double frame_us = 0;    // frame encode + parse, request and reply
  double key_us = 0;      // cache key
  double get_us = 0;      // L1 hit
  double miss_us = 0;     // compute + cache put + store put
  double bits_codec_ms[4] = {0, 0, 0, 0};  // named layers per kKinds op
  double pipeline_ms[4] = {0, 0, 0, 0};    // the in-process op end to end
  // Each bits/codec layer's time summed over the four ops, for shares.
  std::vector<std::pair<std::string, double>> layer_ms;
};
LayerSums measure_layers(const std::vector<nc::bits::TestSet>& sets,
                         const std::vector<Entry>& entries,
                         const std::string& dir, double budget_s,
                         Report& report);

void run_offline(const Options& options, Report& report);
void run_serve(const Options& options, bool cold, Report& report);

}  // namespace perfbench
