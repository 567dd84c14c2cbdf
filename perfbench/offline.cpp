// offline-ckt2: the real `ninec compress --k {8,16}` and `ninec decompress`
// binaries exec'd on a CKT2-sized cube file (gen::ibm_profiles, Table VIII
// scale), serial NC9C container. Only the bits and codec layers work here.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "bits/serialize.h"
#include "common.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"

extern char** environ;

namespace perfbench {

namespace bits = nc::bits;
namespace codec = nc::codec;

namespace {

struct ChildRun {
  int status = -1;  // exit code, or -1 when the child did not exit normally
  double ms = 0;
  double maxrss_mb = 0;
};

/// Spawns `ninec args...` with stdout and stderr sent to `log`, waits for
/// it, and returns its exit code, wall time and peak resident set.
ChildRun run_ninec(const std::string& ninec,
                   const std::vector<std::string>& args,
                   const std::string& log) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(ninec.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  ChildRun run;
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, ninec.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return run;
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return run;
  run.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  run.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void put_u64(std::ostream& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// The CLI's serial container (tools/ninec.cpp save_stream): "NC9C" | u8 K
/// | 9 x u8 codeword lengths | u64 patterns | u64 width | save_trits(TE).
void write_nc9c(std::ostream& out, const codec::NineCoded& coder,
                const bits::TestSet& td, const bits::TritVector& te) {
  out.write("NC9C", 4);
  out.put(static_cast<char>(coder.block_size()));
  for (std::size_t c = 0; c < codec::kNumClasses; ++c)
    out.put(static_cast<char>(
        coder.table().length(static_cast<codec::BlockClass>(c))));
  put_u64(out, td.pattern_count());
  put_u64(out, td.pattern_length());
  bits::save_trits(out, te);
}
constexpr std::size_t kNc9cHeader = 4 + 1 + codec::kNumClasses + 16;

/// Expected outputs of the CLI at one K, computed in-process.
struct Reference {
  codec::NineCodedStats stats;
  std::string container;  // expected .9c bytes
  std::string decoded;    // expected decompress output (cube text)
};

Reference reference(const bits::TestSet& td, std::size_t k, Report& report) {
  const codec::NineCoded coder(k);
  bits::TritVector te;
  Reference ref;
  ref.stats = coder.analyze(td.flatten(), &te);
  std::ostringstream container;
  write_nc9c(container, coder, td, te);
  ref.container = container.str();
  const codec::DecodeOutcome out = coder.decode_checked(te, td.bit_count());
  report.check(td.flatten().covered_by(out.data),
               "in-process K=" + std::to_string(k) +
                   " decode does not cover TD");
  std::ostringstream text;
  bits::TestSet::unflatten(out.data, td.pattern_count(), td.pattern_length())
      .save(text);
  ref.decoded = text.str();
  return ref;
}

}  // namespace

void run_offline(const Options& o, Report& report) {
  namespace fs = std::filesystem;
  nc::gen::BenchmarkProfile profile = nc::gen::ibm_profiles().at(1);  // CKT2
  if (o.smoke) profile = {"CKT2-smoke", 64, 512, 0.95};
  const bits::TestSet td = nc::gen::calibrated_cubes(profile, o.seed);
  const std::string td_path = o.work + "/td.tests";
  td.save_file(td_path);
  const Reference refs[2] = {reference(td, 8, report),
                             reference(td, 16, report)};
  std::cout << "input " << profile.name << ' ' << td.pattern_count() << 'x'
            << td.pattern_length() << ", " << 100.0 * td.x_fraction()
            << "% X\n";

  const std::string log = o.work + "/ninec.log";
  const auto out_path = [&](const OpKind& op) {
    return o.work + "/out_k" + std::to_string(op.k) +
           (op.compress ? ".9c" : ".tests");
  };
  const auto args = [&](const OpKind& op) -> std::vector<std::string> {
    if (op.compress)
      return {"compress", "--in", td_path, "--out", out_path(op), "--k",
              std::to_string(op.k)};
    return {"decompress", "--in", o.work + "/out_k" + std::to_string(op.k) + ".9c",
            "--out", out_path(op)};
  };
  double peak_rss = 0;
  // Runs one CLI call and checks its output byte for byte against the
  // in-process reference; returns the wall time, or a negative value when
  // the call failed.
  const auto call = [&](const std::vector<std::string>& argv,
                        const std::string& out, const std::string& expected,
                        const std::string& what) {
    report.attempted();
    const ChildRun run = run_ninec(o.ninec, argv, log);
    peak_rss = std::max(peak_rss, run.maxrss_mb);
    if (run.status != 0) {
      report.failed(what + " exited with status " + std::to_string(run.status) +
                    ": " + slurp(log));
      return -1.0;
    }
    if (slurp(out) != expected) {
      report.failed(what + " output differs from the in-process reference");
      return -1.0;
    }
    return run.ms;
  };

  // Set-up: the CLI's fixed cost per invocation (exec, loader, static
  // initialisation, argument and file handling) on a one-block input.
  const bits::TestSet tiny = bits::TestSet::from_strings({"01XX10X1"});
  tiny.save_file(o.work + "/tiny.tests");
  const Reference tiny_ref = reference(tiny, 8, report);
  std::vector<double> setup;
  for (int i = 0; i < (o.smoke ? 3 : 21); ++i) {
    const double ms = call({"compress", "--in", o.work + "/tiny.tests", "--out",
                            o.work + "/tiny.9c", "--k", "8"},
                           o.work + "/tiny.9c", tiny_ref.container,
                           "set-up compress");
    if (ms >= 0) setup.push_back(ms / 1000.0);
  }

  // One untimed round warms the page cache and checks every kind once.
  std::vector<double> per_kind[4];
  std::vector<double> all;
  const auto round = [&](bool timed) {
    for (std::size_t k = 0; k < 4; ++k) {
      const OpKind& op = kKinds[k];
      const Reference& ref = refs[op.k == 8 ? 0 : 1];
      const double ms = call(args(op), out_path(op),
                             op.compress ? ref.container : ref.decoded,
                             std::string("ninec ") + op.name);
      if (timed && ms >= 0) {
        per_kind[k].push_back(ms);
        all.push_back(ms * 1000.0);
      }
    }
  };
  round(false);
  // CR from the CLI's own container (the TE after its header), which must
  // equal what NineCodedStats reports in-process.
  double cr[2];
  for (std::size_t ki = 0; ki < 2; ++ki) {
    const std::string bytes = slurp(o.work + "/out_k" +
                                    std::to_string(ki == 0 ? 8 : 16) + ".9c");
    std::istringstream in(bytes.size() > kNc9cHeader
                               ? bytes.substr(kNc9cHeader)
                               : std::string());
    std::size_t te_bits = 0;
    try {
      te_bits = bits::load_trits(in).size();
    } catch (const std::exception& e) {
      report.check(false, std::string("CLI container unreadable: ") + e.what());
    }
    cr[ki] = codec::compression_ratio_percent(td.bit_count(), te_bits);
    report.check(cr[ki] == refs[ki].stats.compression_ratio(),
                 "CLI CR differs from NineCodedStats");
  }

  const auto t0 = Clock::now();
  while (seconds_since(t0) < o.seconds) round(true);
  double busy_ms = 0;  // time inside the calls, without the output checks
  for (const auto& v : per_kind)
    for (double ms : v) busy_ms += ms;

  report.e2e("setup_s", median(setup), "s",
             "median of " + std::to_string(setup.size()) +
                 " one-block `ninec compress` calls");
  report.e2e("throughput_rps", 1000.0 * static_cast<double>(all.size()) / busy_ms,
             "1/s", "serial ninec calls per second of call time, all four kinds");
  report.e2e("p50_us", median(all), "us",
             "over " + std::to_string(all.size()) + " ninec calls");
  report.info("p99_us", quantile(all, 0.99), "us", "printed, not gated");
  // The fastest of the interleaved calls: co-tenant load on a shared host
  // only ever adds time, and shifts medians by 10-30% from run to run.
  for (std::size_t k = 0; k < 4; ++k)
    report.e2e(std::string(kKinds[k].name) + "_ms", quantile(per_kind[k], 0.0),
               "ms",
               "fastest of " + std::to_string(per_kind[k].size()) +
                   " calls; median " + std::to_string(median(per_kind[k])));
  report.e2e("cr_k8_pct", cr[0], "%");
  report.e2e("cr_k16_pct", cr[1], "%");
  report.e2e("peak_rss_mb", peak_rss, "MB", "largest ru_maxrss of a ninec call");
  const double mismatch = mismatch_halves_pct(refs[0].stats);
  report.layer("codec.mismatch_halves_pct", mismatch, "%", "K=8, exact");
  if (!o.trace) return;

  // Traced: the layers of the same four operations, as spans inside the
  // CLI's pipeline run in-process on the same input.
  std::vector<Entry> entries;
  for (std::size_t k = 0; k < 4; ++k) entries.push_back(make_entry(td, k));
  const LayerSums sums = measure_layers({td}, entries, o.work + "/layers",
                                        o.smoke ? 0.0 : 3.0, report);
  double layers = 0, inprocess = 0, residual = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    layers += sums.bits_codec_ms[k];
    inprocess += sums.pipeline_ms[k];
    residual += median(per_kind[k]) - sums.bits_codec_ms[k];
    report.info(std::string("inprocess.") + kKinds[k].name + "_ms",
                sums.pipeline_ms[k], "ms", "the CLI pipeline in-process");
  }
  for (std::size_t ki = 0; ki < 2; ++ki)
    report.info(ki == 0 ? "cli.residual_k8_ms" : "cli.residual_k16_ms",
                median(per_kind[2 * ki]) + median(per_kind[2 * ki + 1]) -
                    sums.bits_codec_ms[2 * ki] - sums.bits_codec_ms[2 * ki + 1],
                "ms", "compress + decompress CLI medians minus their layers");
  for (const auto& [name, ms] : sums.layer_ms)
    report.info("share." + name + "_pct", 100.0 * ms / inprocess, "%",
                "of the in-process figure, all four kinds");
  const double covered = 100.0 * layers / inprocess;
  if (covered < 90.0)
    report.flag("named layers cover " + std::to_string(covered) +
                "% of the in-process end-to-end figure (< 90%)");
  report.layer("trace.e2e_us", median(all), "us",
               "this traced run's ninec call p50");
  report.layer("trace.layers_pct", covered, "%",
               "named layers / in-process end-to-end, all four kinds");
  report.layer("trace.residual_us", 1000.0 * residual / 4, "us",
               "mean CLI call minus its layers (exec, file I/O, header)");
  fs::remove_all(o.work + "/layers");
}

}  // namespace perfbench
