// serve-hot and serve-cold: an in-process serve::Server (worker_threads = 2,
// default cache size) over serve::make_pipe streams, driven by this process
// through two connections, each with one sender and one receiver thread.
//
// Traffic: s5378-shaped sets (111x214, ~73% X); each request is one of
// {encode, decode} x {K=8, K=16}. serve-hot draws from a pool of 8 seeds
// (32 distinct requests, all L1 hits after warm-up); serve-cold gives every
// request a fresh seed and a plain store_dir, so each one computes, fills
// L1 and writes through to the store.
//
// Each run has a closed-loop phase (kWindow requests in flight per
// connection; gives throughput_rps) and an open-loop phase at a fixed
// arrival rate (latency timed from each request's due time).
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "core/hash.h"
#include "gen/cube_gen.h"
#include "gen/profiles.h"
#include "serve/server.h"

namespace perfbench {

namespace serve = nc::serve;
namespace bits = nc::bits;

namespace {

constexpr std::size_t kConnections = 2;
// Requests a connection keeps in flight, in both phases. Below the server's
// per-client cap of 8 with room for replies it has sent but not yet
// retired, so a well-behaved client is never refused.
constexpr std::size_t kWindow = 4;
constexpr std::size_t kHotSeeds = 8;
constexpr std::size_t kColdWarmup = 8;
constexpr double kClosedShare = 0.4;
// Open-loop arrival rate in requests/s over both connections (README.md
// has the measured capacities it is set against).
constexpr double kOpenRate = 400;
// serve-cold makes its fresh requests in chunks of this many, so the
// client's memory is the same whatever the server's speed.
constexpr std::size_t kColdChunk = 1000;

struct Sample {
  double us;
  std::size_t kind;
  std::size_t original_bits;  // encode requests: |TD| and |TE|
  std::size_t encoded_bits;
};

/// What one run of traffic produced. Failures are collected as text by the
/// receiver threads and handed to the Report after they join.
struct Phase {
  std::vector<Sample> samples;     // one per verified reply
  std::vector<double> lateness_us; // open loop: send time minus due time
  std::vector<std::string> failures;
  std::size_t sent = 0;
  double busy_s = 0;  // first send to last reply

  void merge(Phase&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                       other.lateness_us.end());
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
    sent += other.sent;
    busy_s += other.busy_s;
  }
};

/// A server and the client ends of its connections. The server is
/// declared last so it stops (closing its ends) before the client ends go.
struct Rig {
  std::vector<std::unique_ptr<serve::ByteStream>> conns;
  std::unique_ptr<serve::Server> server;
  std::uint64_t next_seq = 1;
};

std::unique_ptr<Rig> make_rig(const std::string& store_dir) {
  auto rig = std::make_unique<Rig>();
  serve::ServerConfig config;
  config.worker_threads = 2;
  config.store_dir = store_dir;
  rig->server = std::make_unique<serve::Server>(config);
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto [client, server_end] = serve::make_pipe();
    rig->server->serve(std::move(server_end));
    rig->conns.push_back(std::move(client));
  }
  return rig;
}

/// The i-th request of a run; must be callable from any thread.
using Plan = std::function<const Entry&(std::size_t)>;

/// Sends requests 0..count-1 of `plan` over the rig's connections
/// (connection c sends c, c + kConnections, ...) and verifies every reply
/// byte for byte. Each connection keeps at most kWindow requests in flight.
/// rate == 0: closed loop, the next request goes as soon as the window has
/// room; otherwise an open loop at `rate` requests/s in total, where a
/// request that falls due while the window is full waits for room and its
/// latency still counts from its due time. Stops sending after `seconds` or
/// `count` requests, then waits for every reply.
Phase drive(Rig& rig, const Plan& plan, std::size_t count, double rate,
            double seconds) {
  struct Pending {
    Clock::time_point due;
    const Entry* entry;
  };
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Pending> pending;  // by seq
    bool sender_done = false;
    std::size_t next_index = 0;  // one past the last request sent
    Phase phase;
    Clock::time_point last_reply;
  };
  std::vector<Lane> lanes(kConnections);
  const std::uint64_t seq_base = rig.next_seq;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));

  const auto sender = [&](std::size_t c) {
    Lane& lane = lanes[c];
    try {
      for (std::size_t i = c; i < count; i += kConnections) {
        Clock::time_point due;
        if (rate > 0) {
          due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rate));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
        }
        {
          std::unique_lock<std::mutex> lock(lane.mutex);
          lane.cv.wait(lock, [&] { return lane.pending.size() < kWindow; });
        }
        if (rate == 0) {
          due = Clock::now();
          if (due >= end) break;
        }
        const Entry& e = plan(i);
        serve::Frame frame;
        frame.type = e.type;
        frame.seq = seq_base + i;
        frame.payload = e.payload;
        {
          std::lock_guard<std::mutex> lock(lane.mutex);
          lane.pending.emplace(frame.seq, Pending{due, &e});
          lane.next_index = i + 1;
          ++lane.phase.sent;
          if (rate > 0)
            lane.phase.lateness_us.push_back(us_between(due, Clock::now()));
        }
        serve::write_frame(*rig.conns[c], frame);
      }
    } catch (const std::exception& ex) {
      std::lock_guard<std::mutex> lock(lane.mutex);
      lane.phase.failures.push_back(std::string("send failed: ") + ex.what());
    }
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.sender_done = true;
  };

  const auto receiver = [&](std::size_t c) {
    Lane& lane = lanes[c];
    serve::FrameReader reader(*rig.conns[c]);
    const auto give_up = end + std::chrono::seconds(30);
    while (true) {
      {
        std::lock_guard<std::mutex> lock(lane.mutex);
        if (lane.sender_done && lane.pending.empty()) break;
        if (Clock::now() > give_up) {
          lane.phase.failures.push_back(std::to_string(lane.pending.size()) +
                                        " requests never answered");
          break;
        }
      }
      serve::FrameReader::Result r;
      try {
        r = reader.read(std::chrono::milliseconds(20));
      } catch (const std::exception& ex) {
        std::lock_guard<std::mutex> lock(lane.mutex);
        lane.phase.failures.push_back(std::string("read failed: ") + ex.what());
        break;
      }
      if (r.status == serve::FrameReader::Status::kTimeout) continue;
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(lane.mutex);
      if (r.status != serve::FrameReader::Status::kFrame) {
        lane.phase.failures.push_back(
            r.status == serve::FrameReader::Status::kEof
                ? "connection closed"
                : "protocol error: " + r.detail);
        break;
      }
      const auto it = lane.pending.find(r.frame.seq);
      if (it == lane.pending.end()) {
        lane.phase.failures.push_back("reply with unexpected seq " +
                                      std::to_string(r.frame.seq));
        continue;
      }
      const Pending p = it->second;
      lane.pending.erase(it);
      lane.cv.notify_all();
      lane.last_reply = now;
      if (r.frame.type == serve::FrameType::kError) {
        lane.phase.failures.push_back(
            std::string("error reply: ") +
            serve::to_string(serve::parse_error_payload(r.frame.payload).code));
      } else if (r.frame.type != p.entry->expected_type ||
                 r.frame.payload != p.entry->expected) {
        lane.phase.failures.push_back("reply differs from the reference");
      } else {
        lane.phase.samples.push_back({us_between(p.due, now), p.entry->kind,
                                      p.entry->original_bits,
                                      p.entry->encoded_bits});
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(sender, c);
    threads.emplace_back(receiver, c);
  }
  for (std::thread& t : threads) t.join();

  Phase total;
  Clock::time_point last = t0;
  for (Lane& lane : lanes) {
    if (lane.phase.sent > 0) last = std::max(last, lane.last_reply);
    // Seqs stay unique across phases, so a stray late reply cannot match.
    rig.next_seq = std::max(rig.next_seq, seq_base + lane.next_index);
    total.merge(std::move(lane.phase));
  }
  total.busy_s = std::chrono::duration<double>(last - t0).count();
  return total;
}

/// Every entry once, in order.
Phase drive_all(Rig& rig, const std::vector<Entry>& entries, double rate,
                double seconds) {
  return drive(
      rig, [&](std::size_t i) -> const Entry& { return entries[i]; },
      entries.size(), rate, seconds);
}

void account(const Phase& phase, Report& report) {
  report.attempted(phase.sent);
  for (const std::string& f : phase.failures) report.failed(f);
  const std::size_t answered = phase.samples.size() + phase.failures.size();
  if (answered < phase.sent)
    for (std::size_t i = answered; i < phase.sent; ++i)
      report.failed("request unresolved");
}

const nc::gen::BenchmarkProfile& s5378() {
  return nc::gen::iscas89_profile("s5378");
}

/// Runs fn(0..n-1) on up to four threads (benchmark-side input and
/// reference generation; never inside a timed phase).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min<std::size_t>(4, n);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  for (std::thread& t : threads) t.join();
}

/// Sets of the traffic shape for seeds [first, first + n).
std::vector<bits::TestSet> make_sets(std::uint64_t first, std::size_t n) {
  std::vector<bits::TestSet> sets(n);
  parallel_for(n, [&](std::size_t i) {
    sets[i] = nc::gen::calibrated_cubes(s5378(), first + i);
  });
  return sets;
}

/// Fresh requests for seeds [first, first + n), one per set; the kind is
/// mix64(seed) % 4, so both connections carry every kind.
std::vector<Entry> fresh_entries(std::uint64_t first, std::size_t n) {
  const std::vector<bits::TestSet> sets = make_sets(first, n);
  std::vector<Entry> entries(n);
  parallel_for(n, [&](std::size_t i) {
    entries[i] = make_entry(sets[i], nc::core::mix64(first + i) % 4);
  });
  return entries;
}

}  // namespace

void run_serve(const Options& o, bool cold, Report& report) {
  namespace fs = std::filesystem;
  // Seeds of the traffic's sets: hot pool and cold stream never overlap.
  const std::uint64_t seed_base = o.seed * 1000003ull;
  std::uint64_t next_cold_seed = seed_base + kHotSeeds;

  // Hot pool: 8 sets x 4 kinds; cold: every request builds its own entry.
  std::vector<bits::TestSet> pool_sets;
  std::vector<Entry> pool;
  if (!cold) {
    pool_sets = make_sets(seed_base, kHotSeeds);
    pool.resize(4 * kHotSeeds);
    parallel_for(pool.size(), [&](std::size_t i) {
      pool[i] = make_entry(pool_sets[i / 4], i % 4);
    });
  }

  std::uint64_t hot_stream = o.seed;  // one pick stream per phase
  std::vector<Entry> cold_warm;
  if (cold) {
    cold_warm = fresh_entries(next_cold_seed, kColdWarmup);
    next_cold_seed += kColdWarmup;
  }

  // Set-up: server construction, store open, connections and warm-up
  // (hot: every pool request once, filling L1; cold: a few fresh ones).
  // Repeated; the median is reported and the last rig serves the measured
  // phases.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup;
  const int setups = o.smoke ? 2 : 7;
  for (int i = 0; i < setups; ++i) {
    std::string store_dir;
    if (cold) {
      store_dir = o.work + "/store-" + std::to_string(i);
      fs::remove_all(store_dir);
    }
    rig.reset();
    const auto t0 = Clock::now();
    rig = make_rig(store_dir);
    // Cold has nothing to warm, but its first requests still create the
    // store's first segment and the pool's working state.
    const std::vector<Entry>& warm_entries = cold ? cold_warm : pool;
    account(drive_all(*rig, warm_entries, 0, 1e9), report);
    setup.push_back(seconds_since(t0));
  }
  const serve::Metrics::Snapshot before = rig->server->metrics_snapshot();
  const std::uint64_t puts_before =
      cold ? rig->server->store_stats().puts : 0;

  // Exact CR of the encode traffic: |TD| and |TE| (from NineCodedStats)
  // of every encode request whose reply matched its reference.
  std::uint64_t cr_bits[2][2] = {{0, 0}, {0, 0}};  // [K=8|16][original|encoded]
  const auto tally_cr = [&](const Phase& phase) {
    for (const Sample& s : phase.samples) {
      if (!kKinds[s.kind].compress) continue;
      auto& t = cr_bits[kKinds[s.kind].k == 8 ? 0 : 1];
      t[0] += s.original_bits;
      t[1] += s.encoded_bits;
    }
  };
  const auto run = [&](double rate, double seconds) {
    Phase phase;
    if (!cold) {
      // Uniform picks from the pool, as many as `seconds` allows.
      const std::uint64_t salt = nc::core::mix64(hot_stream++);
      phase = drive(
          *rig,
          [&](std::size_t i) -> const Entry& {
            return pool[nc::core::mix64(salt + i) % pool.size()];
          },
          std::numeric_limits<std::size_t>::max(), rate, seconds);
      tally_cr(phase);
      return phase;
    }
    // Cold: fixed-size chunks of fresh requests until `seconds` of traffic
    // have run; set-up of each chunk happens between timed spans.
    double left = seconds;
    while (left > 0) {
      const std::size_t n = o.smoke ? 100 : kColdChunk;
      const std::vector<Entry> chunk = fresh_entries(next_cold_seed, n);
      next_cold_seed += n;
      Phase part = drive_all(*rig, chunk, rate, left);
      left -= std::max(part.busy_s, 0.05);
      tally_cr(part);
      // Unsent requests are dropped with their chunk; they never reach the
      // server, so every request it sees is still fresh.
      phase.merge(std::move(part));
    }
    return phase;
  };

  const double closed_s = o.seconds * kClosedShare;
  const double open_s = o.seconds - closed_s;
  const double open_rate = o.smoke ? 200.0 : kOpenRate;
  const Phase closed = run(0, closed_s);
  account(closed, report);
  const Phase open = run(open_rate, open_s);
  account(open, report);

  const serve::Metrics::Snapshot after = rig->server->metrics_snapshot();
  std::vector<double> all;
  std::vector<double> per_kind[4];
  for (const Sample& s : open.samples) {
    all.push_back(s.us);
    per_kind[s.kind].push_back(s.us / 1000.0);
  }

  report.e2e("setup_s", median(setup), "s",
             "median of " + std::to_string(setup.size()) + " set-ups");
  report.e2e("throughput_rps",
             closed.busy_s > 0
                 ? static_cast<double>(closed.samples.size()) / closed.busy_s
                 : 0.0,
             "1/s",
             "closed loop, " + std::to_string(kConnections) + " connections x " +
                 std::to_string(kWindow) + " in flight, " +
                 std::to_string(closed.samples.size()) + " replies");
  report.e2e("p50_us", median(all), "us",
             "open loop at " + std::to_string(static_cast<int>(open_rate)) +
                 "/s, " + std::to_string(all.size()) + " replies");
  report.info("p99_us", quantile(all, 0.99), "us", "printed, not gated");
  for (std::size_t k = 0; k < 4; ++k)
    report.e2e(std::string(kKinds[k].name) + "_ms", median(per_kind[k]), "ms",
               "open-loop median of " + std::to_string(per_kind[k].size()));

  double cr[2];
  for (std::size_t ki = 0; ki < 2; ++ki)
    cr[ki] = nc::codec::compression_ratio_percent(cr_bits[ki][0], cr_bits[ki][1]);
  report.e2e("cr_k8_pct", cr[0], "%");
  report.e2e("cr_k16_pct", cr[1], "%");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.e2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB",
             "this process: server, client and the generated traffic");

  // Server-side counters over the measured phases.
  const double l1 = static_cast<double>(after.l1_hits - before.l1_hits);
  const double l2 = static_cast<double>(after.l2_hits - before.l2_hits);
  const double miss = static_cast<double>(after.misses - before.misses);
  const double lookups = l1 + l2 + miss;
  const double batches = static_cast<double>(after.batches - before.batches);
  const double batched =
      static_cast<double>(after.batched_requests - before.batched_requests);
  const std::uint64_t rejected =
      (after.requests_rejected_queue - before.requests_rejected_queue) +
      (after.requests_rejected_inflight - before.requests_rejected_inflight);
  serve::LatencyHistogram::Snapshot hist = after.request_latency;
  for (std::size_t b = 0; b < hist.buckets.size(); ++b)
    hist.buckets[b] -= before.request_latency.buckets[b];
  hist.count = after.request_latency.count - before.request_latency.count;
  const double hit_ratio = lookups > 0 ? l1 / lookups : 0.0;
  const double miss_ratio = lookups > 0 ? miss / lookups : 0.0;
  report.info("serve.l1_hit_ratio", hit_ratio, "ratio");
  report.info("serve.miss_ratio", miss_ratio, "ratio");
  report.info("serve.mean_batch_size", batches > 0 ? batched / batches : 0.0,
              "requests");
  report.info("serve.rejected", static_cast<double>(rejected), "count");
  report.info("serve.server_p99_bucket_us",
              static_cast<double>(hist.quantile_micros(0.99)), "us",
              "the server's pow-2 bucket bound, beside the exact p99_us");
  report.info("serve.generator_lateness_p50_us", median(open.lateness_us), "us");
  report.info("serve.generator_lateness_max_us",
              open.lateness_us.empty()
                  ? 0.0
                  : *std::max_element(open.lateness_us.begin(),
                                      open.lateness_us.end()),
              "us");
  const std::size_t answered = closed.samples.size() + open.samples.size();
  if (cold) {
    const std::uint64_t puts = rig->server->store_stats().puts - puts_before;
    report.info("store.puts", static_cast<double>(puts), "count");
    report.check(miss_ratio == 1.0,
                 "serve-cold: every request must miss (miss ratio " +
                     std::to_string(miss_ratio) + ")");
    report.check(puts == answered,
                 "serve-cold: store puts (" + std::to_string(puts) +
                     ") must equal requests (" + std::to_string(answered) + ")");
  } else {
    report.info("store.puts", 0.0, "count", "serve-hot has no store");
    report.check(hit_ratio >= 0.99,
                 "serve-hot: L1 hit ratio after warm-up " +
                     std::to_string(hit_ratio) + " < 0.99");
  }

  std::vector<bits::TestSet> sets = pool_sets;
  if (cold) sets = make_sets(next_cold_seed, 8);
  nc::codec::NineCodedStats mix;
  for (const bits::TestSet& ts : sets) {
    const auto s = nc::codec::NineCoded(8).analyze(ts.flatten());
    for (std::size_t c = 0; c < mix.counts.size(); ++c) mix.counts[c] += s.counts[c];
  }
  report.layer("codec.mismatch_halves_pct", mismatch_halves_pct(mix), "%",
               "K=8, exact, over the traffic's sets");
  rig.reset();
  if (!o.trace) return;

  // Traced: the serve path's layers timed on this workload's requests.
  std::vector<Entry> entries = pool;
  if (cold)
    for (const bits::TestSet& ts : sets)
      for (std::size_t k = 0; k < 4; ++k) entries.push_back(make_entry(ts, k));
  const LayerSums sums = measure_layers(sets, entries, o.work + "/layers",
                                        o.smoke ? 0.0 : 2.0, report);
  const double on_path = sums.frame_us + sums.key_us +
                         (cold ? sums.miss_us : sums.get_us);
  const double p50 = median(all);
  report.layer("trace.e2e_us", p50, "us", "this traced run's open-loop p50");
  report.layer("trace.layers_pct", p50 > 0 ? 100.0 * on_path / p50 : 0.0, "%",
               "named serve-path layers / client p50 (not gated)");
  report.layer("trace.residual_us", p50 - on_path, "us",
               "= serve.unattributed_us");
  report.info("serve.unattributed_us", p50 - on_path, "us",
              "client p50 minus named layers: queue wait, scheduler linger, "
              "hand-offs, pipe");
  fs::remove_all(o.work + "/layers");
}

}  // namespace perfbench
