// Per-layer probes: each layer is timed from outside, through the public
// functions the CLI and the server call, on the workload's own inputs. The
// bits and codec layers are spans inside the CLI's pipeline run in-process
// (cube text file -> TE file -> cube text file); the serve and store layers
// are timed per request on the workload's requests and reference replies.
// Every workload reports every layer; a layer that is not on a workload's
// path (the serve layers on offline-ckt2, text parsing on the serve
// workloads) is still its cost on that workload's inputs, but is left out
// of that workload's coverage sums.
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bits/serialize.h"
#include "common.h"
#include "core/cancel.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "store/store.h"

namespace perfbench {

namespace serve = nc::serve;
namespace bits = nc::bits;

namespace {

/// Read-only ByteStream over a byte buffer, so FrameReader is timed on its
/// parse work alone, without a transport.
class MemoryStream final : public serve::ByteStream {
 public:
  explicit MemoryStream(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  std::optional<std::size_t> read_some(std::uint8_t* buf, std::size_t max,
                                       std::chrono::milliseconds) override {
    const std::size_t n = std::min(max, bytes_.size() - pos_);
    std::memcpy(buf, bytes_.data() + pos_, n);
    pos_ += n;
    return n;
  }
  void write_all(const std::uint8_t*, std::size_t) override {
    throw std::runtime_error("MemoryStream is read-only");
  }
  std::optional<std::size_t> write_some(const std::uint8_t*, std::size_t,
                                        std::chrono::milliseconds) override {
    throw std::runtime_error("MemoryStream is read-only");
  }
  void close() override {}

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// What the server computes on a miss (server.cpp process_request): parse
// the request, build the coder, run the codec, build the reply payload.
std::vector<std::uint8_t> compute_reply(const Entry& e) {
  const nc::codec::NineCoded coder = e.spec.make_coder();
  if (e.type == serve::FrameType::kEncodeRequest) {
    const serve::EncodeRequest er = serve::parse_encode_request(e.payload);
    return serve::trits_payload(coder.encode(er.tests.flatten()));
  }
  const serve::DecodeRequest dr = serve::parse_decode_request(e.payload);
  const std::size_t original = dr.patterns * dr.width;
  nc::core::Watchdog watchdog(64 + 8 * (original + dr.te.size()));
  const nc::codec::DecodeOutcome outcome =
      coder.decode_checked(dr.te, original, &watchdog);
  return serve::test_set_payload(
      bits::TestSet::unflatten(outcome.data, dr.patterns, dr.width));
}

// Per-repetition means of every probe; the reported figure is the median
// over repetitions.
struct Rep {
  // bits/codec, ms per set, and the whole file-to-file pipeline per kKinds op
  double parse = 0, save_text[2] = {0, 0}, save_trits[2] = {0, 0},
         load_trits[2] = {0, 0}, encode[2] = {0, 0}, decode[2] = {0, 0},
         pipeline[4] = {0, 0, 0, 0};
  // serve/store path, us per request
  double frame_encode = 0, frame_parse = 0, cache_key = 0, cache_get = 0,
         compute = 0, cache_put = 0, store_put = 0;
};

Rep measure_once(const std::vector<bits::TestSet>& sets,
                 const std::vector<std::string>& paths,
                 const std::vector<Entry>& entries, nc::store::Store& store,
                 std::uint64_t rep_salt, bool& ok) {
  Rep r;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (std::size_t ki = 0; ki < 2; ++ki) {
      const nc::codec::NineCoded coder(ki == 0 ? 8 : 16);
      const std::string te_path = paths[s] + ".te";
      // compress: cube text file -> TE file
      const auto c0 = Clock::now();
      std::ifstream text_in(paths[s]);
      const bits::TestSet parsed = bits::TestSet::parse(text_in);
      const auto c1 = Clock::now();
      bits::TritVector te;
      (void)coder.analyze(parsed.flatten(), &te);
      const auto c2 = Clock::now();
      {
        std::ofstream trits_out(te_path, std::ios::binary);
        bits::save_trits(trits_out, te);
      }
      const auto c3 = Clock::now();
      ok = ok && parsed == sets[s];

      // decompress: TE file -> cube text file
      const auto d0 = Clock::now();
      std::ifstream trits_in(te_path, std::ios::binary);
      const bits::TritVector loaded = bits::load_trits(trits_in);
      const auto d1 = Clock::now();
      const nc::codec::DecodeOutcome out =
          coder.decode_checked(loaded, sets[s].bit_count());
      const auto d2 = Clock::now();
      const bits::TestSet decoded = bits::TestSet::unflatten(
          out.data, sets[s].pattern_count(), sets[s].pattern_length());
      const auto d3 = Clock::now();
      decoded.save_file(paths[s] + ".out");
      const auto d4 = Clock::now();
      ok = ok && sets[s].flatten().covered_by(out.data);

      r.parse += ms_between(c0, c1) / 2;  // parsed once per K
      r.encode[ki] += ms_between(c1, c2);
      r.save_trits[ki] += ms_between(c2, c3);
      r.load_trits[ki] += ms_between(d0, d1);
      r.decode[ki] += ms_between(d1, d2);
      r.save_text[ki] += ms_between(d3, d4);
      r.pipeline[2 * ki] += ms_between(c0, c3);
      r.pipeline[2 * ki + 1] += ms_between(d0, d4);
    }
  }
  const double ns = static_cast<double>(sets.size());
  r.parse /= ns;
  for (std::size_t ki = 0; ki < 2; ++ki) {
    r.encode[ki] /= ns;
    r.decode[ki] /= ns;
    r.save_trits[ki] /= ns;
    r.load_trits[ki] /= ns;
    r.save_text[ki] /= ns;
    r.pipeline[2 * ki] /= ns;
    r.pipeline[2 * ki + 1] /= ns;
  }

  serve::ArtifactCache warm(serve::ServerConfig{}.cache_capacity);
  serve::ArtifactCache fresh(serve::ServerConfig{}.cache_capacity);
  std::vector<serve::CacheKey> keys(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    keys[i] = serve::cache_key(e.type, e.spec, e.payload.data(),
                               e.payload.size());
    warm.put(keys[i], e.expected);
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    serve::Frame request;
    request.type = e.type;
    request.seq = i + 1;
    request.payload = e.payload;
    serve::Frame reply;
    reply.type = e.expected_type;
    reply.seq = i + 1;
    reply.payload = e.expected;

    auto t0 = Clock::now();
    const std::vector<std::uint8_t> request_bytes = serve::encode_frame(request);
    const std::vector<std::uint8_t> reply_bytes = serve::encode_frame(reply);
    r.frame_encode += us_between(t0, Clock::now());

    t0 = Clock::now();
    for (const auto* bytes : {&request_bytes, &reply_bytes}) {
      MemoryStream stream(*bytes);
      serve::FrameReader reader(stream);
      const serve::FrameReader::Result res =
          reader.read(std::chrono::milliseconds(1000));
      ok = ok && res.status == serve::FrameReader::Status::kFrame;
    }
    r.frame_parse += us_between(t0, Clock::now());

    t0 = Clock::now();
    const serve::CacheKey key =
        serve::cache_key(e.type, e.spec, e.payload.data(), e.payload.size());
    r.cache_key += us_between(t0, Clock::now());
    ok = ok && key == keys[i];

    t0 = Clock::now();
    const auto hit = warm.get(key);
    r.cache_get += us_between(t0, Clock::now());
    ok = ok && hit.has_value() && *hit == e.expected;

    t0 = Clock::now();
    const std::vector<std::uint8_t> computed = compute_reply(e);
    r.compute += us_between(t0, Clock::now());
    ok = ok && computed == e.expected;

    t0 = Clock::now();
    fresh.put(key, e.expected);
    r.cache_put += us_between(t0, Clock::now());

    // Content-addressed: a key already stored is a no-op, so each
    // repetition writes under its own key.
    const nc::store::Key skey{key.lo ^ rep_salt, key.hi};
    t0 = Clock::now();
    store.put(skey, e.expected);
    r.store_put += us_between(t0, Clock::now());
  }
  const double ne = static_cast<double>(entries.size());
  for (double* v : {&r.frame_encode, &r.frame_parse, &r.cache_key,
                    &r.cache_get, &r.compute, &r.cache_put, &r.store_put})
    *v /= ne;
  return r;
}

}  // namespace

LayerSums measure_layers(const std::vector<bits::TestSet>& sets,
                         const std::vector<Entry>& entries,
                         const std::string& dir, double budget_s,
                         Report& report) {
  std::filesystem::create_directories(dir + "/store");
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    paths.push_back(dir + "/set" + std::to_string(s) + ".tests");
    sets[s].save_file(paths.back());
  }
  // The server's store settings (ServerConfig defaults).
  const serve::ServerConfig defaults;
  nc::store::StoreConfig sc;
  sc.dir = dir + "/store";
  sc.segment_target_bytes = defaults.store_segment_bytes;
  sc.compact_garbage_ratio = defaults.store_garbage_ratio;
  nc::store::Store store(sc);

  std::vector<Rep> reps;
  bool ok = true;
  const auto t0 = Clock::now();
  do {
    reps.push_back(measure_once(sets, paths, entries, store,
                                0x9E3779B97F4A7C15ull * (reps.size() + 1),
                                ok));
  } while (seconds_since(t0) < budget_s && reps.size() < 200);
  report.check(ok, "a per-layer probe produced output that differs from the "
                   "workload's reference");

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return median(v);
  };
  const std::string n = "median of " + std::to_string(reps.size()) + " reps";
  LayerSums sums;
  const double parse = med([](const Rep& r) { return r.parse; });
  double enc[2], dec[2], st[2], lt[2], sx[2];
  for (std::size_t ki = 0; ki < 2; ++ki) {
    enc[ki] = med([ki](const Rep& r) { return r.encode[ki]; });
    dec[ki] = med([ki](const Rep& r) { return r.decode[ki]; });
    st[ki] = med([ki](const Rep& r) { return r.save_trits[ki]; });
    lt[ki] = med([ki](const Rep& r) { return r.load_trits[ki]; });
    sx[ki] = med([ki](const Rep& r) { return r.save_text[ki]; });
    sums.bits_codec_ms[2 * ki] = parse + enc[ki] + st[ki];
    sums.bits_codec_ms[2 * ki + 1] = lt[ki] + dec[ki] + sx[ki];
  }
  for (std::size_t k = 0; k < 4; ++k)
    sums.pipeline_ms[k] = med([k](const Rep& r) { return r.pipeline[k]; });
  sums.layer_ms = {{"bits.parse", 2 * parse},
                   {"codec.encode_k8", enc[0]},
                   {"codec.encode_k16", enc[1]},
                   {"bits.save_trits", st[0] + st[1]},
                   {"bits.load_trits", lt[0] + lt[1]},
                   {"codec.decode_k8", dec[0]},
                   {"codec.decode_k16", dec[1]},
                   {"bits.save_text", sx[0] + sx[1]}};
  report.layer("bits.parse_ms", parse, "ms", "TestSet::parse per set, " + n);
  report.layer("bits.save_trits_ms", st[0], "ms", "save_trits of the K=8 TE");
  report.layer("bits.load_trits_ms", lt[0], "ms", "load_trits of the K=8 TE");
  report.layer("bits.save_text_ms", sx[0], "ms", "TestSet::save, K=8 decode");
  report.layer("codec.encode_k8_ms", enc[0], "ms", "NineCoded::analyze");
  report.layer("codec.encode_k16_ms", enc[1], "ms", "NineCoded::analyze");
  report.layer("codec.decode_k8_ms", dec[0], "ms", "decode_checked");
  report.layer("codec.decode_k16_ms", dec[1], "ms", "decode_checked");

  const double fe = med([](const Rep& r) { return r.frame_encode; });
  const double fp = med([](const Rep& r) { return r.frame_parse; });
  const double ck = med([](const Rep& r) { return r.cache_key; });
  const double cg = med([](const Rep& r) { return r.cache_get; });
  const double cu = med([](const Rep& r) { return r.compute; });
  const double cp = med([](const Rep& r) { return r.cache_put; });
  const double sp = med([](const Rep& r) { return r.store_put; });
  report.layer("serve.frame_encode_us", fe, "us",
               "encode_frame of request + reply, per request");
  report.layer("serve.frame_parse_us", fp, "us",
               "FrameReader of request + reply, per request");
  report.layer("serve.cache_key_us", ck, "us", "per request");
  report.layer("serve.cache_get_us", cg, "us", "L1 hit incl. CRC check");
  report.layer("codec.compute_us", cu, "us",
               "what a miss computes, per request");
  report.layer("serve.cache_put_us", cp, "us", "per request");
  report.layer("store.put_us", sp, "us", "Store::put, per request");
  sums.frame_us = fe + fp;
  sums.key_us = ck;
  sums.get_us = cg;
  sums.miss_us = cu + cp + sp;
  return sums;
}

}  // namespace perfbench
