#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>

#include "core/cancel.h"

namespace perfbench {

namespace serve = nc::serve;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// Shortest decimal that round-trips the double: every measured digit.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::add(Kind kind, const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({kind, name, value, unit});
  std::cout << "metric " << name << ' ' << number(value) << ' ' << unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

void Report::failed(const std::string& what) {
  if (++failed_ <= 20) std::cout << "FAIL " << what << '\n';
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  std::cout << "FAIL check: " << what << '\n';
}

void Report::flag(const std::string& what) {
  std::cout << "FLAG " << what << '\n';
}

int Report::finish() {
  const Kind wanted = trace_ ? Kind::kLayer : Kind::kEndToEnd;
  const bool correct = checks_ok_ && failed_ == 0 && attempted_ > 0;
  std::cout << "metric error_ratio "
            << number(attempted_ == 0 ? 1.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_))
            << " ratio  (" << failed_ << " failed of " << attempted_
            << " attempted)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.kind != wanted) continue;
    std::cout << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

Entry make_entry(const nc::bits::TestSet& ts, std::size_t kind) {
  Entry e;
  e.kind = kind;
  e.spec.k = kKinds[kind].k;
  const nc::codec::NineCoded coder = e.spec.make_coder();
  nc::bits::TritVector te;
  const nc::codec::NineCodedStats stats = coder.analyze(ts.flatten(), &te);
  if (kKinds[kind].compress) {
    e.type = serve::FrameType::kEncodeRequest;
    e.payload = serve::to_payload(serve::EncodeRequest{e.spec, ts});
    e.expected_type = serve::FrameType::kEncodeReply;
    e.expected = serve::trits_payload(te);
    e.original_bits = stats.original_bits;
    e.encoded_bits = stats.encoded_bits;
    return e;
  }
  serve::DecodeRequest dr;
  dr.spec = e.spec;
  dr.patterns = ts.pattern_count();
  dr.width = ts.pattern_length();
  dr.te = te;
  e.type = serve::FrameType::kDecodeRequest;
  e.payload = serve::to_payload(dr);
  e.expected_type = serve::FrameType::kDecodeReply;
  const std::size_t original = ts.bit_count();
  // The server's decode budget, so the reference takes its exact path.
  nc::core::Watchdog watchdog(64 + 8 * (original + te.size()));
  const nc::codec::DecodeOutcome outcome =
      coder.decode_checked(te, original, &watchdog);
  e.expected = serve::test_set_payload(nc::bits::TestSet::unflatten(
      outcome.data, ts.pattern_count(), ts.pattern_length()));
  return e;
}

double mismatch_halves_pct(const nc::codec::NineCodedStats& stats) {
  using nc::codec::BlockClass;
  const auto n = [&](BlockClass c) {
    return static_cast<double>(stats.counts[static_cast<std::size_t>(c)]);
  };
  const double halves = 2.0 * static_cast<double>(stats.blocks());
  if (halves == 0) return 0.0;
  const double mismatched = n(BlockClass::kC5) + n(BlockClass::kC6) +
                            n(BlockClass::kC7) + n(BlockClass::kC8) +
                            2 * n(BlockClass::kC9);
  return 100.0 * mismatched / halves;
}

}  // namespace perfbench
