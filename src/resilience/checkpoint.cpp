#include "resilience/checkpoint.hpp"

#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lgg::resilience {

namespace {

constexpr std::string_view kMagic = "lggckpt";
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Fold a 64-bit value into an FNV-1a state, little-endian bytes.
void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void corrupt(const std::string& why) {
  throw CheckpointError(CheckpointError::Kind::kCorrupt,
                        "corrupt checkpoint: " + why);
}

/// Whitespace-separated token stream over the checkpoint body.  Every
/// parse failure throws CheckpointError(kCorrupt) — the caller never sees
/// a partially decoded checkpoint.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::string_view tok() {
    skip_ws();
    if (pos_ >= text_.size()) corrupt("truncated");
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_ws(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  void expect(std::string_view kw) {
    const std::string_view t = tok();
    if (t != kw)
      corrupt("expected '" + std::string(kw) + "', got '" + std::string(t) +
              "'");
  }

  std::uint64_t u64() {
    const std::string_view t = tok();
    std::uint64_t v = 0;
    if (t.empty()) corrupt("empty integer");
    for (const char c : t) {
      if (c < '0' || c > '9') corrupt("bad integer '" + std::string(t) + "'");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }

  std::uint64_t hex() {
    const std::string_view t = tok();
    if (t.empty() || t.size() > 16) corrupt("bad hex '" + std::string(t) + "'");
    std::uint64_t v = 0;
    for (const char c : t) {
      const int d = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                           : -1;
      if (d < 0) corrupt("bad hex '" + std::string(t) + "'");
      v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    return v;
  }

  double dbl() { return std::bit_cast<double>(hex()); }
  bool flag() { return u64() != 0; }
  std::string str() { return ckpt_decode(tok()); }

  [[nodiscard]] bool done() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  static bool is_ws(char c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  }
  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* checkpoint_kind_name(CheckpointError::Kind k) noexcept {
  switch (k) {
    case CheckpointError::Kind::kMissing:
      return "missing";
    case CheckpointError::Kind::kCorrupt:
      return "corrupt";
    case CheckpointError::Kind::kVersion:
      return "version";
    case CheckpointError::Kind::kGraphMismatch:
      return "graph-mismatch";
    case CheckpointError::Kind::kPlanMismatch:
      return "plan-mismatch";
  }
  return "?";
}

std::string ckpt_encode(std::string_view s) {
  if (s.empty()) return "%-";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (b == '%' || b == ' ' || b < 0x20 || b == 0x7F) {
      out += '%';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string ckpt_decode(std::string_view tok) {
  if (tok == "%-") return "";
  std::string out;
  out.reserve(tok.size());
  for (std::size_t i = 0; i < tok.size(); ++i) {
    if (tok[i] != '%') {
      out += tok[i];
      continue;
    }
    if (i + 2 >= tok.size()) corrupt("dangling escape in string token");
    const auto val = [&](char c) -> int {
      return c >= '0' && c <= '9'   ? c - '0'
             : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                    : -1;
    };
    const int hi = val(tok[i + 1]);
    const int lo = val(tok[i + 2]);
    if (hi < 0 || lo < 0) corrupt("bad escape in string token");
    out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return out;
}

std::uint64_t ckpt_fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string ckpt_double_bits(double v) {
  return hex64(std::bit_cast<std::uint64_t>(v));
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    LGG_CHECK(out.good(), "cannot open temp file for write: " << tmp);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    LGG_CHECK(out.good(), "short write to temp file: " << tmp);
  }
  LGG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot rename " << tmp << " into place at " << path);
}

std::uint64_t runner_options_fingerprint(const RunnerOptions& opts) {
  const gpusim::DeviceSpec& dev = opts.device_spec();
  std::uint64_t h = kFnvOffset;
  fold(h, static_cast<std::uint64_t>(opts.metric));
  fold(h, opts.threads_per_block);
  fold(h, static_cast<std::uint64_t>(opts.scheduler));
  fold(h, static_cast<std::uint64_t>(opts.sancheck));
  fold(h, static_cast<std::uint64_t>(opts.failover));
  fold(h, opts.retry.max_retries);
  fold(h, std::bit_cast<std::uint64_t>(opts.retry.base_backoff_s));
  fold(h, std::bit_cast<std::uint64_t>(opts.retry.max_backoff_s));
  fold(h, opts.verify ? 1 : 0);
  fold(h, opts.salvage ? 1 : 0);
  fold(h, opts.stream_batch_tests);
  fold(h, opts.checkpoint_every_chunks);
  fold(h, opts.faults != nullptr ? 1 : 0);
  if (opts.faults != nullptr) {
    fold(h, opts.faults->seed());
    const FaultRates& r = opts.faults->rates();
    fold(h, std::bit_cast<std::uint64_t>(r.alloc));
    fold(h, std::bit_cast<std::uint64_t>(r.launch));
    fold(h, std::bit_cast<std::uint64_t>(r.sm_abort));
    fold(h, std::bit_cast<std::uint64_t>(r.transfer));
  }
  fold(h, opts.obs != nullptr ? 1 : 0);
  fold(h, dev.sm_count);
  fold(h, dev.shared_mem_bits());
  return h;
}

std::uint64_t plan_digest_of(const std::vector<std::uint64_t>& chunk_tests) {
  std::uint64_t h = kFnvOffset;
  fold(h, chunk_tests.size());
  for (const std::uint64_t t : chunk_tests) fold(h, t);
  return h;
}

std::string encode_checkpoint(const Checkpoint& c) {
  std::ostringstream os;
  os << kMagic << " " << kFormatVersion << "\n";
  os << "graph " << hex64(c.graph_digest) << "\n";
  os << "fp " << hex64(c.options_fp) << "\n";
  os << "plan " << hex64(c.plan_digest) << " " << c.n_chunks << "\n";
  os << "pos " << c.next_chunk << "\n";
  os << "acc " << c.triangles << " " << (c.exact ? 1 : 0) << " "
     << c.total_tests << " " << ckpt_double_bits(c.host_time_s) << " "
     << ckpt_double_bits(c.camping_sum) << " " << ckpt_double_bits(c.tps_sum)
     << "\n";
  os << "dev " << c.dev_kernels << " " << c.dev_transactions << " "
     << ckpt_double_bits(c.dev_kernel_time_s) << " " << c.h2d_bytes << " "
     << ckpt_double_bits(c.h2d_time_s) << "\n";
  const RecoveryStats& st = c.recovery;
  os << "rec " << st.faults;
  for (const std::uint64_t v : st.by_site) os << " " << v;
  os << " " << st.retries << " " << st.corruptions_detected << " "
     << st.cpu_failovers << " " << st.stream_failovers << " "
     << st.failed_chunks << " " << ckpt_double_bits(st.backoff_s) << " "
     << st.salvaged_warps << " " << st.salvaged_tests << " "
     << st.recounted_tests << "\n";
  os << "chunks " << c.chunks.size() << "\n";
  for (const ChunkRecord& r : c.chunks) {
    os << "c " << r.chunk << " " << r.tests << " " << r.triangles << " "
       << (r.shared_resident ? 1 : 0) << " " << static_cast<int>(r.outcome)
       << " " << r.attempts << " " << r.faults << " " << r.corruptions << " "
       << (r.certified ? 1 : 0) << " " << ckpt_double_bits(r.backoff_s) << " "
       << ckpt_double_bits(r.time_s) << " " << r.sm << " "
       << r.salvaged_warps << " " << r.salvaged_tests << " "
       << r.recounted_tests << "\n";
  }
  os << "sml " << c.sm_lost.size();
  for (const std::uint8_t v : c.sm_lost) os << " " << static_cast<int>(v);
  os << "\n";
  os << "job " << c.job_times_ns.size();
  for (const std::uint64_t v : c.job_times_ns) os << " " << v;
  os << "\n";
  os << "log " << ckpt_encode(c.log) << "\n";
  os << "fau " << (c.has_faults ? 1 : 0);
  if (c.has_faults) {
    os << " " << c.fault_seed;
    for (const std::uint64_t v : c.faults.draws) os << " " << v;
    for (const std::uint64_t v : c.faults.counts) os << " " << v;
    for (const std::uint64_t v : c.faults.replay_cursor) os << " " << v;
    os << " " << c.faults.events.size();
  }
  os << "\n";
  if (c.has_faults) {
    for (const FaultEvent& e : c.faults.events)
      os << "fe " << static_cast<int>(e.site) << " " << e.draw << " "
         << e.detail << "\n";
  }
  os << "obs " << (c.has_obs ? 1 : 0) << "\n";
  if (c.has_obs) {
    os << "trc " << c.tracer.spans.size() << " " << c.tracer.open.size()
       << " " << c.tracer.top_cursor << " " << c.tracer.dropped << "\n";
    for (const obs::Span& s : c.tracer.spans) {
      os << "sp " << ckpt_encode(s.name) << " " << ckpt_encode(s.cat) << " "
         << s.begin_ns << " " << s.end_ns << " "
         << static_cast<std::uint64_t>(s.parent + 1) << " " << s.args.size();
      for (const obs::SpanArg& a : s.args)
        os << " " << ckpt_encode(a.key) << " " << ckpt_encode(a.json);
      os << "\n";
    }
    for (const auto& [idx, cursor] : c.tracer.open)
      os << "of " << idx << " " << cursor << "\n";
    const obs::MetricsState& m = c.metrics;
    os << "met " << m.counters.size() << " " << m.counters_f.size() << " "
       << m.gauges.size() << " " << m.histograms.size() << " "
       << m.help.size() << "\n";
    for (const auto& [k, v] : m.counters)
      os << "mc " << ckpt_encode(k) << " " << v << "\n";
    for (const auto& [k, v] : m.counters_f)
      os << "mf " << ckpt_encode(k) << " " << ckpt_double_bits(v) << "\n";
    for (const auto& [k, v] : m.gauges)
      os << "mg " << ckpt_encode(k) << " " << ckpt_double_bits(v) << "\n";
    for (const auto& [k, hist] : m.histograms) {
      os << "mh " << ckpt_encode(k) << " " << hist.bounds.size();
      for (const double b : hist.bounds) os << " " << ckpt_double_bits(b);
      os << " " << hist.count.size();
      for (const std::uint64_t v : hist.count) os << " " << v;
      os << " " << hist.observations << " " << ckpt_double_bits(hist.sum)
         << "\n";
    }
    for (const auto& [k, v] : m.help)
      os << "mp " << ckpt_encode(k) << " " << ckpt_encode(v) << "\n";
  }
  std::string body = os.str();
  body += "digest " + hex64(ckpt_fnv1a(
              std::string_view(body.data(), body.size()))) + "\n";
  return body;
}

Checkpoint decode_checkpoint(std::string_view text) {
  // Digest trailer first: reject truncation/tampering before parsing.
  const std::size_t pos = text.rfind("\ndigest ");
  if (pos == std::string_view::npos) corrupt("missing digest trailer");
  const std::string_view body = text.substr(0, pos + 1);
  Reader trailer(text.substr(pos + 1));
  trailer.expect("digest");
  const std::uint64_t want = trailer.hex();
  if (!trailer.done()) corrupt("trailing bytes after digest");
  if (ckpt_fnv1a(body) != want) corrupt("digest mismatch");

  Reader r(body);
  if (r.tok() != kMagic)
    throw CheckpointError(CheckpointError::Kind::kVersion,
                          "not a checkpoint file (bad magic)");
  const std::uint64_t ver = r.u64();
  if (ver != kFormatVersion)
    throw CheckpointError(
        CheckpointError::Kind::kVersion,
        "unsupported checkpoint format version " + std::to_string(ver));

  Checkpoint c;
  r.expect("graph");
  c.graph_digest = r.hex();
  r.expect("fp");
  c.options_fp = r.hex();
  r.expect("plan");
  c.plan_digest = r.hex();
  c.n_chunks = r.u64();
  r.expect("pos");
  c.next_chunk = r.u64();
  r.expect("acc");
  c.triangles = r.u64();
  c.exact = r.flag();
  c.total_tests = r.u64();
  c.host_time_s = r.dbl();
  c.camping_sum = r.dbl();
  c.tps_sum = r.dbl();
  r.expect("dev");
  c.dev_kernels = r.u64();
  c.dev_transactions = r.u64();
  c.dev_kernel_time_s = r.dbl();
  c.h2d_bytes = r.u64();
  c.h2d_time_s = r.dbl();
  r.expect("rec");
  RecoveryStats& st = c.recovery;
  st.faults = r.u64();
  for (std::uint64_t& v : st.by_site) v = r.u64();
  st.retries = r.u64();
  st.corruptions_detected = r.u64();
  st.cpu_failovers = r.u64();
  st.stream_failovers = r.u64();
  st.failed_chunks = r.u64();
  st.backoff_s = r.dbl();
  st.salvaged_warps = r.u64();
  st.salvaged_tests = r.u64();
  st.recounted_tests = r.u64();
  r.expect("chunks");
  const std::uint64_t n_records = r.u64();
  if (n_records > c.n_chunks) corrupt("more chunk records than chunks");
  c.chunks.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    r.expect("c");
    ChunkRecord rec;
    rec.chunk = static_cast<std::uint32_t>(r.u64());
    rec.tests = r.u64();
    rec.triangles = r.u64();
    rec.shared_resident = r.flag();
    const std::uint64_t outcome = r.u64();
    if (outcome > static_cast<std::uint64_t>(ChunkOutcome::kSalvaged))
      corrupt("bad chunk outcome");
    rec.outcome = static_cast<ChunkOutcome>(outcome);
    rec.attempts = static_cast<std::uint32_t>(r.u64());
    rec.faults = static_cast<std::uint32_t>(r.u64());
    rec.corruptions = static_cast<std::uint32_t>(r.u64());
    rec.certified = r.flag();
    rec.backoff_s = r.dbl();
    rec.time_s = r.dbl();
    rec.sm = static_cast<std::uint32_t>(r.u64());
    rec.salvaged_warps = r.u64();
    rec.salvaged_tests = r.u64();
    rec.recounted_tests = r.u64();
    c.chunks.push_back(std::move(rec));
  }
  r.expect("sml");
  c.sm_lost.resize(r.u64());
  for (std::uint8_t& v : c.sm_lost) v = r.flag() ? 1 : 0;
  r.expect("job");
  c.job_times_ns.resize(r.u64());
  for (std::uint64_t& v : c.job_times_ns) v = r.u64();
  r.expect("log");
  c.log = r.str();
  r.expect("fau");
  c.has_faults = r.flag();
  if (c.has_faults) {
    c.fault_seed = r.u64();
    for (std::uint64_t& v : c.faults.draws) v = r.u64();
    for (std::uint64_t& v : c.faults.counts) v = r.u64();
    for (std::uint64_t& v : c.faults.replay_cursor) v = r.u64();
    const std::uint64_t n_events = r.u64();
    c.faults.events.reserve(n_events);
    for (std::uint64_t i = 0; i < n_events; ++i) {
      r.expect("fe");
      FaultEvent e;
      const std::uint64_t site = r.u64();
      if (site >= gpusim::kNumFaultSites) corrupt("bad fault site");
      e.site = static_cast<gpusim::FaultSite>(site);
      e.draw = r.u64();
      e.detail = r.u64();
      c.faults.events.push_back(e);
    }
  }
  r.expect("obs");
  c.has_obs = r.flag();
  if (c.has_obs) {
    r.expect("trc");
    const std::uint64_t n_spans = r.u64();
    const std::uint64_t n_open = r.u64();
    c.tracer.top_cursor = r.u64();
    c.tracer.dropped = r.u64();
    c.tracer.spans.reserve(n_spans);
    for (std::uint64_t i = 0; i < n_spans; ++i) {
      r.expect("sp");
      obs::Span s;
      s.name = r.str();
      s.cat = r.str();
      s.begin_ns = r.u64();
      s.end_ns = r.u64();
      const std::uint64_t parent = r.u64();
      if (parent > i) corrupt("span parent out of range");
      s.parent = static_cast<std::int64_t>(parent) - 1;
      const std::uint64_t n_args = r.u64();
      s.args.reserve(n_args);
      for (std::uint64_t a = 0; a < n_args; ++a) {
        obs::SpanArg arg;
        arg.key = r.str();
        arg.json = r.str();
        s.args.push_back(std::move(arg));
      }
      c.tracer.spans.push_back(std::move(s));
    }
    c.tracer.open.reserve(n_open);
    for (std::uint64_t i = 0; i < n_open; ++i) {
      r.expect("of");
      const std::uint64_t idx = r.u64();
      const std::uint64_t cursor = r.u64();
      c.tracer.open.emplace_back(idx, cursor);
    }
    r.expect("met");
    const std::uint64_t nc = r.u64();
    const std::uint64_t ncf = r.u64();
    const std::uint64_t ng = r.u64();
    const std::uint64_t nh = r.u64();
    const std::uint64_t nhelp = r.u64();
    for (std::uint64_t i = 0; i < nc; ++i) {
      r.expect("mc");
      std::string k = r.str();
      c.metrics.counters[std::move(k)] = r.u64();
    }
    for (std::uint64_t i = 0; i < ncf; ++i) {
      r.expect("mf");
      std::string k = r.str();
      c.metrics.counters_f[std::move(k)] = r.dbl();
    }
    for (std::uint64_t i = 0; i < ng; ++i) {
      r.expect("mg");
      std::string k = r.str();
      c.metrics.gauges[std::move(k)] = r.dbl();
    }
    for (std::uint64_t i = 0; i < nh; ++i) {
      r.expect("mh");
      std::string k = r.str();
      obs::Histogram h;
      h.bounds.resize(r.u64());
      for (double& b : h.bounds) b = r.dbl();
      h.count.resize(r.u64());
      for (std::uint64_t& v : h.count) v = r.u64();
      h.observations = r.u64();
      h.sum = r.dbl();
      c.metrics.histograms[std::move(k)] = std::move(h);
    }
    for (std::uint64_t i = 0; i < nhelp; ++i) {
      r.expect("mp");
      std::string k = r.str();
      c.metrics.help[std::move(k)] = r.str();
    }
  }
  if (!r.done()) corrupt("trailing data after checkpoint body");
  return c;
}

void save_checkpoint(const std::string& path, const Checkpoint& c) {
  write_file_atomic(path, encode_checkpoint(c));
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw CheckpointError(CheckpointError::Kind::kMissing,
                          "no checkpoint file at " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  LGG_CHECK(in.good() || in.eof(), "I/O error reading checkpoint " << path);
  return decode_checkpoint(buf.str());
}

}  // namespace lgg::resilience
