// Codec registry, chain spec parsing, and the encode/decode chain
// drivers used by the DASH5 v3 chunk reader/writer.
#include "dassa/io/codec.hpp"

#include <chrono>
#include <cstring>

#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"
#include "stages.hpp"

namespace dassa::io {

namespace detail {

namespace {

class NoneCodec final : public Codec {
 public:
  [[nodiscard]] CodecId id() const override { return CodecId::kNone; }
  [[nodiscard]] const char* name() const override { return "none"; }

  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const std::byte> raw,
      std::size_t /*elem_size*/) const override {
    return {raw.begin(), raw.end()};
  }

  [[nodiscard]] std::vector<std::byte> decode(
      std::span<const std::byte> stored, std::size_t /*elem_size*/,
      std::size_t max_decoded_size) const override {
    if (stored.size() > max_decoded_size) {
      throw FormatError("none stream larger than its decode bound");
    }
    return {stored.begin(), stored.end()};
  }
};

}  // namespace

const Codec& none_codec() {
  static const NoneCodec codec;
  return codec;
}

}  // namespace detail

CodecRegistry::CodecRegistry() {
  stages_ = {
      &detail::none_codec(),
      &detail::shuffle_codec(),
      &detail::delta_codec(),
      &detail::lz_codec(),
  };
}

const CodecRegistry& CodecRegistry::instance() {
  static const CodecRegistry registry;
  return registry;
}

const Codec* CodecRegistry::find(CodecId id) const {
  for (const Codec* stage : stages_) {
    if (stage->id() == id) return stage;
  }
  return nullptr;
}

const Codec* CodecRegistry::find(const std::string& name) const {
  for (const Codec* stage : stages_) {
    if (name == stage->name()) return stage;
  }
  return nullptr;
}

std::string CodecSpec::str() const {
  if (chain.empty()) return "none";
  std::string out;
  for (const CodecId id : chain) {
    const Codec* stage = CodecRegistry::instance().find(id);
    if (!out.empty()) out += '+';
    out += stage ? stage->name() : "?";
  }
  return out;
}

CodecSpec CodecSpec::parse(const std::string& text) {
  DASSA_CHECK(!text.empty(), "codec spec must not be empty");
  if (text == "none") return {};
  CodecSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t plus = text.find('+', start);
    const std::string name = text.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    const Codec* stage = CodecRegistry::instance().find(name);
    if (stage == nullptr) {
      throw InvalidArgument("unknown codec stage '" + name + "' in spec '" +
                            text + "'");
    }
    if (spec.chain.size() >= kMaxChain) {
      throw InvalidArgument("codec chain '" + text + "' exceeds " +
                            std::to_string(kMaxChain) + " stages");
    }
    spec.chain.push_back(stage->id());
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return spec;
}

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

const Codec& stage_for(CodecId id) {
  const Codec* stage = CodecRegistry::instance().find(id);
  if (stage == nullptr) {
    throw FormatError("unknown codec id " +
                      std::to_string(static_cast<unsigned>(id)));
  }
  return *stage;
}

}  // namespace

std::vector<std::byte> encode_chain(const CodecSpec& spec,
                                    std::span<const std::byte> raw,
                                    std::size_t elem_size) {
  DASSA_CHECK(elem_size == 4 || elem_size == 8,
              "codec chains operate on 4- or 8-byte elements");
  DASSA_TRACE_SPAN("codec", "codec.encode_chain");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::byte> cur;
  std::span<const std::byte> in = raw;
  for (const CodecId id : spec.chain) {
    cur = stage_for(id).encode(in, elem_size);
    in = cur;
  }
  if (spec.chain.empty()) cur.assign(raw.begin(), raw.end());
  static Counter& calls =
      global_counters().counter(counters::kIoCodecEncodeCalls);
  static Counter& ns = global_counters().counter(counters::kIoCodecEncodeNs);
  calls.add();
  ns.add(elapsed_ns(t0));
  return cur;
}

std::vector<std::byte> decode_chain(const CodecSpec& spec,
                                    std::span<const std::byte> stored,
                                    std::size_t elem_size,
                                    std::size_t raw_size) {
  DASSA_CHECK(elem_size == 4 || elem_size == 8,
              "codec chains operate on 4- or 8-byte elements");
  DASSA_TRACE_SPAN("codec", "codec.decode_chain");
  const auto t0 = std::chrono::steady_clock::now();
  // Intermediate stages may be mildly expansive (varint worst case is
  // ~1.25x); give every stage the same generous-but-bounded ceiling.
  const std::size_t bound = raw_size + raw_size / 2 + 4096;
  std::vector<std::byte> cur;
  std::span<const std::byte> in = stored;
  for (auto it = spec.chain.rbegin(); it != spec.chain.rend(); ++it) {
    cur = stage_for(*it).decode(in, elem_size, bound);
    in = cur;
  }
  if (spec.chain.empty()) cur.assign(stored.begin(), stored.end());
  if (cur.size() != raw_size) {
    throw FormatError("codec chain decoded " + std::to_string(cur.size()) +
                      " bytes, chunk index says " + std::to_string(raw_size));
  }
  static Counter& calls =
      global_counters().counter(counters::kIoCodecDecodeCalls);
  static Counter& ns = global_counters().counter(counters::kIoCodecDecodeNs);
  calls.add();
  ns.add(elapsed_ns(t0));
  return cur;
}

}  // namespace dassa::io
