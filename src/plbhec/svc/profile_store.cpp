#include "plbhec/svc/profile_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "plbhec/common/codec.hpp"
#include "plbhec/common/contracts.hpp"

namespace plbhec::svc {
namespace {

using common::ByteReader;
using common::ByteWriter;
using common::fnv1a64;

constexpr char kMagic[8] = {'P', 'L', 'B', 'H', 'E', 'C', 'P', 'S'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;  // magic + version + payload
constexpr std::size_t kChecksumBytes = 8;

// Structural caps: a checksummed-but-hostile payload may still announce
// absurd counts; cap them so the decoder never attempts a huge allocation.
constexpr std::size_t kMaxEntries = 1u << 20;
constexpr std::size_t kMaxStringBytes = 4096;
constexpr std::size_t kMaxSamples = 1u << 20;
constexpr std::size_t kMaxModelTerms = 64;

// ---- encoding ------------------------------------------------------------

/// Domain-specific composites over the shared byte codec.
struct Writer : ByteWriter {
  void samples(const std::vector<fit::Sample>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const fit::Sample& s : v) {
      f64(s.x);
      f64(s.time);
    }
  }
  void moments(const fit::MomentSnapshot& m) {
    u64(m.n);
    for (double v : m.gram) f64(v);
    for (double v : m.xty) f64(v);
    f64(m.yty);
  }
  void curve(const fit::CurveModel& c) {
    u32(static_cast<std::uint32_t>(c.terms.size()));
    for (fit::BasisFn t : c.terms) u32(static_cast<std::uint32_t>(t));
    for (double v : c.coefficients) f64(v);
    f64(c.r2);
  }
  void transfer(const fit::TransferModel& t) {
    f64(t.slope);
    f64(t.latency);
    f64(t.r2);
  }
};

// ---- decoding ------------------------------------------------------------

struct Reader : ByteReader {
  bool str(std::string& s) { return ByteReader::str(s, kMaxStringBytes); }
  bool samples(std::vector<fit::Sample>& v) {
    const std::uint32_t n = u32();
    if (!ok || n > kMaxSamples) {
      ok = false;
      return false;
    }
    v.resize(n);
    for (fit::Sample& s : v) {
      s.x = f64();
      s.time = f64();
      // Reject values SampleSet::add's contracts would abort on: a store
      // that passed the checksum can still have been written by a buggy
      // producer, and the service must degrade to cold-start, not abort.
      if (!ok || !std::isfinite(s.x) || !std::isfinite(s.time) ||
          s.x <= 0.0 || s.x > 1.0 || s.time < 0.0) {
        ok = false;
        return false;
      }
    }
    return ok;
  }
  bool moments(fit::MomentSnapshot& m, std::size_t expected_n) {
    m.n = u64();
    for (double& v : m.gram) v = f64();
    for (double& v : m.xty) v = f64();
    m.yty = f64();
    if (ok && m.n != expected_n) ok = false;  // snapshot/sample mismatch
    return ok;
  }
  bool curve(fit::CurveModel& c) {
    const std::uint32_t n = u32();
    if (!ok || n > kMaxModelTerms) {
      ok = false;
      return false;
    }
    c.terms.resize(n);
    for (fit::BasisFn& t : c.terms) {
      const std::uint32_t raw = u32();
      if (!ok || raw > static_cast<std::uint32_t>(fit::BasisFn::kXLnX)) {
        ok = false;
        return false;
      }
      t = static_cast<fit::BasisFn>(raw);
    }
    c.coefficients.resize(n);
    for (double& v : c.coefficients) v = f64();
    c.r2 = f64();
    return ok;
  }
  bool transfer(fit::TransferModel& t) {
    t.slope = f64();
    t.latency = f64();
    t.r2 = f64();
    return ok;
  }
};

bool key_less(const ProfileEntry& e, std::string_view app,
              std::string_view dev) {
  return std::tie(e.app_kind, e.device_kind) < std::tie(app, dev);
}

}  // namespace

const char* to_string(StoreLoadStatus status) {
  switch (status) {
    case StoreLoadStatus::kOk: return "ok";
    case StoreLoadStatus::kMissing: return "missing";
    case StoreLoadStatus::kTruncated: return "truncated";
    case StoreLoadStatus::kBadMagic: return "bad_magic";
    case StoreLoadStatus::kVersionSkew: return "version_skew";
    case StoreLoadStatus::kBadChecksum: return "bad_checksum";
    case StoreLoadStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

ProfileEntry make_entry(std::string app_kind, std::string device_kind,
                        const fit::SampleSet& exec,
                        const fit::SampleSet& transfer, double total_grains) {
  PLBHEC_EXPECTS(total_grains > 0.0);
  ProfileEntry entry;
  entry.app_kind = std::move(app_kind);
  entry.device_kind = std::move(device_kind);
  entry.total_grains = total_grains;

  // Trim to the cap keeping the most recent samples; a trimmed curve's
  // moments are rebuilt by replay so snapshot and samples always agree.
  const auto capped = [](const fit::SampleSet& full) {
    if (full.size() <= ProfileStore::kMaxSamplesPerCurve) return full;
    fit::SampleSet trimmed;
    const auto& items = full.items();
    for (std::size_t i = items.size() - ProfileStore::kMaxSamplesPerCurve;
         i < items.size(); ++i) {
      trimmed.add(items[i].x, items[i].time);
    }
    return trimmed;
  };
  const fit::SampleSet exec_set = capped(exec);
  const fit::SampleSet transfer_set = capped(transfer);

  entry.exec = exec_set.items();
  entry.transfer = transfer_set.items();
  entry.exec_moments = exec_set.moments().snapshot();
  entry.transfer_moments = transfer_set.moments().snapshot();

  fit::FitResult fitted = fit::select_model(exec_set);
  entry.exec_model = fitted.model;
  entry.stored_r2 = fitted.r2;
  entry.exec_fit = std::move(fitted);
  entry.transfer_model = fit::fit_transfer(transfer_set);
  return entry;
}

const ProfileEntry* ProfileStore::find(std::string_view app_kind,
                                       std::string_view device_kind) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), nullptr,
                       [&](const ProfileEntry& e, std::nullptr_t) {
                         return key_less(e, app_kind, device_kind);
                       });
  if (it == entries_.end() || it->app_kind != app_kind ||
      it->device_kind != device_kind) {
    return nullptr;
  }
  return &*it;
}

void ProfileStore::put(ProfileEntry entry) {
  entry.stamp = ++seq_;
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), nullptr,
                       [&](const ProfileEntry& e, std::nullptr_t) {
                         return key_less(e, entry.app_kind, entry.device_kind);
                       });
  if (it != entries_.end() && it->app_kind == entry.app_kind &&
      it->device_kind == entry.device_kind) {
    entry.updates = it->updates + 1;
    *it = std::move(entry);
    return;
  }
  entry.updates = 1;
  entries_.insert(it, std::move(entry));
}

void ProfileStore::merge(const ProfileStore& other) {
  for (const ProfileEntry& e : other.entries_) put(e);
}

rt::WarmProfile ProfileStore::warm_profile(
    std::string_view app_kind, std::string_view device_kind) const {
  const ProfileEntry* entry = find(app_kind, device_kind);
  if (entry == nullptr) return {};
  rt::WarmProfile warm;
  warm.exec = entry->exec;
  warm.transfer = entry->transfer;
  warm.total_grains = entry->total_grains;
  warm.stored_r2 = entry->stored_r2;
  warm.exec_moments = entry->exec_moments;
  warm.transfer_moments = entry->transfer_moments;
  warm.has_moments = true;
  warm.exec_fit = entry->exec_fit;
  PLBHEC_ASSERT(entry->stamp <= seq_);
  warm.age = seq_ - entry->stamp;
  return warm;
}

std::vector<std::uint8_t> ProfileStore::encode() const {
  std::vector<std::uint8_t> payload;
  Writer w{payload};
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  w.u64(seq_);
  for (const ProfileEntry& e : entries_) {
    w.str(e.app_kind);
    w.str(e.device_kind);
    w.f64(e.total_grains);
    w.f64(e.stored_r2);
    w.u64(e.updates);
    w.u64(e.stamp);
    w.samples(e.exec);
    w.samples(e.transfer);
    w.moments(e.exec_moments);
    w.moments(e.transfer_moments);
    w.curve(e.exec_model);
    w.transfer(e.transfer_model);
  }

  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  Writer h{out};
  h.bytes(kMagic, sizeof kMagic);
  h.u32(kFormatVersion);
  h.u64(payload.size());
  h.bytes(payload.data(), payload.size());
  h.u64(fnv1a64(payload));
  return out;
}

StoreLoadStatus ProfileStore::decode(std::span<const std::uint8_t> bytes,
                                     ProfileStore& out) {
  out.entries_.clear();
  out.seq_ = 0;
  if (bytes.size() < sizeof kMagic) return StoreLoadStatus::kTruncated;
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return StoreLoadStatus::kBadMagic;
  }
  if (bytes.size() < kHeaderBytes) return StoreLoadStatus::kTruncated;

  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof kMagic, sizeof version);
  if (version != kFormatVersion) return StoreLoadStatus::kVersionSkew;

  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes.data() + sizeof kMagic + sizeof version,
              sizeof payload_size);
  if (payload_size > bytes.size() ||
      bytes.size() - kHeaderBytes < payload_size + kChecksumBytes) {
    return StoreLoadStatus::kTruncated;
  }
  if (bytes.size() != kHeaderBytes + payload_size + kChecksumBytes) {
    return StoreLoadStatus::kCorrupt;  // trailing garbage
  }

  const std::span<const std::uint8_t> payload =
      bytes.subspan(kHeaderBytes, payload_size);
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + kHeaderBytes + payload_size,
              sizeof stored_checksum);
  if (fnv1a64(payload) != stored_checksum) {
    return StoreLoadStatus::kBadChecksum;
  }

  Reader r{payload};
  const std::uint32_t count = r.u32();
  const std::uint64_t seq = r.u64();
  if (!r.ok || count > kMaxEntries) return StoreLoadStatus::kCorrupt;

  std::vector<ProfileEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok; ++i) {
    ProfileEntry e;
    r.str(e.app_kind);
    r.str(e.device_kind);
    e.total_grains = r.f64();
    e.stored_r2 = r.f64();
    e.updates = r.u64();
    e.stamp = r.u64();
    if (r.ok && e.stamp > seq) r.ok = false;  // stamp ahead of the counter
    r.samples(e.exec);
    r.samples(e.transfer);
    r.moments(e.exec_moments, e.exec.size());
    r.moments(e.transfer_moments, e.transfer.size());
    r.curve(e.exec_model);
    r.transfer(e.transfer_model);
    if (r.ok && (!std::isfinite(e.total_grains) || e.total_grains <= 0.0)) {
      r.ok = false;
    }
    if (r.ok) entries.push_back(std::move(e));
  }
  if (!r.ok || r.pos != payload.size()) return StoreLoadStatus::kCorrupt;
  if (!std::is_sorted(entries.begin(), entries.end(),
                      [](const ProfileEntry& a, const ProfileEntry& b) {
                        return std::tie(a.app_kind, a.device_kind) <
                               std::tie(b.app_kind, b.device_kind);
                      })) {
    return StoreLoadStatus::kCorrupt;
  }

  out.entries_ = std::move(entries);
  out.seq_ = seq;
  return StoreLoadStatus::kOk;
}

bool ProfileStore::save(const std::string& path) const {
  const std::vector<std::uint8_t> image = encode();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      image.empty() ||
      std::fwrite(image.data(), 1, image.size(), f) == image.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

StoreLoadStatus ProfileStore::load(const std::string& path,
                                   ProfileStore& out) {
  out.entries_.clear();
  out.seq_ = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return StoreLoadStatus::kMissing;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return StoreLoadStatus::kMissing;
  return decode(bytes, out);
}

}  // namespace plbhec::svc
