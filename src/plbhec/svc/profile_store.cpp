#include "plbhec/svc/profile_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "plbhec/common/codec.hpp"
#include "plbhec/common/contracts.hpp"
#include "plbhec/fit/least_squares.hpp"

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

// ---- encoding ------------------------------------------------------------

/// Domain-specific composites over the shared byte codec.
struct Writer : ByteWriter {
  void samples(const fit::SampleSet& set) {
    u32(static_cast<std::uint32_t>(set.size()));
    for (const fit::Sample& s : set.items()) {
      f64(s.x);
      f64(s.time);
    }
  }
};

// ---- decoding ------------------------------------------------------------

struct Reader : ByteReader {
  bool str(std::string& s) { return ByteReader::str(s, kMaxStringBytes); }
  /// Rebuilds a curve by replaying its samples, so its moments are derived
  /// from the samples and never read from the image.
  bool samples(fit::SampleSet& set) {
    const std::uint32_t n = u32();
    if (!ok || n > ProfileStore::kMaxSamplesPerCurve) {
      ok = false;
      return false;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const double x = f64();
      const double time = f64();
      // Reject values SampleSet::add's contracts would abort on: a store
      // that passed the checksum can still have been written by a buggy
      // producer, and the service must degrade to cold-start, not abort.
      if (!ok || !std::isfinite(x) || !std::isfinite(time) || x <= 0.0 ||
          x > 1.0 || time < 0.0) {
        ok = false;
        return false;
      }
      set.add(x, time);
    }
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
  // moments are rebuilt by replay.
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
  entry.exec = capped(exec);
  entry.transfer = capped(transfer);
  entry.fit = fit::select_model(entry.exec);
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
  PLBHEC_EXPECTS(entry.exec.size() <= kMaxSamplesPerCurve &&
                 entry.transfer.size() <= kMaxSamplesPerCurve);
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

rt::WarmProfile ProfileStore::warm_profile(
    std::string_view app_kind, std::string_view device_kind) const {
  const ProfileEntry* entry = find(app_kind, device_kind);
  if (entry == nullptr) return {};
  PLBHEC_ASSERT(entry->stamp <= seq_);
  return {*entry, seq_ - entry->stamp};
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
    w.u64(e.updates);
    w.u64(e.stamp);
    w.samples(e.exec);
    w.samples(e.transfer);
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
    e.updates = r.u64();
    e.stamp = r.u64();
    if (r.ok && e.stamp > seq) r.ok = false;  // stamp ahead of the counter
    r.samples(e.exec);
    r.samples(e.transfer);
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

  for (ProfileEntry& e : entries) e.fit = fit::select_model(e.exec);
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
