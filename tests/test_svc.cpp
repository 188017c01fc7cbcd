// Tests for the multi-tenant service layer: ProfileStore format
// robustness (truncation / magic / checksum / version skew reject cleanly
// and fall back to cold start, and a byte-mutation sweep with resealed
// checksums reaches the entry decoder), bit-identical warm-start round-trips,
// lease-target fairness properties, JobManager admission ordering,
// replay determinism, the stretch bound under a bursty mixed-priority
// trace, zero lost grains when a leased unit dies, counted store-write
// failures, and a one-job service run that is rt::SimEngine's run event for
// event under speed, link and kill faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/spmv.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/chaos/fault.hpp"
#include "plbhec/chaos/sim_target.hpp"
#include "plbhec/common/codec.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/rt/engine.hpp"
#include "plbhec/rt/profile_db.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/job_manager.hpp"
#include "plbhec/svc/lease.hpp"
#include "plbhec/svc/profile_store.hpp"

namespace plbhec::svc {
namespace {

// ---- ProfileStore ---------------------------------------------------------

/// A well-conditioned sample curve: near-linear with an intercept, the
/// kind of profile a real modeling phase produces.
fit::SampleSet curve_samples(double slope, double intercept,
                             std::size_t count) {
  fit::SampleSet set;
  for (std::size_t i = 1; i <= count; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(count + 1);
    set.add(x, intercept + slope * x + 1e-4 * x * x);
  }
  return set;
}

ProfileStore one_entry_store() {
  ProfileStore store;
  store.put(make_entry("app-a", "dev-cpu", curve_samples(2.0, 0.1, 8),
                       curve_samples(0.5, 0.01, 8), 1000.0));
  return store;
}

/// Rewrites an image's payload length and FNV-1a checksum to match its
/// current bytes, so a mutated payload passes the framing checks and
/// reaches the entry decoder.
void reseal(std::vector<std::uint8_t>& image) {
  constexpr std::size_t kHeader = 8 + 4 + 8;  // magic + version + length
  ASSERT_GE(image.size(), kHeader + 8);
  const std::uint64_t payload = image.size() - kHeader - 8;
  std::memcpy(image.data() + 12, &payload, sizeof payload);
  const std::uint64_t sum = common::fnv1a64(
      std::span<const std::uint8_t>(image.data() + kHeader, payload));
  std::memcpy(image.data() + kHeader + payload, &sum, sizeof sum);
}

TEST(ProfileStore, EncodeDecodeRoundTripsBitIdentically) {
  const ProfileStore store = one_entry_store();
  const std::vector<std::uint8_t> bytes = store.encode();

  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(bytes, loaded), StoreLoadStatus::kOk);
  ASSERT_EQ(loaded.size(), 1u);

  // The image holds only samples; decode replays them and re-runs the
  // selection, so the decoded entry equals the one make_entry built:
  // samples, moments and fit alike.
  const ProfileEntry& a = store.entries()[0];
  const ProfileEntry& b = loaded.entries()[0];
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(b.fit.acceptable);
  ASSERT_EQ(a.fit.model.coefficients.size(), b.fit.model.coefficients.size());
  for (std::size_t i = 0; i < a.fit.model.coefficients.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fit.model.coefficients[i]),
              std::bit_cast<std::uint64_t>(b.fit.model.coefficients[i]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fit.r2),
            std::bit_cast<std::uint64_t>(b.fit.r2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fit.bic),
            std::bit_cast<std::uint64_t>(b.fit.bic));

  // Re-encoding the decoded store reproduces the image byte for byte.
  EXPECT_EQ(loaded.encode(), bytes);
}

TEST(ProfileStore, WarmSeedRefitsIdenticallyAfterRoundTrip) {
  const ProfileStore store = one_entry_store();
  const std::vector<std::uint8_t> bytes = store.encode();
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(bytes, loaded), StoreLoadStatus::kOk);

  // Seed two profile databases — one from the original store, one from the
  // decoded image — with matching grain totals, so the sample sets are
  // copied as they are, and compare the resulting fits.
  rt::ProfileDb original(1, 1000);
  rt::ProfileDb reloaded(1, 1000);
  original.seed(0, store.warm_profile("app-a", "dev-cpu"));
  reloaded.seed(0, loaded.warm_profile("app-a", "dev-cpu"));
  ASSERT_EQ(original.exec_samples(0).size(), 8u);
  ASSERT_EQ(reloaded.exec_samples(0).size(), 8u);

  const fit::PerfModel fit_a = original.fit_unit(0);
  const fit::PerfModel fit_b = reloaded.fit_unit(0);
  ASSERT_TRUE(fit_a.valid());
  ASSERT_EQ(fit_a.exec.coefficients.size(), fit_b.exec.coefficients.size());
  for (std::size_t i = 0; i < fit_a.exec.coefficients.size(); ++i) {
    EXPECT_NEAR(fit_a.exec.coefficients[i], fit_b.exec.coefficients[i],
                1e-12);
    EXPECT_EQ(fit_a.exec.coefficients[i], fit_b.exec.coefficients[i]);
  }
  EXPECT_EQ(fit_a.exec.r2, fit_b.exec.r2);
  EXPECT_EQ(fit_a.transfer.slope, fit_b.transfer.slope);
  EXPECT_EQ(fit_a.transfer.latency, fit_b.transfer.latency);
}

TEST(ProfileStore, SeedRescalesAcrossGrainTotals) {
  const ProfileStore store = one_entry_store();  // totals 1000
  rt::ProfileDb db(1, 2000);                     // new run: twice the grains
  db.seed(0, store.warm_profile("app-a", "dev-cpu"));
  // x' = x * 1000 / 2000: all fractions halve and stay in (0, 1].
  ASSERT_EQ(db.exec_samples(0).size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(db.exec_samples(0).items()[i].x,
                     store.entries()[0].exec.items()[i].x * 0.5);
  }
  db.clear_unit(0);
  EXPECT_TRUE(db.exec_samples(0).empty());
  EXPECT_TRUE(db.transfer_samples(0).empty());
}

/// A one-unit PLB-HeC run of `total_grains` seeded with `warm`, started
/// but not yet issued a block.
std::unique_ptr<core::PlbHecScheduler> seeded_scheduler(
    const rt::WarmProfile& warm, std::size_t total_grains) {
  core::PlbHecOptions options;
  options.warm.push_back(warm);
  auto plb = std::make_unique<core::PlbHecScheduler>(options);
  rt::UnitInfo unit;
  unit.name = "dev-cpu";
  rt::WorkInfo work;
  work.name = "app-a";
  work.total_grains = total_grains;
  work.initial_block = 10;
  plb->start({unit}, work);
  return plb;
}

/// Issues the seeded unit's validation block and completes it.
void complete_validation_block(core::PlbHecScheduler& plb) {
  rt::TaskObservation obs;
  obs.grains = plb.next_block(0, 0.0);
  obs.exec_seconds = 0.1 + 2.0 * plb.profiles().grains_to_fraction(obs.grains);
  obs.transfer_seconds = 0.001;
  obs.finish_time = obs.exec_seconds + obs.transfer_seconds;
  plb.on_complete(obs);
}

TEST(ProfileStore, BitExactWarmSeedServesItsFirstFitFromTheCache) {
  const ProfileStore store = one_entry_store();  // totals 1000
  const rt::WarmProfile warm = store.warm_profile("app-a", "dev-cpu");
  ASSERT_TRUE(warm.fit.acceptable);

  // Matching grain totals copy the samples as they are, so the fit
  // make_entry stored is the fit of exactly these samples: the scheduler's
  // pre-validation fit_unit is a cache hit, equal bit for bit to a fresh
  // selection over the copied samples.
  const auto plb = seeded_scheduler(warm, 1000);
  const rt::ProfileDb& db = plb->profiles();
  ASSERT_EQ(db.exec_samples(0).size(), 8u);
  const fit::PerfModel seeded = db.fit_unit(0);
  EXPECT_EQ(db.fit_stats().fits_cached, 1u);
  EXPECT_EQ(db.fit_stats().fits_computed, 0u);
  const fit::FitResult fresh = fit::select_model(db.exec_samples(0));
  EXPECT_EQ(seeded.exec.terms, fresh.model.terms);
  ASSERT_EQ(seeded.exec.coefficients.size(), fresh.model.coefficients.size());
  for (std::size_t i = 0; i < fresh.model.coefficients.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(seeded.exec.coefficients[i]),
              std::bit_cast<std::uint64_t>(fresh.model.coefficients[i]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(seeded.exec.r2),
            std::bit_cast<std::uint64_t>(fresh.model.r2));
  const fit::FitResult cached = db.exec_fit(0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.bic),
            std::bit_cast<std::uint64_t>(fresh.bic));
  EXPECT_EQ(cached.acceptable, fresh.acceptable);

  // decode re-runs the selection, so a seed decoded from the image is a
  // cache hit too: the same validation block against the original and the
  // decoded profile computes the same selections, hits the cache as often,
  // and the runs agree.
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::decode(store.encode(), loaded), StoreLoadStatus::kOk);
  const auto cached_run = seeded_scheduler(warm, 1000);
  const auto decoded_run =
      seeded_scheduler(loaded.warm_profile("app-a", "dev-cpu"), 1000);
  EXPECT_EQ(decoded_run->profiles().fit_unit(0).exec, seeded.exec);
  EXPECT_EQ(decoded_run->profiles().fit_stats().fits_computed, 0u);
  complete_validation_block(*cached_run);
  complete_validation_block(*decoded_run);
  const rt::FitStats a = cached_run->profiles().fit_stats();
  const rt::FitStats b = decoded_run->profiles().fit_stats();
  EXPECT_EQ(a.fits_computed, b.fits_computed);
  EXPECT_EQ(a.fits_cached + 1, b.fits_cached);  // the extra fit_unit above
  EXPECT_EQ(cached_run->stats().warm_hits, 1u);
  EXPECT_EQ(cached_run->stats().warm_hits, decoded_run->stats().warm_hits);
  EXPECT_EQ(cached_run->fractions(), decoded_run->fractions());
}

TEST(ProfileStore, RescaledWarmSeedRefits) {
  const ProfileStore store = one_entry_store();  // totals 1000

  // A different grain total replays rescaled samples: the stored fit does
  // not describe them, so the first fit is computed.
  const auto rescaled =
      seeded_scheduler(store.warm_profile("app-a", "dev-cpu"), 2000);
  ASSERT_EQ(rescaled->profiles().exec_samples(0).size(), 8u);
  (void)rescaled->profiles().fit_unit(0);
  EXPECT_EQ(rescaled->profiles().fit_stats().fits_computed, 1u);
  EXPECT_EQ(rescaled->profiles().fit_stats().fits_cached, 0u);
}

TEST(ProfileStore, BitExactWarmSeedUnderAnotherEngineRefits) {
  // make_entry's stored selection ran with the default options; a
  // database selecting with another engine computes its own.
  const ProfileStore store = one_entry_store();  // totals 1000
  rt::ProfileDb db(1, 1000, {fit::FitEngine::kQr});
  db.seed(0, store.warm_profile("app-a", "dev-cpu"));
  (void)db.exec_fit(0);
  EXPECT_EQ(db.fit_stats().fits_computed, 1u);
  EXPECT_EQ(db.fit_stats().fits_cached, 0u);
  EXPECT_EQ(db.fit_stats().gram_solves, 0u);
}

TEST(ProfileStore, RejectsTruncationAtEveryPrefixLength) {
  const std::vector<std::uint8_t> bytes = one_entry_store().encode();
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          std::size_t{19}, bytes.size() / 2,
                          bytes.size() - 1}) {
    ProfileStore out;
    const auto status = ProfileStore::decode(
        std::span<const std::uint8_t>(bytes.data(), cut), out);
    EXPECT_EQ(status, StoreLoadStatus::kTruncated) << "cut=" << cut;
    EXPECT_TRUE(out.empty());
  }
}

TEST(ProfileStore, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[0] ^= 0xff;
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kBadMagic);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, RejectsVersionSkew) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[8] += 1;  // bump the little-endian version field
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kVersionSkew);
  EXPECT_TRUE(out.empty());

  // Version 2 images carried 1/time-weighted moment sums that version 3
  // dropped, and version 3 images carried moments, R^2 and models beside
  // the samples that version 4 derives: a store written before either
  // change cold-starts.
  for (const std::uint8_t old_version : {std::uint8_t{2}, std::uint8_t{3}}) {
    bytes = one_entry_store().encode();
    bytes[8] = old_version;
    bytes[9] = bytes[10] = bytes[11] = 0;
    EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kVersionSkew)
        << "version " << int{old_version};
    EXPECT_TRUE(out.empty());
  }
}

TEST(ProfileStore, RejectsCurveOverTheSampleCap) {
  // A curve of exactly the cap decodes; one more sample, spliced into the
  // exec curve of an otherwise valid image, decodes as corrupt.
  const std::size_t cap = ProfileStore::kMaxSamplesPerCurve;
  ProfileStore store;
  store.put(make_entry("app", "dev", curve_samples(2.0, 0.1, cap),
                       curve_samples(0.5, 0.01, 2), 1000.0));
  std::vector<std::uint8_t> bytes = store.encode();
  ProfileStore out;
  ASSERT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kOk);

  // Header, entry count, sequence, the two 3-byte keys, total_grains,
  // updates and stamp come before the exec count.
  const std::size_t count_at = 20 + 4 + 8 + (4 + 3) * 2 + 8 * 3;
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, sizeof count);
  ASSERT_EQ(count, cap);
  ++count;
  std::memcpy(bytes.data() + count_at, &count, sizeof count);
  const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(count_at + 4);
  const std::vector<std::uint8_t> sample(first, first + 16);
  bytes.insert(first, sample.begin(), sample.end());  // repeat the first
  reseal(bytes);
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kCorrupt);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, MutatedImagesWithResealedChecksumsDecodeSafely) {
  // Every byte of a one-entry image, set to 0x00, 0xFF, its high bit
  // flipped and +1, with the payload length and checksum resealed so the
  // mutation reaches the entry decoder, the sample replay and the
  // selection decode runs. Each result is a defined status; an accepted
  // image re-encodes to exactly the mutated bytes.
  const std::vector<std::uint8_t> image = one_entry_store().encode();
  std::size_t accepted = 0;
  std::size_t corrupt = 0;
  for (std::size_t at = 0; at < image.size(); ++at) {
    const std::uint8_t b = image[at];
    for (const std::uint8_t value :
         {std::uint8_t{0x00}, std::uint8_t{0xff},
          static_cast<std::uint8_t>(b ^ 0x80u),
          static_cast<std::uint8_t>(b + 1u)}) {
      std::vector<std::uint8_t> mutated = image;
      mutated[at] = value;
      reseal(mutated);
      ProfileStore out;
      const StoreLoadStatus status = ProfileStore::decode(mutated, out);
      EXPECT_STRNE(to_string(status), "unknown") << "byte " << at;
      if (status == StoreLoadStatus::kOk) {
        ++accepted;
        EXPECT_EQ(out.encode(), mutated) << "byte " << at;
      } else {
        EXPECT_TRUE(out.empty()) << "byte " << at;
        if (status == StoreLoadStatus::kCorrupt) ++corrupt;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(corrupt, 0u);
}

TEST(ProfileStore, RejectsChecksumMismatch) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kBadChecksum);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = one_entry_store().encode();
  bytes.push_back(0x42);
  ProfileStore out;
  EXPECT_EQ(ProfileStore::decode(bytes, out), StoreLoadStatus::kCorrupt);
  EXPECT_TRUE(out.empty());
}

TEST(ProfileStore, LoadReportsMissingFile) {
  ProfileStore out;
  EXPECT_EQ(ProfileStore::load("/nonexistent/plbhec.store", out),
            StoreLoadStatus::kMissing);
}

TEST(ProfileStore, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "plbhec_store_roundtrip.bin";
  std::remove(path.c_str());
  const ProfileStore store = one_entry_store();
  ASSERT_TRUE(store.save(path));
  ProfileStore loaded;
  ASSERT_EQ(ProfileStore::load(path, loaded), StoreLoadStatus::kOk);
  EXPECT_EQ(loaded.encode(), store.encode());
  std::remove(path.c_str());
}

TEST(ProfileStore, PutReplacesByKeyAndCountsUpdates) {
  ProfileStore store = one_entry_store();
  EXPECT_EQ(store.entries()[0].updates, 1u);
  store.put(make_entry("app-a", "dev-cpu", curve_samples(3.0, 0.2, 10),
                       curve_samples(0.5, 0.01, 10), 500.0));
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.entries()[0].updates, 2u);
  EXPECT_EQ(store.entries()[0].total_grains, 500.0);
  store.put(make_entry("app-b", "dev-cpu", curve_samples(1.0, 0.1, 8),
                       curve_samples(0.5, 0.01, 8), 100.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.entries()[0].app_kind, "app-a");  // sorted by key
  EXPECT_EQ(store.entries()[1].app_kind, "app-b");
}

TEST(ProfileStore, TrimsToSampleCapWithConsistentMoments) {
  const std::size_t cap = ProfileStore::kMaxSamplesPerCurve;
  const fit::SampleSet big = curve_samples(2.0, 0.1, cap + 40);
  const ProfileEntry entry = make_entry("app", "dev", big, big, 1000.0);
  ASSERT_EQ(entry.exec.size(), cap);
  // The most recent samples are the ones kept, and the moments are their
  // replay.
  EXPECT_EQ(entry.exec.items().back().x, big.items().back().x);
  EXPECT_EQ(entry.exec.items().front().x, big.items()[40].x);
  fit::SampleSet replay;
  for (const fit::Sample& s : entry.exec.items()) replay.add(s.x, s.time);
  EXPECT_EQ(entry.exec.moments(), replay.moments());
  EXPECT_EQ(entry.exec.moments().count(), cap);
}

// ---- lease policy ---------------------------------------------------------

TEST(LeasePolicy, TargetsSumToUnitsAndRespectFloor) {
  for (std::size_t n : {3u, 7u, 10u, 16u}) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<ActiveJobView> jobs;
      for (std::size_t i = 0; i < k; ++i) {
        jobs.push_back({i, static_cast<PriorityClass>(i % 3)});
      }
      const std::vector<std::size_t> targets = lease_targets(jobs, n);
      std::size_t sum = 0;
      for (std::size_t t : targets) {
        EXPECT_GE(t, n / k);  // the fairness floor, regardless of priority
        sum += t;
      }
      EXPECT_EQ(sum, n);
    }
  }
}

TEST(LeasePolicy, PriorityBiasesOnlyTheRemainder) {
  const std::vector<ActiveJobView> jobs = {{0, PriorityClass::kLow},
                                           {1, PriorityClass::kHigh},
                                           {2, PriorityClass::kNormal}};
  const std::vector<std::size_t> targets = lease_targets(jobs, 11);
  // floor = 3 each; the 2 remainder units go to the heaviest weights.
  EXPECT_EQ(targets[0], 3u);
  EXPECT_GE(targets[1], 4u);
  EXPECT_EQ(targets[0] + targets[1] + targets[2], 11u);
  EXPECT_GE(targets[1], targets[2]);
  EXPECT_GE(targets[2], targets[0]);
}

TEST(LeasePolicy, DeterministicAcrossCalls) {
  std::vector<ActiveJobView> jobs = {{0, PriorityClass::kNormal},
                                     {1, PriorityClass::kNormal},
                                     {2, PriorityClass::kNormal}};
  const auto a = lease_targets(jobs, 10);
  const auto b = lease_targets(jobs, 10);
  EXPECT_EQ(a, b);
}

TEST(LeasePolicy, StretchBound) {
  EXPECT_DOUBLE_EQ(stretch_bound(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(stretch_bound(10, 3), 10.0 / 3.0);
  EXPECT_DOUBLE_EQ(stretch_bound(4, 4), 4.0);
}

// ---- JobManager -----------------------------------------------------------

JobSpec synthetic_job(std::string name, std::string kind,
                      PriorityClass priority, double arrival,
                      std::size_t grains, double flops = 2e7) {
  apps::SyntheticWorkload::Config config;
  config.grains = grains;
  config.flops_per_grain = flops;
  config.bytes_per_grain = 2048;
  return {std::move(name), std::move(kind), priority, arrival,
          [config] { return std::make_unique<apps::SyntheticWorkload>(config); }};
}

ServiceOptions quiet_options(std::uint64_t seed = 7) {
  ServiceOptions options;
  options.seed = seed;
  options.noise = sim::NoiseModel::none();
  return options;
}

TEST(JobManager, RunsMixedTraceToCompletion) {
  sim::SimCluster cluster(sim::scenario(2));
  JobManager manager(cluster, quiet_options());
  manager.submit(synthetic_job("a", "syn-a", PriorityClass::kNormal, 0.0,
                               20'000));
  manager.submit(synthetic_job("b", "syn-b", PriorityClass::kHigh, 0.01,
                               8'000));
  manager.submit(synthetic_job("c", "syn-a", PriorityClass::kLow, 0.02,
                               8'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.completion_order.size(), 3u);
  for (const JobOutcome& job : result.jobs) {
    EXPECT_TRUE(job.ok);
    EXPECT_GE(job.admitted, job.arrival);
    EXPECT_GT(job.finished, job.admitted);
    EXPECT_GT(job.tasks, 0u);
  }
  // Overlapping jobs must actually exercise the leasing protocol: the
  // first job's lease shrinks when the burst arrives and regrows after.
  EXPECT_GT(result.leases_granted, 0u);
  EXPECT_GT(result.leases_revoked, 0u);
  EXPECT_GT(result.scheduler_restarts, 0u);
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);
}

TEST(JobManager, ReplayIsDeterministic) {
  sim::SimCluster cluster(sim::scenario(2));
  const auto build = [&cluster] {
    auto manager = std::make_unique<JobManager>(cluster, quiet_options(11));
    manager->submit(synthetic_job("a", "syn-a", PriorityClass::kNormal, 0.0,
                                  15'000));
    manager->submit(synthetic_job("b", "syn-b", PriorityClass::kHigh, 0.005,
                                  6'000));
    manager->submit(synthetic_job("c", "syn-c", PriorityClass::kLow, 0.01,
                                  6'000));
    return manager;
  };
  const ServiceResult first = build()->run();
  const ServiceResult second = build()->run();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.completion_order, second.completion_order);
  EXPECT_EQ(first.makespan, second.makespan);  // exact, not approximate
  EXPECT_EQ(first.leases_granted, second.leases_granted);
  EXPECT_EQ(first.leases_revoked, second.leases_revoked);
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].finished, second.jobs[i].finished);
    EXPECT_EQ(first.jobs[i].tasks, second.jobs[i].tasks);
  }
}

// The nine-job, three-priority trace on scenario(3) that once replayed
// the sharded loops; the one event loop must replay it exactly too.
TEST(JobManagerShard, ShardedReplayIsDeterministic) {
  sim::SimCluster cluster(sim::scenario(3));
  const auto run_once = [&cluster] {
    auto manager = std::make_unique<JobManager>(cluster, quiet_options(11));
    for (int i = 0; i < 9; ++i) {
      const auto priority = (i % 3 == 0)   ? PriorityClass::kHigh
                            : (i % 3 == 1) ? PriorityClass::kNormal
                                           : PriorityClass::kLow;
      manager->submit(synthetic_job("j" + std::to_string(i),
                                    "syn-" + std::to_string(i % 4), priority,
                                    0.004 * i, 4'000 + 500 * (i % 5)));
    }
    return manager->run();
  };
  const ServiceResult first = run_once();
  const ServiceResult second = run_once();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.completion_order.size(), 9u);
  EXPECT_EQ(first.completion_order, second.completion_order);
  EXPECT_EQ(first.makespan, second.makespan);  // exact, not approximate
  EXPECT_EQ(first.leases_granted, second.leases_granted);
  EXPECT_EQ(first.leases_revoked, second.leases_revoked);
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].finished, second.jobs[i].finished);
    EXPECT_EQ(first.jobs[i].tasks, second.jobs[i].tasks);
  }
}

TEST(JobManager, AdmissionQueueHonorsPriorityThenFifo) {
  // One unit admits one job at a time, so the queue order is observable.
  sim::MachineConfig machine = sim::machine_a();
  machine.units.erase(machine.units.begin() + 1, machine.units.end());
  sim::SimCluster cluster(std::vector<sim::MachineConfig>{machine});
  JobManager manager(cluster, quiet_options());
  manager.submit(synthetic_job("first", "syn", PriorityClass::kLow, 0.0,
                               10'000));
  manager.submit(synthetic_job("normal", "syn", PriorityClass::kNormal, 0.001,
                               5'000));
  manager.submit(synthetic_job("high", "syn", PriorityClass::kHigh, 0.002,
                               5'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  // "first" is admitted on arrival; both others are queued by the time it
  // completes, and the high-priority one must leave the queue first.
  ASSERT_EQ(result.completion_order.size(), 3u);
  EXPECT_EQ(result.jobs[result.completion_order[0]].name, "first");
  EXPECT_EQ(result.jobs[result.completion_order[1]].name, "high");
  EXPECT_EQ(result.jobs[result.completion_order[2]].name, "normal");
  EXPECT_GT(result.jobs[2].queue_wait(), 0.0);
}

TEST(JobManager, WarmStartSkipsProbingBlocksAcrossRuns) {
  const std::string path = testing::TempDir() + "plbhec_warm_store.bin";
  std::remove(path.c_str());
  sim::SimCluster cluster(sim::scenario(2));

  const auto run_once = [&] {
    ServiceOptions options;
    options.seed = 21;
    options.store_path = path;
    JobManager manager(cluster, options);
    manager.submit({"mm", "matmul-1024", PriorityClass::kNormal, 0.0,
                    [] { return std::make_unique<apps::MatMulWorkload>(1024); }});
    return manager.run();
  };

  const ServiceResult cold = run_once();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.store_status, StoreLoadStatus::kMissing);
  EXPECT_EQ(cold.warm_hits, 0u);
  EXPECT_GT(cold.probe_blocks, 0u);

  const ServiceResult warm = run_once();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.store_status, StoreLoadStatus::kOk);
  EXPECT_GT(warm.warm_hits, 0u);
  EXPECT_GT(warm.probe_blocks_saved, 0u);
  EXPECT_LT(warm.probe_blocks, cold.probe_blocks);
  std::remove(path.c_str());
}

TEST(JobManager, CorruptStoreFallsBackToColdStart) {
  const std::string path = testing::TempDir() + "plbhec_corrupt_store.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "definitely not a profile store image";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  obs::CounterRegistry counters;
  sim::SimCluster cluster(sim::scenario(1));
  ServiceOptions options = quiet_options();
  options.store_path = path;
  options.counters = &counters;
  JobManager manager(cluster, options);
  EXPECT_EQ(manager.store_status(), StoreLoadStatus::kBadMagic);
  EXPECT_EQ(counters.value("svc.store.load_failed"), 1u);
  EXPECT_TRUE(manager.store().empty());

  manager.submit(synthetic_job("job", "syn", PriorityClass::kNormal, 0.0,
                               5'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;  // cold start, no crash
  EXPECT_EQ(result.warm_hits, 0u);
  std::remove(path.c_str());
}

TEST(JobManager, FailedStoreSaveIsCounted) {
  obs::CounterRegistry counters;
  sim::SimCluster cluster(sim::scenario(1));
  ServiceOptions options = quiet_options();
  options.store_path =
      testing::TempDir() + "plbhec_missing_dir/profile_store.bin";
  options.counters = &counters;
  JobManager manager(cluster, options);
  EXPECT_EQ(manager.store_status(), StoreLoadStatus::kMissing);
  manager.submit(synthetic_job("a", "syn", PriorityClass::kNormal, 0.0,
                               5'000));
  manager.submit(synthetic_job("b", "syn", PriorityClass::kNormal, 0.01,
                               5'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  // Every completion tries to persist the store; each attempt fails.
  EXPECT_EQ(counters.value("svc.store.save_failed"),
            result.completion_order.size());
  EXPECT_EQ(counters.value("svc.store.load_failed"), 0u);
}

TEST(JobManager, UnitDeathDuringLeaseLosesZeroGrains) {
  sim::SimCluster cluster(sim::scenario(2));
  cluster.fail_unit(1, 0.015);
  JobManager manager(cluster, quiet_options());
  manager.submit(synthetic_job("early", "syn-a", PriorityClass::kNormal, 0.0,
                               20'000));
  manager.submit(synthetic_job("later", "syn-b", PriorityClass::kNormal, 0.03,
                               6'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  // "early" arrives alone, leases every unit and is still running when
  // unit 1 dies, so the unit dies inside its lease.
  EXPECT_EQ(result.jobs[0].max_units_held, cluster.size());
  EXPECT_GT(result.jobs[0].finished, 0.015);
  // Zero lost grains: a job only reports ok when every grain executed,
  // so completion of both jobs across the failure is the conservation
  // statement.
  for (const JobOutcome& job : result.jobs) {
    EXPECT_TRUE(job.ok) << job.name;
    EXPECT_GT(job.tasks, 0u) << job.name;
  }
  EXPECT_EQ(result.completion_order.size(), 2u);
}

TEST(JobManagerDeathTest, MoreThanOneShardFailsItsPrecondition) {
  sim::SimCluster cluster(sim::scenario(1));
  ServiceOptions options = quiet_options();
  options.shards = 2;
  EXPECT_DEATH(JobManager(cluster, options), "precondition");
}

// ---- a one-job service run is the engine's run ----------------------------

/// What the engine and the service both record of a run: the event's kind,
/// unit, virtual time and first integer field.
struct EventKey {
  obs::EventKind kind = obs::EventKind::kBarrier;
  std::uint32_t unit = 0;
  double time = 0.0;
  std::uint64_t i = 0;

  friend bool operator==(const EventKey&, const EventKey&) = default;
};

struct OneRun {
  double makespan = 0.0;
  std::size_t tasks = 0;
  std::vector<EventKey> events;  ///< without admission, lease and job events
};

std::vector<EventKey> drained_keys(obs::EventSink& sink) {
  std::vector<EventKey> keys;
  for (const obs::Event& e : sink.drain()) {
    if (e.kind == obs::EventKind::kJobAdmitted ||
        e.kind == obs::EventKind::kJobCompleted ||
        e.kind == obs::EventKind::kLeaseGranted ||
        e.kind == obs::EventKind::kLeaseRevoked) {
      continue;
    }
    keys.push_back({e.kind, e.unit, e.time, e.i});
  }
  return keys;
}

struct EngineAndService {
  OneRun engine;
  OneRun service;
};

/// Runs one job alone through a bare SimEngine and through JobManager on
/// the same cluster of `machines` under `faults`. Both sides get a fresh
/// PlbHecScheduler with the same one-second block cap, no noise and seed
/// 7, and the service's store starts empty, so the two runs must be one
/// run.
EngineAndService engine_and_service(
    const JobSpec& spec, const chaos::FaultScript& faults,
    const std::vector<sim::MachineConfig>& machines = sim::scenario(2)) {
  sim::SimCluster cluster(machines);
  chaos::SimFaultTarget target(cluster);
  EXPECT_TRUE(chaos::inject(faults, target));
  EngineAndService runs;

  obs::EventSink engine_sink;
  rt::EngineOptions engine_options;
  engine_options.noise = sim::NoiseModel::none();
  engine_options.seed = 7;
  engine_options.sink = &engine_sink;
  rt::SimEngine engine(cluster, engine_options);
  core::PlbHecOptions plb_options;
  plb_options.max_block_seconds = 1.0;
  core::PlbHecScheduler plb(plb_options);
  const std::unique_ptr<rt::Workload> workload = spec.make_workload();
  const rt::RunResult run = engine.run(*workload, plb);
  EXPECT_TRUE(run.ok) << run.error;
  runs.engine.makespan = run.makespan;
  for (const rt::UnitStats& stats : run.unit_stats) {
    runs.engine.tasks += stats.tasks;
  }
  runs.engine.events = drained_keys(engine_sink);

  obs::EventSink service_sink;
  ServiceOptions options = quiet_options(7);
  options.scheduler = plb_options;
  options.sink = &service_sink;
  JobManager manager(cluster, options);
  manager.submit(spec);
  const ServiceResult result = manager.run();
  EXPECT_TRUE(result.ok) << result.error;
  runs.service.makespan = result.makespan;
  runs.service.tasks = result.jobs.at(0).tasks;
  runs.service.events = drained_keys(service_sink);
  return runs;
}

/// Equal makespans and task counts; with observability compiled in, equal
/// event streams too.
void expect_one_run(const EngineAndService& runs) {
  EXPECT_EQ(runs.service.makespan, runs.engine.makespan);
  EXPECT_EQ(runs.service.tasks, runs.engine.tasks);
  if (!obs::kCompiledIn) return;
  const std::vector<EventKey>& e = runs.engine.events;
  const std::vector<EventKey>& s = runs.service.events;
  EXPECT_FALSE(e.empty());
  const auto [ei, si] = std::mismatch(e.begin(), e.end(), s.begin(), s.end());
  const auto name = [](auto it, auto end) {
    return it == end ? "nothing" : obs::to_string(it->kind);
  };
  EXPECT_TRUE(ei == e.end() && si == s.end())
      << "first difference at event " << (ei - e.begin()) << " of "
      << e.size() << " (service " << s.size() << "): engine "
      << name(ei, e.end()) << ", service " << name(si, s.end());
}

TEST(JobManager, CostsBlocksLikeTheEngineWithoutFaults) {
  expect_one_run(engine_and_service(
      synthetic_job("syn", "syn", PriorityClass::kNormal, 0.0, 20'000),
      chaos::FaultScript{}));
}

TEST(JobManager, CostsBlocksLikeTheEngineUnderSlowdown) {
  // SpMV is bandwidth-bound, so a throttled unit's time is set by its
  // memory roof, which a slowdown must leave at full bandwidth.
  apps::SpmvWorkload::Config config;
  config.rows = 200'000;
  const JobSpec spmv{"spmv", "spmv-200k", PriorityClass::kNormal, 0.0,
                     [config] {
                       return std::make_unique<apps::SpmvWorkload>(config);
                     }};
  chaos::FaultScript faults;
  faults.slow_down(0, 0.5e-3, 0.5).slow_down(1, 0.5e-3, 0.25);
  expect_one_run(engine_and_service(spmv, faults));
}

TEST(JobManager, CostsBlocksLikeTheEngineUnderLinkDegrade) {
  const JobSpec syn =
      synthetic_job("syn", "syn", PriorityClass::kNormal, 0.0, 20'000);
  chaos::FaultScript faults;
  faults.slow_down(1, 2e-3, 0.25).degrade_link(0, 1e-3, 0.5e-3, 0.1);
  const EngineAndService faulted = engine_and_service(syn, faults);
  expect_one_run(faulted);
  // The faults reached the service run at all.
  EXPECT_GT(faulted.service.makespan,
            engine_and_service(syn, chaos::FaultScript{}).service.makespan);
}

TEST(JobManager, CostsBlocksLikeTheEngineUnderKills) {
  // A kill retires the unit's block, or finds the unit idle in an
  // assignment round; either way the failure is recorded before the
  // scheduler re-solves over the survivors.
  const JobSpec syn =
      synthetic_job("syn", "syn", PriorityClass::kNormal, 0.0, 20'000);
  chaos::FaultScript one;
  one.kill(2, 0.3);
  expect_one_run(engine_and_service(syn, one));
  chaos::FaultScript two;
  two.kill(1, 0.05).kill(3, 0.9);
  expect_one_run(engine_and_service(syn, two));
}

/// 40 copies of machine A: 80 units, so a job's idle set spans two words.
std::vector<sim::MachineConfig> wide_machines() {
  return std::vector<sim::MachineConfig>(40, sim::machine_a());
}

TEST(JobManager, CostsBlocksLikeTheEngineOnMoreThan64Units) {
  const JobSpec syn =
      synthetic_job("syn", "syn", PriorityClass::kNormal, 0.0, 200'000);
  const EngineAndService plain =
      engine_and_service(syn, chaos::FaultScript{}, wide_machines());
  expect_one_run(plain);
  // Kill a unit of the second word mid-run: it is retired once.
  chaos::FaultScript kill;
  kill.kill(71, 0.5 * plain.engine.makespan);
  const EngineAndService killed =
      engine_and_service(syn, kill, wide_machines());
  expect_one_run(killed);
  if (!obs::kCompiledIn) return;
  std::vector<EventKey> failures;
  std::copy_if(killed.engine.events.begin(), killed.engine.events.end(),
               std::back_inserter(failures), [](const EventKey& e) {
                 return e.kind == obs::EventKind::kUnitFailed;
               });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].unit, 71u);
}

TEST(JobManager, LeasesMoreThan64UnitsAcrossJobsAndDeaths) {
  // Leases shrink and grow over 80 units while two units of the second
  // word die: every release, re-attach and death goes through a job's
  // idle set.
  sim::SimCluster cluster(wide_machines());
  cluster.fail_unit(66, 0.02);
  cluster.fail_unit(79, 0.2);
  JobManager manager(cluster, quiet_options());
  manager.submit(synthetic_job("a", "syn-a", PriorityClass::kNormal, 0.0,
                               200'000));
  manager.submit(synthetic_job("b", "syn-b", PriorityClass::kHigh, 0.01,
                               80'000));
  manager.submit(synthetic_job("c", "syn-a", PriorityClass::kLow, 0.03,
                               80'000));
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.completion_order.size(), 3u);
  for (const JobOutcome& job : result.jobs) EXPECT_TRUE(job.ok);
  EXPECT_GT(result.leases_revoked, 0u);
  EXPECT_GT(result.scheduler_restarts, 0u);
}

TEST(JobManager, LeaseFairnessBoundsStretchUnderBurstyLoad) {
  sim::SimCluster cluster(sim::scenario(2));
  const std::size_t n = cluster.size();

  // A low-priority long job with high-priority bursts arriving on top.
  const std::vector<JobSpec> trace = {
      synthetic_job("long", "syn-long", PriorityClass::kLow, 0.0, 40'000),
      synthetic_job("burst-0", "syn-s", PriorityClass::kHigh, 0.01, 6'000),
      synthetic_job("burst-1", "syn-s", PriorityClass::kHigh, 0.02, 6'000),
      synthetic_job("burst-2", "syn-s", PriorityClass::kHigh, 0.03, 6'000),
  };

  // Solo baselines: each job alone on the idle cluster, same seed.
  std::vector<double> solo(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    JobManager manager(cluster, quiet_options(5));
    manager.submit(trace[i]);
    const ServiceResult result = manager.run();
    ASSERT_TRUE(result.ok) << result.error;
    solo[i] = result.jobs[0].turnaround();
    ASSERT_GT(solo[i], 0.0);
  }

  JobManager manager(cluster, quiet_options(5));
  for (const JobSpec& spec : trace) manager.submit(spec);
  const ServiceResult result = manager.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.leases_revoked, 0u);  // the protocol actually engaged

  // Every job — including the low-priority one — holds at least the
  // floor(n/k) fairness share while running, so its stretch against
  // running alone stays bounded. The capacity bound is stretch_bound(n, k)
  // with k concurrent jobs; scheduling overheads (probing, drain
  // boundaries, queueing) are covered by the slack factor.
  const double bound = stretch_bound(n, trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double stretch = result.jobs[i].turnaround() / solo[i];
    EXPECT_LE(stretch, bound * 2.0)
        << result.jobs[i].name << " stretch " << stretch << " vs bound "
        << bound;
  }
}

}  // namespace
}  // namespace plbhec::svc
