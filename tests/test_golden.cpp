// Golden output guard: pinned 64-bit digests of the case-table CSV, the
// lint-report JSON and the rendered dependence rankings for one
// generated dataset.
//
// Every other bit-exactness test compares two paths of the same build
// (1 vs 8 threads, incremental vs from-scratch), so an optimization
// that changes an output on every path at once would pass them all.
// These constants were recorded before the stanza-interning inference
// rewrite and must never be re-recorded to make a change pass: a
// mismatch means an analysis output changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "config/dialect.hpp"
#include "engine/session.hpp"
#include "io/dataset_io.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "simulation/osp_generator.hpp"
#include "util/hash.hpp"

namespace mpa {
namespace {

constexpr int kNetworks = 12;
constexpr int kMonths = 6;
constexpr std::uint64_t kSeed = 20150;

constexpr std::uint64_t kCaseTableDigest = 0x91bc5bc5bebf31cdULL;
constexpr std::uint64_t kLintJsonDigest = 0x38fdeebe1af6da9cULL;
constexpr std::uint64_t kRankDigest = 0xfac9f4c170d56044ULL;

std::uint64_t digest(const std::string& s) { return fnv1a_words(s.data(), s.size()); }

DiskDataset golden_data() {
  OspOptions opts;
  opts.num_networks = kNetworks;
  opts.num_months = kMonths;
  opts.seed = kSeed;
  OspDataset data = generate_osp(opts);
  return DiskDataset{std::move(data.inventory), std::move(data.snapshots),
                     std::move(data.tickets)};
}

AnalysisSession session_over(const DiskDataset& data, int months, int threads) {
  SessionOptions opts;
  opts.threads = threads;
  opts.inference.num_months = months;
  return AnalysisSession(data.inventory, data.snapshots, data.tickets, std::move(opts));
}

struct Digests {
  std::uint64_t table, lint, rank;
};

Digests digests_of(AnalysisSession& session) {
  serve::Request rank;
  rank.kind = serve::RequestKind::kRank;
  return Digests{digest(session.case_table().to_csv()), digest(session.lint().to_json()),
                 digest(serve::render_request(session, rank))};
}

void expect_golden(const Digests& got, const std::string& what) {
  EXPECT_EQ(got.table, kCaseTableDigest)
      << what << ": case table digest 0x" << std::hex << got.table;
  EXPECT_EQ(got.lint, kLintJsonDigest) << what << ": lint JSON digest 0x" << std::hex << got.lint;
  EXPECT_EQ(got.rank, kRankDigest) << what << ": rank digest 0x" << std::hex << got.rank;
}

TEST(Golden, DatasetCoversBothDialects) {
  const DiskDataset data = golden_data();
  std::set<Dialect> dialects;
  for (const auto& net : data.inventory.networks())
    for (const auto* d : data.inventory.devices_in(net.network_id))
      if (!data.snapshots.for_device(d->device_id).empty()) dialects.insert(dialect_of(d->vendor));
  EXPECT_EQ(dialects.size(), 2u);
}

TEST(Golden, DigestsPinnedAtEveryThreadCount) {
  const DiskDataset data = golden_data();
  for (int threads : {1, 2, 8}) {
    AnalysisSession session = session_over(data, kMonths, threads);
    expect_golden(digests_of(session), std::to_string(threads) + " threads");
  }
}

TEST(Golden, DigestsPinnedAfterAppendingTheLastMonth) {
  const SplitDataset split = split_dataset(golden_data(), kMonths - 1);
  ASSERT_EQ(split.deltas.size(), 1u);
  for (int threads : {1, 8}) {
    AnalysisSession session = session_over(split.base, kMonths - 1, threads);
    session.case_table();
    session.lint();
    session.dependence();
    const AnalysisSession::AppendResult res = session.append_month(split.deltas.front());
    EXPECT_TRUE(res.table_incremental);
    expect_golden(digests_of(session), "append at " + std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace mpa
