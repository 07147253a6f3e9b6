// Tests for zero-copy snapshot text (util/shared_text.hpp,
// util/mapped_file.hpp): handle semantics; snapshot text stays readable
// after every container it was loaded into or copied out of is gone
// (CI runs these under ASan and TSan, so a dangling view fails there);
// dataset writers replace files, so a session over the old files keeps
// its data; and a seeded mutation sweep of snapshots.log in which every
// mutant either parses or throws one of the parser's named DataErrors.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "case_dir.hpp"
#include "engine/session.hpp"
#include "io/columnar.hpp"
#include "io/dataset_io.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/mapped_file.hpp"
#include "util/rng.hpp"
#include "util/shared_text.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

OspDataset small_osp(std::uint64_t seed) {
  OspOptions opts;
  opts.num_networks = 4;
  opts.num_months = 3;
  opts.seed = seed;
  return generate_osp(opts);
}

DiskDataset to_disk(const OspDataset& d) { return DiskDataset{d.inventory, d.snapshots, d.tickets}; }

std::vector<ConfigSnapshot> all_snapshots(const SnapshotStore& store) {
  std::vector<ConfigSnapshot> out;
  for (const auto& device_id : store.devices())
    for (const auto& snap : store.for_device(device_id)) out.push_back(snap);
  return out;
}

/// Every field of every snapshot, owned, in order.
std::vector<std::string> records(const std::vector<ConfigSnapshot>& snaps) {
  std::vector<std::string> out;
  for (const auto& s : snaps)
    out.push_back(s.device_id + ' ' + std::to_string(s.time) + ' ' + s.login + '\n' +
                  std::string(s.text.view()));
  return out;
}

// ---------------------------------------------------------------------------
// The handle.

TEST(SharedText, CopiesAndSubstringsShareBytes) {
  const SharedText a(std::string("hostname r1\ninterface e0\n"));
  const SharedText b = a;
  EXPECT_EQ(a.data(), b.data());
  const SharedText c = a.substr(12, 9);
  EXPECT_EQ(c, "interface");
  EXPECT_EQ(c.data(), a.data() + 12);
  EXPECT_EQ(std::string(c), "interface");
  EXPECT_EQ(a, b);
  EXPECT_EQ(SharedText("x"), std::string("x"));
  EXPECT_TRUE(SharedText().view().empty());
}

TEST(SharedText, SubstringOutlivesItsSource) {
  SharedText tail;
  {
    const SharedText whole(std::string(1000, 'a') + "tail");
    tail = whole.substr(1000);
  }
  EXPECT_EQ(tail, "tail");
}

TEST(MappedFile, MapsReadsAndRejectsMissingFilesByName) {
  const std::string path = case_dir() + "f.txt";
  replace_file(path, "mapped bytes\n", "test");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const auto file = std::make_shared<const MappedFile>(path, "test");
  EXPECT_EQ(file->text(), "mapped bytes\n");
  EXPECT_EQ(read_file(path, "test"), "mapped bytes\n");
  replace_file(path, "", "test");
  EXPECT_EQ(MappedFile(path, "test").text(), "");
  // The earlier mapping still shows the bytes it mapped.
  EXPECT_EQ(file->text(), "mapped bytes\n");
  try {
    MappedFile missing(case_dir() + "nope", "who");
    FAIL() << "mapped a missing file";
  } catch (const DataError& e) {
    EXPECT_EQ(std::string(e.what()), "who: cannot open " + case_dir() + "nope");
  }
}

// ---------------------------------------------------------------------------
// Lifetimes: a snapshot copied out of any loaded container reads its
// text after the container, and the files it was loaded from, are gone.

TEST(SnapshotTextLifetime, CsvDatasetCopyOutlivesDatasetAndFiles) {
  const OspDataset osp = small_osp(3);
  const std::string dir = case_dir() + "csv";
  save_dataset(to_disk(osp), dir);
  std::vector<ConfigSnapshot> copies;
  {
    const DiskDataset d = load_dataset(dir);
    copies = all_snapshots(d.snapshots);
  }
  fs::remove_all(dir);
  EXPECT_EQ(records(copies), records(all_snapshots(osp.snapshots)));
}

TEST(SnapshotTextLifetime, MpacDatasetCopyOutlivesColumnarDataset) {
  const OspDataset osp = small_osp(3);
  const std::string dir = case_dir() + "mpac";
  ColumnarWriteOptions wopts;
  wopts.max_shard_bytes = 32 << 10;  // several shards, several mappings
  save_columnar(to_disk(osp), dir, wopts);
  DiskDataset d;
  {
    const ColumnarDataset c = load_columnar(dir);
    ASSERT_GT(c.shards().size(), 1u);
    d = c.to_disk_dataset();
  }
  std::vector<ConfigSnapshot> copies = all_snapshots(d.snapshots);
  d = DiskDataset{};
  fs::remove_all(dir);
  EXPECT_EQ(records(copies), records(all_snapshots(osp.snapshots)));
}

TEST(SnapshotTextLifetime, MonthDeltaCopyOutlivesDelta) {
  const OspDataset osp = small_osp(3);
  const SplitDataset split = split_dataset(to_disk(osp), 1);
  ASSERT_FALSE(split.deltas.front().snapshots.empty());
  const std::string dir = case_dir() + "delta";
  save_month_delta(split.deltas.front(), dir);
  std::vector<ConfigSnapshot> copies;
  {
    const MonthDelta m = load_month_delta(dir);
    copies = m.snapshots;
  }
  fs::remove_all(dir);
  EXPECT_EQ(records(copies), records(split.deltas.front().snapshots));
}

TEST(SnapshotTextLifetime, SplitDatasetCopyOutlivesSplitAndSource) {
  const OspDataset osp = small_osp(3);
  const std::string dir = case_dir() + "csv";
  save_dataset(to_disk(osp), dir);
  std::vector<ConfigSnapshot> base, deltas;
  {
    const DiskDataset d = load_dataset(dir);
    const SplitDataset split = split_dataset(d, 1);
    base = all_snapshots(split.base.snapshots);
    for (const MonthDelta& m : split.deltas)
      deltas.insert(deltas.end(), m.snapshots.begin(), m.snapshots.end());
  }
  fs::remove_all(dir);
  const SplitDataset want = split_dataset(to_disk(osp), 1);
  std::vector<ConfigSnapshot> want_deltas;
  for (const MonthDelta& m : want.deltas)
    want_deltas.insert(want_deltas.end(), m.snapshots.begin(), m.snapshots.end());
  EXPECT_EQ(records(base), records(all_snapshots(want.base.snapshots)));
  EXPECT_EQ(records(deltas), records(want_deltas));
}

// ---------------------------------------------------------------------------
// Writers replace files: saving new data into a directory a session
// has open leaves the session's (mapped) data as it was.

TEST(DatasetWriters, SaveIntoAnOpenSessionsDirectoryLeavesItsDataIntact) {
  const OspDataset a = small_osp(3);
  const OspDataset b = small_osp(4);
  SessionOptions so;
  so.threads = 1;
  for (const bool mpac : {false, true}) {
    const auto save = [&](const OspDataset& d, const std::string& dir) {
      if (mpac)
        save_columnar(to_disk(d), dir);
      else
        save_dataset(to_disk(d), dir);
    };
    const std::string dir = case_dir() + (mpac ? "mpac" : "csv");
    const std::string ref_a = case_dir() + (mpac ? "mpac_a" : "csv_a");
    const std::string ref_b = case_dir() + (mpac ? "mpac_b" : "csv_b");
    save(a, ref_a);
    save(b, ref_b);
    const std::string want_a = AnalysisSession::from_directory(ref_a, so).case_table().to_csv();
    const std::string want_b = AnalysisSession::from_directory(ref_b, so).case_table().to_csv();
    ASSERT_NE(want_a, want_b);

    save(a, dir);
    AnalysisSession session = AnalysisSession::from_directory(dir, so);
    save(b, dir);
    // Inferred after the rewrite, from the text the session mapped
    // before it.
    const std::string got = session.case_table().to_csv();
    EXPECT_EQ(fnv1a_words(got.data(), got.size()), fnv1a_words(want_a.data(), want_a.size()))
        << (mpac ? "mpac" : "csv");
    EXPECT_EQ(AnalysisSession::from_directory(dir, so).case_table().to_csv(), want_b);
    for (const auto& entry : fs::directory_iterator(dir))
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

// ---------------------------------------------------------------------------
// Mutation sweep of the snapshot-log parser over mapped bytes.

/// The parser's named errors (dataset_io.hpp parse_snapshot_log).
bool is_named_error(const std::string& what) {
  for (const std::string_view prefix :
       {"snapshots.log: truncated header", "snapshots.log: bad header: ",
        "snapshots.log: negative snapshot length in header: ", "snapshots.log: truncated body",
        "bad integer for snapshot length: ", "trailing junk in snapshot length: ",
        "bad integer for snapshot time: ", "trailing junk in snapshot time: "})
    if (what.rfind(prefix, 0) == 0) return true;
  return false;
}

std::string summary(const std::vector<ConfigSnapshot>& snaps) {
  Fnv h;
  for (const std::string& r : records(snaps)) h.str(r);
  return "parsed " + std::to_string(snaps.size()) + " " + std::to_string(h.value());
}

/// Parse `log` from an exact-size heap buffer (ASan flags a read past
/// its end) and through load_month_delta, which maps the file at
/// `dir`/snapshots.log. Both must agree: the same records or the same
/// named error. Returns that outcome.
std::string outcome(const std::string& log, const std::string& dir) {
  auto heap = std::make_shared<const std::vector<char>>(log.begin(), log.end());
  std::string from_heap;
  try {
    from_heap = summary(parse_snapshot_log(
        SharedText(std::string_view(heap->data(), heap->size()), heap)));
  } catch (const DataError& e) {
    from_heap = e.what();
    EXPECT_TRUE(is_named_error(from_heap)) << from_heap;
  }
  replace_file(dir + "/snapshots.log", log, "test");
  std::string from_map;
  try {
    from_map = summary(load_month_delta(dir).snapshots);
  } catch (const DataError& e) {
    from_map = e.what();
  }
  EXPECT_EQ(from_heap, from_map);
  return from_heap;
}

TEST(SnapshotLogMutation, EveryMutantParsesOrThrowsANamedError) {
  const OspDataset osp = small_osp(7);
  const SplitDataset split = split_dataset(to_disk(osp), 2);
  const std::string dir = case_dir() + "delta";
  save_month_delta(split.deltas.front(), dir);
  const std::string log = read_file(dir + "/snapshots.log", "test");
  ASSERT_EQ(outcome(log, dir), summary(split.deltas.front().snapshots));

  // Record boundaries of the valid log.
  struct Record {
    std::size_t header, eol, body_end;
    std::size_t length_at, length_len;  ///< The length token.
    std::size_t length;
  };
  std::vector<Record> recs;
  for (std::size_t pos = 0; pos < log.size();) {
    Record r;
    r.header = pos;
    r.eol = log.find('\n', pos);
    r.length_at = log.rfind(' ', r.eol) + 1;
    r.length_len = r.eol - r.length_at;
    r.length = std::stoull(log.substr(r.length_at, r.length_len));
    r.body_end = r.eol + 1 + r.length;
    recs.push_back(r);
    pos = r.body_end;
  }
  ASSERT_GE(recs.size(), 5u);

  int parsed = 0, rejected = 0;
  const auto count = [&](const std::string& mutant) {
    (outcome(mutant, dir).rfind("parsed ", 0) == 0 ? parsed : rejected)++;
  };

  count("");                                  // empty file
  count(log.substr(0, log.size() - 1));       // final newline dropped
  count(log + "@snapshot d1 5 ops 12\n");     // header with no body
  count(log + "@snapshot d1 5 ops 0\n");      // empty body: parses
  count(log + "@snapshot d1 5 ops 12");       // header with no newline
  // Truncation at every header and body boundary, and one byte either
  // side of it.
  for (const Record& r : recs)
    for (const std::size_t at : {r.header, r.eol, r.eol + 1, r.body_end - 1})
      for (const std::size_t cut : {at - (at > 0 ? 1 : 0), at, at + 1})
        if (cut <= log.size()) count(log.substr(0, cut));

  // Seeded length-token rewrites: digit edits, off-by-one, negative,
  // zero, and lengths past the file and past every integer type.
  Rng rng(20150);
  for (int i = 0; i < 300; ++i) {
    const Record& r =
        recs[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(recs.size()) - 1))];
    std::string len = log.substr(r.length_at, r.length_len);
    switch (rng.uniform_int(0, 7)) {
      case 0:
        len[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(len.size()) - 1))] =
            static_cast<char>('0' + rng.uniform_int(0, 9));
        break;
      case 1: len = std::to_string(r.length + 1); break;
      case 2: len = std::to_string(r.length == 0 ? 0 : r.length - 1); break;
      case 3: len = "-" + len; break;
      case 4: len = "0"; break;
      case 5: len = std::to_string(log.size()); break;
      case 6: len = "99999999999999999999999"; break;
      default: len = rng.bernoulli(0.5) ? "18446744073709551615" : "9223372036854775807"; break;
    }
    count(log.substr(0, r.length_at) + len + log.substr(r.eol));
  }
  // Both outcomes occur; every rejection was a named DataError
  // (checked in outcome()).
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace mpa
