// ndb_inspect — dump a NeuroDB data directory (or a single file).
//
//   ndb_inspect <data-dir>          header + page directory of base.ndb and
//                                   every <backend>.pages file, plus every
//                                   WAL record (epoch, size, decoded ops)
//   ndb_inspect <file.ndb|.pages>   one page file
//   ndb_inspect <wal.ndb>           one write-ahead log
//   ndb_inspect wal <dir|wal.ndb>   one write-ahead log; --stats prints a
//                                   single summary line instead (records,
//                                   bytes, epoch span, kind histogram,
//                                   torn-tail flag)
//   ndb_inspect stats <data-dir>    recover the engine read-only and print
//                                   its metrics snapshot as JSON (--prom:
//                                   Prometheus text exposition instead) —
//                                   recovery-time state gauges (epoch,
//                                   delta records, pool/cache/io totals)
//   ndb_inspect tree <data-dir>     recover the engine and print the paged
//                                   R-tree's per-level profile: node count,
//                                   entries, fill %, pairwise MBR overlap
//                                   volume, root to leaves
//
// The dump commands are read-only: they never create, repair or truncate
// anything. `stats` and `tree` run the real recovery path
// (QueryEngine::Open), which truncates a torn WAL tail exactly as a
// restart would. Exit code 0 on a
// clean dump, 1 on unreadable/corrupt input (after printing what it could).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/durability.h"
#include "engine/query_engine.h"
#include "storage/disk/file.h"
#include "storage/disk/page_file.h"
#include "storage/disk/wal.h"

using namespace neurodb;

namespace {

int DumpPageFile(const std::string& path) {
  auto pf = storage::PageFile::Open(storage::DefaultFileSystem(), path);
  if (!pf.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 pf.status().ToString().c_str());
    return 1;
  }
  const storage::PageFile& file = **pf;
  std::printf("%s\n", path.c_str());
  std::printf("  page file: epoch=%llu block_bytes=%u file_blocks=%llu "
              "pages=%zu payload_bytes=%llu\n",
              static_cast<unsigned long long>(file.epoch()),
              file.block_bytes(),
              static_cast<unsigned long long>(file.file_blocks()),
              file.NumPages(),
              static_cast<unsigned long long>(file.PayloadBytes()));
  std::printf("  page directory (%zu entries):\n", file.NumPages());
  for (const auto& [id, run] : file.directory()) {
    std::printf("    page %-8u blocks [%u, +%u) payload %u bytes\n", id,
                run.first_block, run.num_blocks, run.payload_bytes);
  }
  if (!file.free_runs().empty()) {
    std::printf("  free runs (%zu):\n", file.free_runs().size());
    for (const auto& run : file.free_runs()) {
      std::printf("    blocks [%u, +%u)\n", run.first_block, run.num_blocks);
    }
  }
  return 0;
}

int DumpWal(const std::string& path, bool stats_only = false) {
  if (!storage::DefaultFileSystem()->Exists(path)) {
    std::fprintf(stderr, "%s: no such file\n", path.c_str());
    return 1;
  }
  auto wal =
      storage::WriteAheadLog::OpenOrCreate(storage::DefaultFileSystem(), path);
  if (!wal.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 wal.status().ToString().c_str());
    return 1;
  }
  if (!stats_only) std::printf("%s\n", path.c_str());
  storage::WriteAheadLog::ReplayStats stats;
  size_t update_batches = 0, load_records = 0, epoch_bumps = 0, unknown = 0;
  uint64_t payload_bytes = 0;
  storage::Epoch epoch_lo = 0, epoch_hi = 0;
  bool any_epoch = false;
  Status scanned = (*wal)->Replay(
      [&](const storage::WriteAheadLog::Record& record) {
        payload_bytes += record.payload.size();
        if (!any_epoch) {
          epoch_lo = epoch_hi = record.epoch;
          any_epoch = true;
        } else {
          epoch_lo = std::min(epoch_lo, record.epoch);
          epoch_hi = std::max(epoch_hi, record.epoch);
        }
        auto kind = engine::WalPayloadKind(record.payload);
        if (kind.ok() && *kind == engine::kWalKindUpdateBatch) {
          ++update_batches;
        } else if (kind.ok() && *kind == engine::kWalKindLoadElements) {
          ++load_records;
        } else if (kind.ok() && *kind == engine::kWalKindEpochBump) {
          ++epoch_bumps;
        } else {
          ++unknown;
        }
        if (stats_only) return Status::OK();
        std::printf("  record @%-8llu epoch=%-6llu payload=%zu bytes",
                    static_cast<unsigned long long>(record.offset),
                    static_cast<unsigned long long>(record.epoch),
                    record.payload.size());
        if (kind.ok() && *kind == engine::kWalKindUpdateBatch) {
          auto ops = engine::DecodeUpdateBatch(record.payload);
          if (ops.ok()) {
            size_t inserts = 0, erases = 0, moves = 0;
            for (const auto& op : *ops) {
              if (op.kind == engine::UpdateKind::kInsert) ++inserts;
              else if (op.kind == engine::UpdateKind::kErase) ++erases;
              else ++moves;
            }
            std::printf("  (%zu ops: %zu insert, %zu erase, %zu move)\n",
                        ops->size(), inserts, erases, moves);
          } else {
            std::printf("  (malformed update batch: %s)\n",
                        ops.status().ToString().c_str());
          }
        } else if (kind.ok() && *kind == engine::kWalKindLoadElements) {
          auto elements = engine::DecodeLoadElements(record.payload);
          if (elements.ok()) {
            std::printf("  (load record: %zu elements)\n", elements->size());
          } else {
            std::printf("  (malformed load record: %s)\n",
                        elements.status().ToString().c_str());
          }
        } else if (kind.ok() && *kind == engine::kWalKindEpochBump) {
          std::printf("  (epoch bump — op-less Compact epoch advance)\n");
        } else {
          std::printf("  (payload not a known record kind)\n");
        }
        return Status::OK();
      },
      &stats);
  if (!scanned.ok()) {
    std::fprintf(stderr, "  scan failed: %s\n", scanned.ToString().c_str());
    return 1;
  }
  if (stats_only) {
    // One summary line: what a shell script (or a human eyeballing group
    // commit) wants — how many records, how big, which epochs, what kinds.
    std::printf(
        "%s: records=%zu payload_bytes=%llu end_offset=%llu "
        "epochs=[%llu..%llu] update_batches=%zu load_records=%zu "
        "epoch_bumps=%zu unknown=%zu torn_tail=%s\n",
        path.c_str(), stats.records,
        static_cast<unsigned long long>(payload_bytes),
        static_cast<unsigned long long>(stats.end_offset),
        static_cast<unsigned long long>(any_epoch ? epoch_lo : 0),
        static_cast<unsigned long long>(any_epoch ? epoch_hi : 0),
        update_batches, load_records, epoch_bumps, unknown,
        stats.torn_tail ? "yes" : "no");
    return 0;
  }
  std::printf("  %zu intact records, end_offset=%llu\n", stats.records,
              static_cast<unsigned long long>(stats.end_offset));
  if (stats.torn_tail) {
    std::printf("  TORN TAIL: %llu trailing bytes are not an intact record "
                "(recovery would truncate them)\n",
                static_cast<unsigned long long>(stats.dropped_bytes));
  }
  return 0;
}

int DumpDir(const std::string& dir) {
  auto names = storage::DefaultFileSystem()->ListDir(dir);
  if (!names.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                 names.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> sorted = *names;
  std::sort(sorted.begin(), sorted.end());
  // base.ndb first, then backend page files, then the WAL — the order a
  // reader wants to reason about recovery in.
  int rc = 0;
  bool any = false;
  for (const std::string& name : sorted) {
    if (name == "base.ndb" ||
        (name.size() > 6 &&
         name.compare(name.size() - 6, 6, ".pages") == 0)) {
      any = true;
      rc |= DumpPageFile(dir + "/" + name);
    }
  }
  for (const std::string& name : sorted) {
    if (name == "wal.ndb") {
      any = true;
      rc |= DumpWal(dir + "/" + name);
    }
  }
  if (!any) {
    std::fprintf(stderr, "%s: no base.ndb, *.pages or wal.ndb files\n",
                 dir.c_str());
    return 1;
  }
  return rc;
}

int DumpTree(const std::string& dir) {
  engine::RecoveryReport recovery;
  auto opened = engine::QueryEngine::Open(dir, engine::EngineOptions(),
                                          &recovery);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const rtree::PagedRTree& tree = (*opened)->rtree_backend()->tree();
  const std::vector<rtree::LevelStats>& profile = tree.LevelProfile();
  std::printf("%s: R-tree  elements=%zu nodes=%zu height=%d\n", dir.c_str(),
              tree.size(), tree.NumPages(), tree.Height());
  if (profile.empty()) {
    std::printf("  (empty tree)\n");
    return 0;
  }
  std::printf("  %-6s %-8s %-9s %-9s %-7s %-14s %s\n", "level", "nodes",
              "entries", "capacity", "fill%", "overlap um^3", "");
  // LevelProfile is leaf-first; print root-first, the way the tree reads.
  for (auto it = profile.rbegin(); it != profile.rend(); ++it) {
    std::string note = it->level == 0 ? "(leaves)" : "";
    if (it->overlap_sampled) note += " (overlap sampled)";
    std::printf("  %-6d %-8zu %-9zu %-9zu %-7.1f %-14.0f %s\n", it->level,
                it->nodes, it->entries, it->capacity, it->mean_fill * 100.0,
                it->overlap_volume, note.c_str());
  }
  return 0;
}

int DumpStats(const std::string& dir, bool prometheus) {
  engine::RecoveryReport recovery;
  auto opened = engine::QueryEngine::Open(dir, engine::EngineOptions(),
                                          &recovery);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const obs::MetricsSnapshot snapshot = (*opened)->MetricsSnapshot();
  if (prometheus) {
    std::fputs(snapshot.ToPrometheus().c_str(), stdout);
  } else {
    std::printf("%s\n", snapshot.ToJson().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "wal") == 0) {
    bool stats_only = false;
    std::string target;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--stats") == 0) {
        stats_only = true;
      } else if (target.empty()) {
        target = argv[i];
      } else {
        target.clear();
        break;
      }
    }
    if (target.empty()) {
      std::fprintf(stderr,
                   "usage: ndb_inspect wal <data-dir | wal.ndb> [--stats]\n");
      return 1;
    }
    if (std::filesystem::is_directory(target)) target += "/wal.ndb";
    return DumpWal(target, stats_only);
  }
  if (argc >= 2 && std::strcmp(argv[1], "tree") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: ndb_inspect tree <data-dir>\n");
      return 1;
    }
    return DumpTree(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "stats") == 0) {
    bool prometheus = false;
    std::string dir;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--prom") == 0) {
        prometheus = true;
      } else if (dir.empty()) {
        dir = argv[i];
      } else {
        dir.clear();
        break;
      }
    }
    if (dir.empty()) {
      std::fprintf(stderr, "usage: ndb_inspect stats <data-dir> [--prom]\n");
      return 1;
    }
    return DumpStats(dir, prometheus);
  }
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: ndb_inspect <data-dir | file.ndb | file.pages>\n"
                 "       ndb_inspect wal <data-dir | wal.ndb> [--stats]\n"
                 "       ndb_inspect stats <data-dir> [--prom]\n"
                 "       ndb_inspect tree <data-dir>\n");
    return argc == 2 ? 0 : 1;
  }
  std::string path = argv[1];
  if (std::filesystem::is_directory(path)) return DumpDir(path);
  if (path.size() >= 7 &&
      path.compare(path.size() - 7, 7, "wal.ndb") == 0) {
    return DumpWal(path);
  }
  return DumpPageFile(path);
}
