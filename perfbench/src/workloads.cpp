#include "perfbench/src/workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <omu/omu.hpp>

#include "data/datasets.hpp"
#include "geom/rng.hpp"
#include "localgrid/hybrid_backend.hpp"
#include "map/scan_inserter.hpp"
#include "obs/prom_text.hpp"
#include "omu_api/convert.hpp"
#include "perfbench/src/ledger.hpp"
#include "query/query_service.hpp"
#include "service/client.hpp"
#include "service/map_service.hpp"
#include "service/messages.hpp"
#include "service/transport.hpp"
#include "world/tiled_world_map.hpp"

namespace omu::perfbench {
namespace {

namespace fs = std::filesystem;

// ---- Workload constants -----------------------------------------------------
// Sizes are fixed here, never derived from the seed, so every seed runs the
// same shape of work.

constexpr double kResolution = 0.2;
constexpr std::size_t kQueryPoints = 512;  // one collision-check batch
// Distinct query batches generated per stream. Latency percentiles are taken
// over items (scans, batches), and p90 keeps ten beyond it from 100 items on.
constexpr std::size_t kBatchPool = 128;
constexpr int kSetupRepeats = 5;

constexpr double kFr079Scale = 0.3;           // ~27k points per scan
constexpr std::size_t kFr079Inputs = 2;          // seeds taken in turn: 2 x 66 scan items
constexpr std::size_t kFr079SweepBatches = 256;  // closing query sweep per pass

constexpr double kFleetScale = 0.1;  // New College at 1/10 length: sparser poses
constexpr std::size_t kFleetFlushEvery = 10;
constexpr std::size_t kFleetPassGroups = 60;  // 600 scans per tenant and pass
constexpr int kTileShift = 6;                 // 12.8 m tiles
// Below the two world-backed tenants' joint resident footprint, so the
// shared pager evicts and reloads.
constexpr std::size_t kFleetBudgetBytes = 3u << 19;

// The service replay that prices the wire on fr079_dense streams this many
// timed scans.
constexpr std::size_t kServiceReplayScans = 20;

// ---- Shared plumbing --------------------------------------------------------

double seconds_since(int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Moves the calling thread to the next of the CPUs it may run on at each
/// next(), and gives it back its whole set when destroyed. A single-threaded
/// workload takes the next CPU every pass, so the repeats of an item spread
/// over every core a shared host lends the run, and a core that a neighbour
/// keeps busy cannot slow them all. Best effort: if the kernel refuses, the
/// pass runs wherever the scheduler puts it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Operation outcomes and correctness findings, shared by all threads.
class Gate {
 public:
  bool op(const Status& s, const char* what) { return record(s.ok(), what, s.to_string()); }
  bool op(const service::WireStatus& s, const char* what) { return record(s.ok(), what, s.message); }
  template <typename T>
  bool op(const Result<T>& r, const char* what) {
    return record(r.ok(), what, r.ok() ? "" : r.status().to_string());
  }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard lock(mutex_);
    if (failures_.size() < 32) failures_.push_back(what);
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const {
    std::lock_guard lock(mutex_);
    return failures_;
  }

 private:
  bool record(bool ok, const char* what, const std::string& message) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (ok) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    check(false, std::string(what) + " failed: " + message);
    return false;
  }

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
};

using Scans = std::vector<data::DatasetScan>;

Scans generate(data::DatasetId id, double scale, uint64_t seed, std::size_t first,
               std::size_t count) {
  const data::SyntheticDataset dataset(id, scale, seed);
  count = std::min(count, dataset.scan_count() - first);
  Scans scans;
  scans.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) scans.push_back(dataset.scan(i));
  return scans;
}

Vec3 origin_of(const data::DatasetScan& scan) {
  const geom::Vec3d o = scan.pose.translation();
  return Vec3{o.x, o.y, o.z};
}

const float* xyz_of(const data::DatasetScan& scan) {
  return scan.points.empty() ? nullptr : &scan.points.points().front().x;
}

std::vector<float> flat_xyz(const data::DatasetScan& scan) {
  const float* p = xyz_of(scan);
  return std::vector<float>(p, p + 3 * scan.points.size());
}

Status insert(Mapper& mapper, const data::DatasetScan& scan) {
  return mapper.insert(xyz_of(scan), scan.points.size(), origin_of(scan));
}

map::OccupancyParams occupancy_params() { return api::to_occupancy_params(SensorModel{}); }

/// One collision check: points sampled along a segment, plus its box.
struct QueryBatch {
  std::vector<Vec3> points;
  Box box;
};

/// Segments start near the trajectory (scan origins) and point anywhere
/// roughly horizontal, so batches mix free, occupied and unknown space.
std::vector<QueryBatch> make_batches(const Scans& scans, uint64_t seed) {
  geom::SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + 0x51ED);
  std::vector<QueryBatch> batches(kBatchPool);
  for (QueryBatch& b : batches) {
    const Vec3 anchor = origin_of(scans[rng.next_below(scans.size())]);
    const Vec3 a{anchor.x + rng.uniform(-2.0, 2.0), anchor.y + rng.uniform(-2.0, 2.0),
                 anchor.z + rng.uniform(-0.5, 0.5)};
    const double yaw = rng.uniform(0.0, 6.283185307179586);
    const double pitch = rng.uniform(-0.3, 0.3);
    const double len = rng.uniform(2.0, 6.0);
    const Vec3 d{std::cos(yaw) * std::cos(pitch) * len, std::sin(yaw) * std::cos(pitch) * len,
                 std::sin(pitch) * len};
    b.points.resize(kQueryPoints);
    for (std::size_t i = 0; i < kQueryPoints; ++i) {
      const double t = (static_cast<double>(i) + 0.5) / kQueryPoints;
      b.points[i] = Vec3{a.x + d.x * t, a.y + d.y * t, a.z + d.z * t};
    }
    const Vec3 e{a.x + d.x, a.y + d.y, a.z + d.z};
    b.box.min = Vec3{std::min(a.x, e.x) - 0.25, std::min(a.y, e.y) - 0.25, std::min(a.z, e.z) - 0.25};
    b.box.max = Vec3{std::max(a.x, e.x) + 0.25, std::max(a.y, e.y) + 0.25, std::max(a.z, e.z) + 0.25};
  }
  return batches;
}

std::vector<double> flat_positions(const QueryBatch& b) {
  std::vector<double> out;
  out.reserve(3 * b.points.size());
  for (const Vec3& p : b.points) out.insert(out.end(), {p.x, p.y, p.z});
  return out;
}

/// The correctness oracle: the serial octree fed the same scans through
/// ScanInserter, outside any facade.
struct Reference {
  map::OccupancyOctree tree{kResolution, occupancy_params()};
  map::ScanInserter inserter{tree};

  void insert(const data::DatasetScan& scan) {
    inserter.insert_scan(scan.points, scan.pose.translation());
  }
  uint64_t hash() const { return tree.content_hash(); }
};

/// Answers of one batch, kept for the check against the reference.
struct Answer {
  const QueryBatch* batch = nullptr;
  std::vector<Occupancy> occupancy;
  bool box_occupied = false;
};

/// The reference's answers to one batch, kept where the tree is not.
struct Expected {
  std::vector<int> occupancy;
  bool box_occupied = false;
};

Expected reference_answer(const Reference& ref, const QueryBatch& batch) {
  Expected e;
  for (const Vec3& p : batch.points) {
    e.occupancy.push_back(static_cast<int>(ref.tree.classify(geom::Vec3d{p.x, p.y, p.z})));
  }
  const geom::Aabb box(geom::Vec3d{batch.box.min.x, batch.box.min.y, batch.box.min.z},
                       geom::Vec3d{batch.box.max.x, batch.box.max.y, batch.box.max.z});
  e.box_occupied = ref.tree.any_occupied_in_box(box);
  return e;
}

bool matches(const Answer& a, const Expected& e) {
  bool same = a.occupancy.size() == e.occupancy.size() && a.box_occupied == e.box_occupied;
  for (std::size_t i = 0; same && i < a.occupancy.size(); ++i) {
    same = static_cast<int>(a.occupancy[i]) == e.occupancy[i];
  }
  return same;
}

void check_answers(Gate& gate, const Reference& ref, const std::vector<Answer>& answers,
                   const std::string& who) {
  for (const Answer& a : answers) {
    gate.check(matches(a, reference_answer(ref, *a.batch)),
               who + ": query answers differ from the reference octree");
  }
}

/// One collision-check batch on a fresh snapshot: acquire, classify the
/// segment samples, test the box. Returns the batch latency in ns.
int64_t collision_check(const Mapper& mapper, const QueryBatch& batch, Gate& gate, SpanLog* log,
                        uint64_t scan_id, Answer& answer) {
  ScopedSpan root(log, "query.batch", scan_id);
  const int64_t t0 = now_ns();
  Result<MapView> view = [&] {
    ScopedSpan s(log, "query.snapshot_acquire", scan_id);
    return mapper.snapshot();
  }();
  if (!gate.op(view, "snapshot")) return now_ns() - t0;
  {
    ScopedSpan s(log, "query.classify_batch", scan_id);
    view->classify_batch(batch.points, answer.occupancy);
  }
  {
    ScopedSpan s(log, "query.any_occupied_in_box", scan_id);
    answer.box_occupied = view->any_occupied_in_box(batch.box);
  }
  answer.batch = &batch;
  return now_ns() - t0;
}

// ---- Phase bookkeeping ------------------------------------------------------

/// Stop after `units` units of work when fixed, else once `seconds` passed.
struct StopRule {
  double seconds = 0.0;
  std::size_t units = 0;
  bool fixed = false;
  bool done(std::size_t units_done, int64_t start_ns) const {
    return fixed ? units_done >= units : seconds_since(start_ns) >= seconds;
  }
};

/// What one phase measured.
struct Phase {
  ItemBest scan_to_view_ms;  ///< per scan of the repeated stream
  ItemBest query_batch_us;   ///< per query batch of the pool
  /// Set by workloads whose scans run one after another on one writer, so
  /// that a scan's time and CPU time are its own: the voxel updates of one
  /// repeat of every scan item (the frame rate is these over the sum of the
  /// scans' best times), and each scan's best process CPU time.
  uint64_t serial_repeat_updates = 0;
  ItemBest serial_scan_cpu_ms;
  uint64_t voxel_updates = 0;
  uint64_t points = 0;
  uint64_t scans = 0;
  double window_s = 0.0;  ///< closed-loop mapping time
  double cpu_s = 0.0;     ///< process CPU time over the same window
  double wall_s = 0.0;    ///< whole phase, verification excluded
  // Deterministic counts, compared across phases with identical inputs.
  uint64_t flushes = 0;
  uint64_t chunks_rebuilt = 0;
  uint64_t bytes_rebuilt = 0;
  uint64_t bytes_reused = 0;
  double delta_bytes = 0.0;
  double delta_events = 0.0;
  // Paging counters of the phase (fleet_service; non-deterministic).
  double evictions = 0.0, reloads = 0.0, tile_writes = 0.0, peak_resident_bytes = 0.0;


  /// Cumulative figures at the end of each pass. Passes of one phase run
  /// interchangeable inputs, so reporting may take the best of them.
  struct Mark {
    uint64_t updates = 0, scans = 0;
    double window_s = 0.0, cpu_s = 0.0;
  };
  std::vector<Mark> pass_ends;

  void end_pass() { pass_ends.push_back(Mark{voxel_updates, scans, window_s, cpu_s}); }

  void add_publication(const MapperStats& s) {
    voxel_updates += s.ingest.voxel_updates;
    points += s.ingest.points_inserted;
    flushes += s.ingest.flushes;
    chunks_rebuilt += s.publication.chunks_rebuilt;
    bytes_rebuilt += s.publication.bytes_rebuilt;
    bytes_reused += s.publication.bytes_reused;
  }
};

/// Counters of `after` minus those of `before`, for the fields phases use.
MapperStats stats_since(const MapperStats& before, MapperStats after) {
  after.ingest.voxel_updates -= before.ingest.voxel_updates;
  after.ingest.points_inserted -= before.ingest.points_inserted;
  after.ingest.flushes -= before.ingest.flushes;
  after.publication.chunks_rebuilt -= before.publication.chunks_rebuilt;
  after.publication.bytes_rebuilt -= before.publication.bytes_rebuilt;
  after.publication.bytes_reused -= before.publication.bytes_reused;
  return after;
}

/// Span logs of one traced phase or replay, one per thread.
struct Trace {
  std::vector<std::unique_ptr<SpanLog>> logs;
  SpanLog* log(const std::string& thread) {
    logs.push_back(std::make_unique<SpanLog>(thread));
    return logs.back().get();
  }
  Ledger ledger() const {
    Ledger l;
    for (const auto& log : logs) l.add(*log);
    return l;
  }
};

// ---- Ledger replays (traced runs only) --------------------------------------

/// The facade and the hand-wired replay publish the same inputs through the
/// same QueryService, so their publication counts must agree exactly.
void check_publication(const std::string& workload, const Phase& facade,
                       const query::SnapshotPublishStats& handwired, Gate& gate) {
  gate.check(facade.bytes_rebuilt == handwired.bytes_rebuilt &&
                 facade.chunks_rebuilt == handwired.chunks_rebuilt,
             workload + ": facade and hand-wired publication counts differ");
}


/// A session's inputs: the first `count` scans, with a publication every
/// `flush_every` scans.
struct ReplayInput {
  const Scans* scans = nullptr;
  std::size_t count = 0;
  std::size_t flush_every = 1;
  uint64_t id_base = 0;
  const std::vector<QueryBatch>* batches = nullptr;

  /// Whether the k-th timed scan ends an epoch.
  bool publishes(std::size_t k) const { return (k + 1) % flush_every == 0 || k + 1 == count; }
};

struct ReplayCounts {
  uint64_t points = 0, updates = 0;
  std::size_t memory_bytes = 0;
  query::SnapshotPublishStats publish;
  uint64_t evictions = 0, reloads = 0, tile_writes = 0;
  std::size_t peak_resident_bytes = 0;
  uint64_t absorbed = 0, passed_through = 0, voxels_flushed = 0;
  uint64_t scans = 0;
};

/// The hand-wired stack the facade composes: ScanInserter ray batching into
/// an OctreeBackend published by a QueryService. A second pass sends the
/// same update batches through a budgeted TiledWorldMap and a
/// HybridMapBackend (its own pass, so neither disturbs the octree's caches).
/// Returns the octree's content hash after checking all three agree.
uint64_t handwired_replay(const ReplayInput& in, const std::string& world_dir, std::size_t budget,
                          SpanLog& log, ReplayCounts& out, Gate& gate) {
  map::UpdateBatch batch;

  // Pass 1: the octree stack alone.
  map::OccupancyOctree tree(kResolution, occupancy_params());
  map::OctreeBackend octree(tree);
  map::ScanInserter inserter(octree);
  query::QueryService publisher;
  publisher.refresh_from(octree);
  const query::SnapshotPublishStats pub0 = publisher.publish_stats();
  for (std::size_t k = 0; k < in.count; ++k) {
    const data::DatasetScan& scan = (*in.scans)[k];
    const uint64_t id = in.id_base + k;
    ScopedSpan root(&log, "replay.scan", id);
    map::ScanInsertResult r;
    {
      ScopedSpan s(&log, "map.collect_updates", id);
      batch.clear();
      r = inserter.collect_updates(scan.points, scan.pose.translation(), batch);
    }
    {
      ScopedSpan s(&log, "map.apply", id);
      octree.apply(batch);
    }
    out.points += r.points;
    out.updates += r.total_updates();
    if (in.publishes(k)) {
      ScopedSpan s(&log, "query.refresh_from", id);
      publisher.refresh_from(octree);
    }
  }
  out.scans += in.count;
  const query::SnapshotPublishStats pub = publisher.publish_stats();
  out.publish.publications += pub.publications - pub0.publications;
  out.publish.chunks_rebuilt += pub.chunks_rebuilt - pub0.chunks_rebuilt;
  out.publish.chunks_reused += pub.chunks_reused - pub0.chunks_reused;
  out.publish.bytes_rebuilt += pub.bytes_rebuilt - pub0.bytes_rebuilt;
  out.publish.bytes_reused += pub.bytes_reused - pub0.bytes_reused;
  out.memory_bytes = tree.memory_bytes();
  const uint64_t hash = octree.content_hash();

  // Pass 2: the paged world and the absorber on the same update batches.
  std::error_code ec;
  fs::remove_all(world_dir, ec);
  map::OccupancyOctree scratch_tree(kResolution, occupancy_params());
  map::OctreeBackend scratch(scratch_tree);
  map::ScanInserter collector(scratch);
  world::TiledWorldMap world(world::TiledWorldConfig{kResolution, occupancy_params(), kTileShift,
                                                     budget, world_dir});
  map::OccupancyOctree back_tree(kResolution, occupancy_params());
  map::OctreeBackend back(back_tree);
  localgrid::HybridMapBackend hybrid(back, localgrid::HybridConfig{});
  const auto collect = [&](const data::DatasetScan& scan) {
    batch.clear();
    collector.collect_updates(scan.points, scan.pose.translation(), batch);
  };
  const world::TilePagerStats pager0 = world.pager_stats();
  const localgrid::AbsorberStats abs0 = hybrid.absorber_stats();
  for (std::size_t k = 0; k < in.count; ++k) {
    const data::DatasetScan& scan = (*in.scans)[k];
    const uint64_t id = in.id_base + k;
    collect(scan);
    ScopedSpan root(&log, "replay.scan", id);
    {
      ScopedSpan s(&log, "world.apply", id);
      world.apply(batch);
    }
    {
      ScopedSpan s(&log, "localgrid.apply", id);
      hybrid.follow(scan.pose.translation());
      hybrid.apply(batch);
    }
    if (in.publishes(k)) {
      {
        ScopedSpan s(&log, "world.flush", id);
        world.flush();
      }
      ScopedSpan s(&log, "localgrid.flush", id);
      hybrid.flush();
    }
  }
  const world::TilePagerStats pager = world.pager_stats();
  out.evictions += pager.evictions - pager0.evictions;
  out.reloads += pager.reloads - pager0.reloads;
  out.tile_writes += pager.tile_writes - pager0.tile_writes;
  out.peak_resident_bytes = std::max(out.peak_resident_bytes, pager.peak_resident_bytes);
  const localgrid::AbsorberStats abs = hybrid.absorber_stats();
  out.absorbed += abs.updates_absorbed - abs0.updates_absorbed;
  out.passed_through += abs.updates_passed_through - abs0.updates_passed_through;
  out.voxels_flushed += abs.voxels_flushed - abs0.voxels_flushed;

  gate.check(world.content_hash() == hash, "ledger: tiled-world replay hash differs from octree");
  gate.check(hybrid.content_hash() == hash, "ledger: hybrid replay hash differs from octree");
  return hash;
}

/// The in-process facade on the same inputs as a service session: the base
/// the service tax divides by. Spans: base.insert, base.flush, and the
/// session's reads (query.snapshot_acquire / query.classify_batch).
uint64_t facade_replay(const MapperConfig& config, const ReplayInput& in, SpanLog& log,
                       Gate& gate, Phase* counts) {
  Result<Mapper> created = Mapper::create(config);
  if (!gate.op(created, "base create")) return 0;
  Mapper mapper = std::move(created).value();
  gate.op(mapper.flush(), "base flush");
  const MapperStats before = mapper.stats().value();
  std::size_t group = 0;
  for (std::size_t k = 0; k < in.count; ++k) {
    const uint64_t id = in.id_base + k;
    {
      ScopedSpan root(&log, "base.scan", id);
      ScopedSpan s(&log, "base.insert", id);
      gate.op(insert(mapper, (*in.scans)[k]), "base insert");
    }
    if (in.publishes(k)) {
      ScopedSpan root(&log, "base.epoch", id);
      {
        ScopedSpan s(&log, "base.flush", id);
        gate.op(mapper.flush(), "base flush");
      }
      Answer answer;
      collision_check(mapper, (*in.batches)[group++ % in.batches->size()], gate, &log, id, answer);
    }
  }
  if (counts != nullptr) counts->add_publication(stats_since(before, mapper.stats().value()));
  Result<uint64_t> hash = mapper.content_hash();
  gate.op(hash, "base content_hash");
  return hash.ok() ? *hash : 0;
}

/// Wire encode/decode plus frame checksum on the payloads a service
/// session sends: the insert requests and the query request/reply pairs.
/// Returns the bytes processed; time lands in "service.codec" spans.
uint64_t codec_replay(const ReplayInput& in, SpanLog& log, Gate& gate) {
  auto [writer, reader] = service::make_loopback_pair(8u << 20);
  uint64_t bytes = 0;
  const auto round_trip = [&](service::MsgType type, const auto& message, auto& decoded) {
    service::WireWriter w;
    message.encode(w);
    service::Frame frame{service::request_type(type), 1, w.take()};
    const std::vector<uint8_t> wire = service::encode_frame(frame);
    writer->write_all(wire.data(), wire.size());
    const std::optional<service::Frame> back = service::read_frame(*reader);
    gate.check(back.has_value() && back->payload == frame.payload, "codec: frame round trip");
    if (back) {
      service::WireReader r(back->payload);
      decoded.decode(r);
    }
    bytes += 2 * wire.size();
  };
  std::size_t group = 0;
  for (std::size_t k = 0; k < in.count; ++k) {
    const data::DatasetScan& scan = (*in.scans)[k];
    service::InsertRequest req;
    req.session_id = 1;
    const geom::Vec3d o = scan.pose.translation();
    req.origin[0] = o.x, req.origin[1] = o.y, req.origin[2] = o.z;
    req.xyz = flat_xyz(scan);
    service::InsertRequest decoded;
    {
      ScopedSpan s(&log, "service.codec", in.id_base + k);
      round_trip(service::MsgType::kInsert, req, decoded);
    }
    gate.check(decoded.xyz == req.xyz, "codec: insert payload round trip");
    if (in.publishes(k)) {
      service::QueryRequest q;
      q.session_id = 1;
      q.positions = flat_positions((*in.batches)[group++ % in.batches->size()]);
      service::QueryReply reply;
      reply.occupancy.assign(kQueryPoints, 1);
      service::QueryRequest q_back;
      service::QueryReply reply_back;
      ScopedSpan s(&log, "service.codec", in.id_base + k);
      round_trip(service::MsgType::kQuery, q, q_back);
      round_trip(service::MsgType::kQuery, reply, reply_back);
    }
  }
  return bytes;
}

// ---- Service rig --------------------------------------------------------------

struct TenantPlan {
  std::string name;
  service::SessionSpec spec;
  const Scans* scans = nullptr;
  std::vector<std::vector<float>> xyz;  ///< scans pre-flattened for the wire
  const std::vector<QueryBatch>* batches = nullptr;
};

/// An in-process MapService on a Unix socket with one connection, session
/// and subscribed mirror per tenant.
class ServiceRig {
 public:
  ServiceRig(const std::string& dir, std::vector<TenantPlan>* tenants, std::size_t budget,
             Gate& gate)
      : dir_(dir), tenants_(tenants), gate_(gate) {
    fs::create_directories(dir_);
    service::ServiceConfig cfg;
    cfg.world_root = dir_ + "/worlds";
    cfg.shared_resident_byte_budget = budget;
    host_ = std::make_unique<service::MapService>(cfg);
    socket_ = dir_ + "/fleet.sock";
    host_->start(service::SocketListener::listen_unix(socket_));
    for (TenantPlan& t : *tenants_) {
      auto c = std::make_unique<Client>();
      c->client = std::make_unique<service::ServiceClient>(service::connect_unix(socket_));
      Result<uint64_t> sid = c->client->create(t.spec);
      if (gate_.op(sid, "create session")) c->session = *sid;
      gate_.op(c->client->subscribe(c->session, &c->mirror), "subscribe");
      clients_.push_back(std::move(c));
    }
  }

  ~ServiceRig() {
    for (auto& c : clients_) {
      gate_.op(c->client->close_session(c->session), "close session");
      c->client->shutdown();
    }
    clients_.clear();
    host_->stop();
    host_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;

  /// Streams every tenant on its own thread until `stop` says so; fills
  /// `phase` and checks every tenant's map and mirror against the reference.
  void run(const StopRule& stop, std::size_t flush_every, Trace* trace, Phase& phase) {
    std::vector<std::thread> threads;
    std::vector<TenantRun> runs(clients_.size());
    std::vector<SpanLog*> logs(clients_.size(), nullptr);
    if (trace != nullptr) {
      for (std::size_t t = 0; t < clients_.size(); ++t) logs[t] = trace->log((*tenants_)[t].name);
    }
    streamed_.clear();
    hashes_.assign(clients_.size(), 0);
    const Counters before = read_counters();
    const double cpu0 = cpu_seconds();
    const int64_t start = now_ns();
    std::atomic<std::size_t> finished{0};
    for (std::size_t t = 0; t < clients_.size(); ++t) {
      threads.emplace_back([&, t] {
        try {
          stream(t, stop, flush_every, start, logs[t], runs[t]);
        } catch (const std::exception& e) {
          gate_.check(false, (*tenants_)[t].name + " client: " + e.what());
        }
        finished.fetch_add(1);
      });
    }
    // This thread only watches the shared budget while the clients run.
    std::size_t peak_resident = 0;
    while (finished.load() < threads.size()) {
      peak_resident = std::max(peak_resident, host_->budget_arbiter().total_bytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& th : threads) th.join();
    phase.peak_resident_bytes = std::max(phase.peak_resident_bytes, static_cast<double>(peak_resident));
    phase.window_s += seconds_since(start);
    phase.cpu_s += cpu_seconds() - cpu0;
    phase.wall_s += seconds_since(start);

    for (std::size_t t = 0; t < clients_.size(); ++t) {
      const TenantRun& run = runs[t];
      const TenantPlan& plan = (*tenants_)[t];
      // Items of different tenants never share a key.
      for (const auto& [scan, ms] : run.latency_ms) {
        phase.scan_to_view_ms.add(t * plan.scans->size() + scan, ms);
      }
      for (const auto& [batch, us] : run.query_us) {
        phase.query_batch_us.add(t * plan.batches->size() + batch, us);
      }
      phase.scans += run.scans;
      phase.flushes += run.flushes;
      streamed_.push_back(runs[t].scans);
    }
    add_counters(before, read_counters(), phase);
    phase.end_pass();
    for (std::size_t t = 0; t < clients_.size(); ++t) verify(t, runs[t]);
  }

  /// Scans each tenant streamed in the last run(), and its final map hash.
  const std::vector<std::size_t>& streamed() const { return streamed_; }
  const std::vector<uint64_t>& hashes() const { return hashes_; }

 private:
  struct Client {
    std::unique_ptr<service::ServiceClient> client;
    uint64_t session = 0;
    service::SubscriptionMirror mirror;
  };
  /// Latencies keyed by item: the scan's index in the tenant's stream, or
  /// the query batch's index in its pool.
  struct TenantRun {
    std::vector<std::pair<std::size_t, double>> latency_ms, query_us;
    uint64_t scans = 0, flushes = 0;
    Answer last_answer;
  };

  void stream(std::size_t t, const StopRule& stop, std::size_t flush_every, int64_t start,
              SpanLog* log, TenantRun& run) {
    const TenantPlan& plan = (*tenants_)[t];
    Client& c = *clients_[t];
    std::vector<int64_t> sent(flush_every);
    std::size_t next = 0;
    const std::size_t pool = plan.batches->size();
    for (std::size_t group = 0; !stop.done(group, start); ++group) {
      if (next + flush_every > plan.scans->size()) {
        gate_.check(false, plan.name + ": scan stream exhausted; raise the stream length");
        break;
      }
      for (std::size_t j = 0; j < flush_every; ++j, ++next) {
        ScopedSpan root(log, "scan", next);
        ScopedSpan s(log, "service.insert_rpc", next);
        sent[j] = now_ns();
        gate_.op(c.client->insert(c.session, origin_of((*plan.scans)[next]), plan.xyz[next]),
                 "insert rpc");
      }
      const uint64_t id = next - 1;
      ScopedSpan root(log, "epoch", id);
      Result<uint64_t> epoch = [&] {
        ScopedSpan s(log, "service.flush_rpc", id);
        return c.client->flush(c.session);
      }();
      const int64_t visible = now_ns();
      if (gate_.op(epoch, "flush rpc")) {
        gate_.check(c.mirror.epoch() == *epoch && c.mirror.hash_mismatches() == 0,
                    plan.name + ": mirror does not hold the flushed epoch");
      }
      for (std::size_t j = 0; j < flush_every; ++j) {
        run.latency_ms.emplace_back(next - flush_every + j,
                                    static_cast<double>(visible - sent[j]) * 1e-6);
      }
      run.scans += flush_every;
      ++run.flushes;

      const QueryBatch& batch = (*plan.batches)[group % pool];
      const std::vector<Vec3>& positions = batch.points;
      const int64_t q0 = now_ns();
      Result<std::vector<Occupancy>> answer = [&] {
        ScopedSpan s(log, "service.query_rpc", id);
        return c.client->query(c.session, positions);
      }();
      const int64_t q1 = now_ns();
      if (gate_.op(answer, "query rpc")) {
        run.query_us.emplace_back(group % pool, static_cast<double>(q1 - q0) * 1e-3);
        run.last_answer = Answer{&batch, std::move(answer).value(), false};
      }
    }
  }

  void verify(std::size_t t, const TenantRun& run) {
    const TenantPlan& plan = (*tenants_)[t];
    Client& c = *clients_[t];
    Reference ref;
    for (std::size_t i = 0; i < run.scans; ++i) ref.insert((*plan.scans)[i]);
    Result<uint64_t> hash = c.client->content_hash(c.session);
    if (gate_.op(hash, "content_hash rpc")) {
      hashes_[t] = *hash;
      gate_.check(*hash == ref.hash(), plan.name + ": server map differs from the reference");
      gate_.check(c.mirror.converged() && c.mirror.content_hash() == *hash,
                  plan.name + ": mirror did not converge to the server map");
    }
    if (run.last_answer.batch != nullptr) {
      // The reply classifies only; the box test is the reference's own.
      Answer a = run.last_answer;
      const geom::Aabb box(geom::Vec3d{a.batch->box.min.x, a.batch->box.min.y, a.batch->box.min.z},
                           geom::Vec3d{a.batch->box.max.x, a.batch->box.max.y, a.batch->box.max.z});
      a.box_occupied = ref.tree.any_occupied_in_box(box);
      check_answers(gate_, ref, {a}, plan.name);
    }
  }

  /// Cumulative service counters, read through /metrics and the fleet
  /// telemetry rollup.
  struct Counters {
    double delta_bytes = 0, delta_events = 0, updates = 0, points = 0;
    double evictions = 0, reloads = 0, tile_writes = 0;
  };

  Counters read_counters() {
    Counters c;
    Result<std::string> text = clients_.front()->client->metrics();
    if (!gate_.op(text, "metrics rpc")) return c;
    const obs::PromScrape scrape = obs::parse_prometheus_text(*text);
    const auto sum = [&](const std::string& family) {
      const obs::PromFamily* f = scrape.find(family);
      double total = 0.0;
      if (f != nullptr) {
        for (const obs::PromSample& s : f->samples) total += s.value;
      }
      return total;
    };
    c.delta_bytes = sum("omu_service_delta_bytes");
    c.delta_events = sum("omu_service_delta_events");
    const TelemetrySnapshot fleet = host_->fleet_telemetry();
    const auto metric = [&](const char* name) {
      const TelemetrySnapshot::Metric* m = fleet.find(name);
      if (m == nullptr) return 0.0;
      return m->kind == TelemetrySnapshot::Metric::Kind::kGauge ? static_cast<double>(m->gauge)
                                                                 : static_cast<double>(m->counter);
    };
    c.updates = metric("ingest.voxel_updates");
    c.points = metric("ingest.points");
    c.evictions = metric("paging.evictions");
    c.reloads = metric("paging.reloads");
    c.tile_writes = metric("paging.tile_writes");
    return c;
  }

  static void add_counters(const Counters& before, const Counters& after, Phase& phase) {
    phase.delta_bytes += after.delta_bytes - before.delta_bytes;
    phase.delta_events += after.delta_events - before.delta_events;
    phase.voxel_updates += static_cast<uint64_t>(after.updates - before.updates);
    phase.points += static_cast<uint64_t>(after.points - before.points);
    phase.evictions += after.evictions - before.evictions;
    phase.reloads += after.reloads - before.reloads;
    phase.tile_writes += after.tile_writes - before.tile_writes;
  }

  std::string dir_;
  std::string socket_;
  std::vector<TenantPlan>* tenants_;
  Gate& gate_;
  std::unique_ptr<service::MapService> host_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::size_t> streamed_;
  std::vector<uint64_t> hashes_;
};

// ---- Workloads ----------------------------------------------------------------

/// Everything a workload reports; filled by the workload classes below.
struct Outcome {
  std::vector<double> setup_s;
  Phase phase;               ///< the untraced measurement
  std::vector<Phase> slices;  ///< traced run: warm-up, U, T, T, U of one fixed slice
  Trace workload_trace;      ///< spans of the traced slices
  Trace replay_trace;        ///< hand-wired ledger replay
  Trace base_trace;          ///< in-process facade base of the service tax
  Trace service_trace;       ///< service replay (workloads without a service)
  Trace codec_trace;
  uint64_t codec_bytes = 0;
  ReplayCounts replay;
  Phase base_counts;
  Phase service_counts;
  std::vector<std::string> nondeterministic;
  double untraced_slice_s = 0.0, traced_slice_s = 0.0;
  uint64_t handwired_ns = 0, facade_ns = 0;  ///< overhead_share operands
};

class Workload {
 public:
  Workload(const Options& o, Gate& g) : opt_(o), gate_(g) {}
  virtual ~Workload() = default;

  /// Builds inputs and sessions; returns its own duration in seconds.
  virtual double setup() = 0;
  /// One measured phase.
  virtual void run_phase(const StopRule& stop, Trace* trace, Phase& phase) = 0;
  /// The fixed slice a traced run repeats.
  virtual StopRule traced_slice() const = 0;
  /// Ledger replays over the traced slice's inputs.
  virtual void replay(Outcome& out) = 0;

 protected:
  std::string work(const std::string& name) const { return opt_.work_dir + "/" + name; }

  /// Prices the wire on the first `count` scans of an octree session: the
  /// same scans through a one-tenant service and through the in-process
  /// facade.
  void service_replay(const Scans& scans, std::size_t count, const std::vector<QueryBatch>& batches,
                      Outcome& out) {
    std::vector<TenantPlan> plans(1);
    TenantPlan& p = plans[0];
    p.name = "octree";
    p.spec.tenant = "octree";
    p.spec.backend = static_cast<uint8_t>(BackendKind::kOctree);
    p.batches = &batches;
    p.scans = &scans;
    for (std::size_t i = 0; i < count; ++i) p.xyz.push_back(flat_xyz(scans[i]));
    // Twice: the second, untraced, must ship exactly the same delta bytes.
    Phase again;
    for (Phase* phase : {&out.service_counts, &again}) {
      ServiceRig rig(work("service-replay"), &plans, 0, gate_);
      rig.run(StopRule{0.0, count, true}, 1, phase == &again ? nullptr : &out.service_trace, *phase);
    }
    gate_.check(again.delta_bytes == out.service_counts.delta_bytes &&
                    again.delta_events == out.service_counts.delta_events,
                "service.delta_bytes_per_epoch did not repeat across identical service replays");
    const ReplayInput in{&scans, count, 1, 0, &batches};
    facade_replay(MapperConfig().resolution(kResolution), in,
                  *out.base_trace.log("base"), gate_, &out.base_counts);
    out.codec_bytes += codec_replay(in, *out.codec_trace.log("codec"), gate_);
  }

  const Options& opt_;
  Gate& gate_;
};

// fr079_dense: passes over the dense corridor, a fresh session per pass.
// Passes take the run's kFr079Inputs seeds in turn, so every scan of every
// input repeats across the run.
class Fr079Dense final : public Workload {
 public:
  using Workload::Workload;

  double setup() override {
    const int64_t t0 = now_ns();
    inputs_.resize(kFr079Inputs);
    for (std::size_t k = 0; k < kFr079Inputs; ++k) {
      inputs_[k].scans = generate(data::DatasetId::kFr079Corridor, kFr079Scale, opt_.seed + k, 0, SIZE_MAX);
    }
    batches_ = make_batches(inputs_[0].scans, opt_.seed);
    gate_.op(Mapper::create(MapperConfig().resolution(kResolution)), "create");
    return seconds_since(t0);
  }

  StopRule traced_slice() const override { return StopRule{0.0, 1, true}; }

  void run_phase(const StopRule& stop, Trace* trace, Phase& phase) override {
    SpanLog* log = trace != nullptr ? trace->log("writer") : nullptr;
    CpuRotation cpus;
    const int64_t start = now_ns();
    double verify_s = 0.0;
    // Without a fixed count, every input runs at least once.
    for (std::size_t pass = 0; stop.fixed ? !stop.done(pass, start)
                                          : pass < kFr079Inputs || !stop.done(pass, start);
         ++pass) {
      cpus.next();
      const std::size_t k = pass % kFr079Inputs;
      Input& input = inputs_[k];
      const Scans& scans = input.scans;
      const int64_t v0 = now_ns();
      Result<Mapper> created = Mapper::create(MapperConfig().resolution(kResolution));
      if (!gate_.op(created, "create")) return;
      Mapper mapper = std::move(created).value();
      verify_s += seconds_since(v0);

      const double cpu0 = cpu_seconds();
      const int64_t w0 = now_ns();
      for (std::size_t i = 0; i < scans.size(); ++i) {
        const uint64_t id = (pass << 32) | i;
        ScopedSpan root(log, "scan", id);
        const double c0 = cpu_seconds();
        const int64_t t0 = now_ns();
        {
          ScopedSpan s(log, "omu_api.insert", id);
          gate_.op(insert(mapper, scans[i]), "insert");
        }
        {
          ScopedSpan s(log, "omu_api.flush", id);
          gate_.op(mapper.flush(), "flush");
        }
        phase.scan_to_view_ms.add(k * scans.size() + i, static_cast<double>(now_ns() - t0) * 1e-6);
        phase.serial_scan_cpu_ms.add(k * scans.size() + i, (cpu_seconds() - c0) * 1e3);
      }
      phase.window_s += seconds_since(w0);
      phase.cpu_s += cpu_seconds() - cpu0;
      phase.scans += scans.size();
      const MapperStats stats = mapper.stats().value();
      phase.add_publication(stats);

      // Closing query sweep on the finished pass.
      std::vector<Answer> answers(kFr079SweepBatches);
      for (std::size_t b = 0; b < kFr079SweepBatches; ++b) {
        const int64_t ns = collision_check(mapper, batches_[b % batches_.size()], gate_, log,
                                           (pass << 32) | (scans.size() - 1), answers[b]);
        phase.query_batch_us.add(b % batches_.size(), static_cast<double>(ns) * 1e-3);
      }
      phase.end_pass();

      // Verification, outside every timed figure: against the reference
      // octree of this input, built on its first pass.
      const int64_t c0 = now_ns();
      if (input.expected.empty()) {
        Reference ref;
        for (const auto& scan : scans) ref.insert(scan);
        input.reference_hash = ref.hash();
        for (const QueryBatch& batch : batches_) input.expected.push_back(reference_answer(ref, batch));
        input.updates = stats.ingest.voxel_updates;
      }
      gate_.check(stats.ingest.voxel_updates == input.updates,
                  "fr079_dense: voxel updates of one input did not repeat across passes");
      Result<uint64_t> hash = mapper.content_hash();
      if (gate_.op(hash, "content_hash")) {
        gate_.check(*hash == input.reference_hash, "fr079_dense pass " + std::to_string(pass) +
                                                       ": map differs from the reference octree");
        input.facade_hash = *hash;
      }
      for (std::size_t b = 0; b < kFr079SweepBatches; ++b) {
        gate_.check(matches(answers[b], input.expected[b % batches_.size()]),
                    "fr079_dense sweep: query answers differ from the reference octree");
      }
      phase.serial_repeat_updates = 0;
      for (const Input& in : inputs_) phase.serial_repeat_updates += in.updates;
      verify_s += seconds_since(c0);
    }
    phase.wall_s += seconds_since(start) - verify_s;
  }

  void replay(Outcome& out) override {
    const Input& input = inputs_[0];  // the traced slice's
    const ReplayInput in{&input.scans, input.scans.size(), 1, 0, nullptr};
    const uint64_t hash = handwired_replay(in, work("replay-world"), kFleetBudgetBytes,
                                           *out.replay_trace.log("replay"), out.replay, gate_);
    gate_.check(hash == input.facade_hash, "ledger: hand-wired replay hash differs from the facade's");
    service_replay(input.scans, kServiceReplayScans, batches_, out);
  }

 private:
  struct Input {
    Scans scans;
    // Filled on the input's first pass.
    uint64_t reference_hash = 0;
    std::vector<Expected> expected;  ///< per batch of the pool
    uint64_t updates = 0;            ///< voxel updates of one pass
    uint64_t facade_hash = 0;        ///< of the latest pass
  };
  std::vector<Input> inputs_;
  std::vector<QueryBatch> batches_;  ///< the sweep's checks, the same every pass
};

// fleet_service: three tenants on one service sharing a paging budget.
class FleetService final : public Workload {
 public:
  using Workload::Workload;

  double setup() override {
    const int64_t t0 = now_ns();
    streams_.assign(3, Scans{});
    batches_.assign(3, {});
    tenants_.assign(3, TenantPlan{});
    const char* names[3] = {"octree", "hybrid", "world"};
    for (std::size_t t = 0; t < 3; ++t) {
      streams_[t] = generate(data::DatasetId::kNewCollege, kFleetScale, opt_.seed * 3 + t, 0,
                             kFleetPassGroups * kFleetFlushEvery);
      batches_[t] = make_batches(streams_[t], opt_.seed * 3 + t);
      TenantPlan& p = tenants_[t];
      p.name = names[t];
      p.spec.tenant = names[t];
      p.spec.tile_shift = kTileShift;
      p.scans = &streams_[t];
      p.batches = &batches_[t];
      for (const auto& s : streams_[t]) p.xyz.push_back(flat_xyz(s));
    }
    tenants_[0].spec.backend = static_cast<uint8_t>(BackendKind::kOctree);
    tenants_[1].spec.backend = static_cast<uint8_t>(BackendKind::kHybrid);
    tenants_[1].spec.hybrid_back_backend = static_cast<uint8_t>(BackendKind::kTiledWorld);
    tenants_[1].spec.world_directory = "hybrid";
    tenants_[2].spec.backend = static_cast<uint8_t>(BackendKind::kTiledWorld);
    tenants_[2].spec.world_directory = "world";
    rig_.reset();
    rig_ = std::make_unique<ServiceRig>(work("fleet"), &tenants_, kFleetBudgetBytes, gate_);
    return seconds_since(t0);
  }

  StopRule traced_slice() const override { return StopRule{0.0, 1, true}; }

  /// Passes of the same streams, each on a fresh service (wall time counts
  /// only the streaming; the rig's start and the verification are outside).
  void run_phase(const StopRule& stop, Trace* trace, Phase& phase) override {
    const int64_t start = now_ns();
    for (std::size_t pass = 0; !stop.done(pass, start); ++pass) {
      if (!rig_) {
        rig_ = std::make_unique<ServiceRig>(work("fleet"), &tenants_, kFleetBudgetBytes, gate_);
      }
      rig_->run(StopRule{0.0, kFleetPassGroups, true}, kFleetFlushEvery, trace, phase);
      streamed_ = rig_->streamed();
      server_hashes_ = rig_->hashes();
      rig_.reset();
    }
  }

  void replay(Outcome& out) override {
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const ReplayInput in{&streams_[t], streamed_[t], kFleetFlushEvery, t << 32, &batches_[t]};
      const uint64_t hash = handwired_replay(in, work("replay-world"), kFleetBudgetBytes,
                                             *out.replay_trace.log(tenants_[t].name), out.replay, gate_);
      gate_.check(hash == server_hashes_.at(t),
                  "ledger: " + tenants_[t].name + " hand-wired replay hash differs from the server's");
      // The tax base: the same backend in process, each world-backed tenant
      // holding half the shared budget.
      service::SessionSpec spec = tenants_[t].spec;
      if (!spec.world_directory.empty()) {
        spec.world_directory = work("base-" + tenants_[t].name);
        spec.world_resident_byte_budget = kFleetBudgetBytes / 2;
      }
      SpanLog& base = *out.base_trace.log(tenants_[t].name);
      const uint64_t base_hash = facade_replay(spec.to_config(), in, base, gate_, &out.base_counts);
      gate_.check(base_hash == hash, "ledger: " + tenants_[t].name +
                                         " in-process facade hash differs from the hand-wired replay");
      std::error_code ec;
      fs::remove_all(spec.world_directory, ec);
      if (t == 0) {
        check_publication("fleet_service octree tenant", out.base_counts, out.replay.publish, gate_);
        // omu_api.overhead_share compares like with like: octree only.
        const Ledger b = out.base_trace.ledger();
        out.facade_ns = static_cast<uint64_t>(b.at("base.insert").total_ns + b.at("base.flush").total_ns);
        const Ledger r = out.replay_trace.ledger();
        out.handwired_ns = static_cast<uint64_t>(r.at("map.collect_updates").total_ns +
                                                 r.at("map.apply").total_ns +
                                                 r.at("query.refresh_from").total_ns);
      }
      out.codec_bytes += codec_replay(in, *out.codec_trace.log(tenants_[t].name), gate_);
    }
    out.nondeterministic.push_back(
        "world.evictions_per_scan, world.reloads_per_scan, world.tile_writes_per_scan and "
        "world.peak_resident_kib on fleet_service: the shared BudgetArbiter sheds from "
        "whichever tenant trips it first, so paging counts vary with thread timing");
    out.nondeterministic.push_back(
        "service.delta_bytes_per_epoch on fleet_service: a tile evicted and reloaded gets a "
        "new snapshot identity, so the delta path resends it; repeat-checked on the other "
        "workloads' single-tenant service replays instead");
  }

 private:
  std::vector<Scans> streams_;
  std::vector<std::vector<QueryBatch>> batches_;
  std::vector<TenantPlan> tenants_;
  std::unique_ptr<ServiceRig> rig_;
  std::vector<std::size_t> streamed_;
  std::vector<uint64_t> server_hashes_;
};

// ---- Reporting ----------------------------------------------------------------

void add(RunResult& r, const std::string& name, double value, const std::string& unit) {
  r.metrics.push_back(Metric{name, value, unit});
}

/// The best per-pass value of `figure(mark before the pass, mark after it)`.
/// A run repeats one input in passes, and other tenants of the host slow
/// some passes but never speed one up, so the best pass is the steadiest
/// estimate of what the code costs (min-of-N).
template <typename Figure>
double best_pass(const Phase& p, bool higher_is_better, Figure figure) {
  Phase::Mark before;
  double best = higher_is_better ? -HUGE_VAL : HUGE_VAL;
  for (const Phase::Mark& m : p.pass_ends) {
    const double v = figure(before, m);
    best = higher_is_better ? std::max(best, v) : std::min(best, v);
    before = m;
  }
  return best;
}

/// States each latency metric's item count, the timings behind it, and
/// the highest percentile over items that keeps ten items beyond it.
void print_samples(const char* what, const ItemBest& best) {
  std::cout << "samples " << what << ": " << best.items() << " items, best of " << best.samples()
            << " timings; tail rule allows p" << tail_percentile(best.items()) << "\n";
}

void end_to_end(const Outcome& o, RunResult& r) {
  const Phase& p = o.phase;
  print_samples("scan_to_view", p.scan_to_view_ms);
  print_samples("query_batch", p.query_batch_us);
  using Mark = Phase::Mark;
  // A serial writer's window is the sum of its scans' times and its CPU
  // time theirs, so the scans' best figures give its frame rate and CPU per
  // scan; concurrent tenants' scans overlap, so there the best pass does.
  const double fps =
      p.serial_repeat_updates > 0
          ? frame_fps(p.serial_repeat_updates, p.scan_to_view_ms.sum() * 1e-3)
          : best_pass(p, true, [](const Mark& a, const Mark& b) {
              return frame_fps(b.updates - a.updates, b.window_s - a.window_s);
            });
  add(r, "frame_fps", fps, "fps");
  add(r, "scan_to_view_p50_ms", p.scan_to_view_ms.percentile_over_items(50.0, "scan_to_view"), "ms");
  add(r, "scan_to_view_p90_ms", p.scan_to_view_ms.percentile_over_items(90.0, "scan_to_view"), "ms");
  // Points per microsecond of the batches' best times: Mpoints/s.
  add(r, "query_mqps",
      static_cast<double>(kQueryPoints * p.query_batch_us.items()) / p.query_batch_us.sum(),
      "Mpoints/s");
  add(r, "query_batch_p50_us", p.query_batch_us.percentile_over_items(50.0, "query_batch"), "us");
  add(r, "query_batch_p90_us", p.query_batch_us.percentile_over_items(90.0, "query_batch"), "us");
  const ItemBest& cpu = p.serial_scan_cpu_ms;
  add(r, "cpu_ms_per_scan",
      cpu.items() > 0 ? cpu.sum() / static_cast<double>(cpu.items())
                      : best_pass(p, false, [](const Mark& a, const Mark& b) {
                          return (b.cpu_s - a.cpu_s) * 1e3 / static_cast<double>(b.scans - a.scans);
                        }),
      "ms");
  add(r, "peak_rss_mib", peak_rss_mib(), "MiB");
  add(r, "setup_s", median(o.setup_s), "s");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void per_layer(const std::string& workload, const Outcome& o, Gate& gate, RunResult& r) {
  const Ledger wl = o.workload_trace.ledger();
  const Ledger rp = o.replay_trace.ledger();
  const Ledger base = o.base_trace.ledger();
  const Ledger codec = o.codec_trace.ledger();
  const bool fleet = workload == "fleet_service";
  const Ledger svc = fleet ? wl : o.service_trace.ledger();
  const Ledger& facade = fleet ? base : wl;
  const char* insert_layer = fleet ? "base.insert" : "omu_api.insert";
  const char* flush_layer = fleet ? "base.flush" : "omu_api.flush";

  // Facade.
  add(r, "omu_api.insert_us_per_scan", facade.mean(insert_layer, 1e3), "us");
  add(r, "omu_api.flush_us_per_scan", facade.mean(flush_layer, 1e3), "us");
  double facade_ns = static_cast<double>(o.facade_ns);
  double handwired_ns = static_cast<double>(o.handwired_ns);
  if (!fleet) {
    facade_ns = static_cast<double>(wl.at("omu_api.insert").total_ns + wl.at("omu_api.flush").total_ns) /
                2.0;  // two traced slices, one replay
    handwired_ns = static_cast<double>(rp.at("map.collect_updates").total_ns +
                                       rp.at("map.apply").total_ns + rp.at("query.refresh_from").total_ns);
  }
  add(r, "omu_api.overhead_share", ratio(facade_ns - handwired_ns, facade_ns), "ratio");

  // Map layer, from the hand-wired replay.
  const ReplayCounts& c = o.replay;
  add(r, "map.raycast_ns_per_point", ratio(rp.at("map.collect_updates").total_ns, c.points), "ns/point");
  add(r, "map.apply_ns_per_update", ratio(rp.at("map.apply").total_ns, c.updates), "ns/update");
  add(r, "map.updates_per_point", ratio(c.updates, c.points), "ratio");
  add(r, "map.memory_kib", static_cast<double>(c.memory_bytes) / 1024.0, "KiB");

  // Publication: facade counters of the traced slice (fleet: its base).
  const Phase& pub = fleet ? o.base_counts : o.slices[2];
  add(r, "query.publish_us_per_flush", rp.mean("query.refresh_from", 1e3), "us");
  add(r, "query.chunks_rebuilt_per_flush", ratio(pub.chunks_rebuilt, pub.flushes), "count");
  add(r, "query.bytes_rebuilt_per_flush", ratio(pub.bytes_rebuilt, pub.flushes), "bytes");
  add(r, "query.reused_byte_share",
      ratio(pub.bytes_reused, static_cast<double>(pub.bytes_reused + pub.bytes_rebuilt)), "ratio");

  // Reads.
  add(r, "query.snapshot_acquire_ns", facade.mean("query.snapshot_acquire"), "ns");
  add(r, "query.classify_ns_per_point", facade.mean("query.classify_batch") / kQueryPoints, "ns/point");

  // World: the fleet's own pager, else the budgeted replay.
  const Phase& traced = o.slices[2];
  if (fleet) {
    add(r, "world.evictions_per_scan", ratio(traced.evictions, traced.scans), "count");
    add(r, "world.reloads_per_scan", ratio(traced.reloads, traced.scans), "count");
    add(r, "world.tile_writes_per_scan", ratio(traced.tile_writes, traced.scans), "count");
    add(r, "world.peak_resident_kib", traced.peak_resident_bytes / 1024.0, "KiB");
  } else {
    add(r, "world.evictions_per_scan", ratio(c.evictions, c.scans), "count");
    add(r, "world.reloads_per_scan", ratio(c.reloads, c.scans), "count");
    add(r, "world.tile_writes_per_scan", ratio(c.tile_writes, c.scans), "count");
    add(r, "world.peak_resident_kib", static_cast<double>(c.peak_resident_bytes) / 1024.0, "KiB");
  }
  add(r, "world.apply_ns_per_update", ratio(rp.at("world.apply").total_ns, c.updates), "ns/update");

  // Absorber.
  add(r, "localgrid.absorbed_share", ratio(c.absorbed, static_cast<double>(c.absorbed + c.passed_through)),
      "ratio");
  add(r, "localgrid.aggregation_ratio", ratio(c.absorbed, c.voxels_flushed), "ratio");
  add(r, "localgrid.apply_ns_per_update", ratio(rp.at("localgrid.apply").total_ns, c.updates), "ns/update");

  // Service: client spans against the in-process base on the same scans.
  const double insert_rpc = svc.mean("service.insert_rpc", 1e3);
  const double flush_rpc = svc.mean("service.flush_rpc", 1e3);
  add(r, "service.insert_rpc_us", insert_rpc, "us");
  add(r, "service.flush_rpc_us", flush_rpc, "us");
  add(r, "service.query_rpc_us", svc.mean("service.query_rpc", 1e3), "us");
  add(r, "service.insert_tax", ratio(insert_rpc, base.mean("base.insert", 1e3)), "x");
  add(r, "service.flush_tax", ratio(flush_rpc, base.mean("base.flush", 1e3)), "x");
  add(r, "service.codec_ns_per_byte", ratio(codec.at("service.codec").total_ns, o.codec_bytes), "ns/byte");
  const Phase& svc_counts = fleet ? traced : o.service_counts;
  add(r, "service.delta_bytes_per_epoch", ratio(svc_counts.delta_bytes, svc_counts.delta_events), "bytes");
  const double rpc_ns = static_cast<double>(svc.at("service.insert_rpc").total_ns +
                                            svc.at("service.flush_rpc").total_ns +
                                            svc.at("service.query_rpc").total_ns);
  const double covered = static_cast<double>(base.at("base.insert").total_ns + base.at("base.flush").total_ns +
                                             base.at("query.batch").total_ns +
                                             codec.at("service.codec").total_ns);
  add(r, "service.unattributed_share", ratio(rpc_ns - covered, rpc_ns), "ratio");

  // Tracing and the ledger itself.
  add(r, "trace.overhead_share", ratio(o.traced_slice_s - o.untraced_slice_s, o.untraced_slice_s), "ratio");
  const double roots = static_cast<double>(wl.at("scan").total_ns + wl.at("epoch").total_ns +
                                           wl.at("query.batch").total_ns);
  const double roots_self = static_cast<double>(wl.at("scan").self_ns + wl.at("epoch").self_ns +
                                                wl.at("query.batch").self_ns);
  add(r, "ledger.unattributed_share", ratio(roots_self, roots), "ratio");
  add(r, "op_error_share", ratio(gate.failed(), gate.attempted()), "ratio");
}

/// The layer ledger table of a traced run (stdout, before the result line).
void print_ledger(const std::string& workload, const Outcome& o) {
  const auto table = [&](const char* title, const Ledger& l) {
    std::cout << "ledger " << workload << " / " << title << "\n";
    std::cout << "  layer                          calls     total_ms      self_ms\n";
    for (const auto& [layer, t] : l.layers()) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-28s %8llu %12.3f %12.3f\n", layer.c_str(),
                    static_cast<unsigned long long>(t.calls), t.total_ns * 1e-6, t.self_ns * 1e-6);
      std::cout << line;
    }
  };
  table("workload (traced slices)", o.workload_trace.ledger());
  table("hand-wired replay", o.replay_trace.ledger());
  table("in-process facade base", o.base_trace.ledger());
  if (workload != "fleet_service") table("service replay", o.service_trace.ledger());
  table("codec", o.codec_trace.ledger());
  for (const std::string& n : o.nondeterministic) std::cout << "non-deterministic: " << n << "\n";
}

/// Deterministic counts must repeat exactly across slices of identical input.
void check_repeats(const std::string& workload, const std::vector<Phase>& slices, Gate& gate) {
  for (std::size_t i = 1; i < slices.size(); ++i) {
    const Phase& a = slices[0];
    const Phase& b = slices[i];
    gate.check(a.voxel_updates == b.voxel_updates && a.points == b.points,
               workload + ": map.updates_per_point did not repeat across identical slices");
    gate.check(a.bytes_rebuilt == b.bytes_rebuilt && a.chunks_rebuilt == b.chunks_rebuilt,
               workload + ": query.bytes_rebuilt_per_flush did not repeat across identical slices");
  }
}


void write_spans(const std::string& path, const Outcome& o) {
  std::ofstream out(path);
  out << "source,thread,layer,scan_id,parent,start_ns,end_ns\n";
  const auto dump = [&](const char* source, const Trace& t) {
    for (const auto& log : t.logs) {
      for (const Span& s : log->spans()) {
        out << source << ',' << log->thread() << ',' << s.layer << ',' << s.scan_id << ','
            << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent)) << ',' << s.start_ns
            << ',' << s.end_ns << '\n';
      }
    }
  };
  dump("workload", o.workload_trace);
  dump("replay", o.replay_trace);
  dump("base", o.base_trace);
  dump("service", o.service_trace);
  dump("codec", o.codec_trace);
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"fr079_dense", "fleet_service"};
}

RunResult run_workload(const Options& opt) {
  Gate gate;
  std::unique_ptr<Workload> w;
  if (opt.workload == "fr079_dense") {
    w = std::make_unique<Fr079Dense>(opt, gate);
  } else if (opt.workload == "fleet_service") {
    w = std::make_unique<FleetService>(opt, gate);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  fs::create_directories(opt.work_dir);
  if (opt.trace) fs::create_directories(opt.trace_dir);

  Outcome o;
  RunResult result;
  for (int i = 0; i < kSetupRepeats; ++i) o.setup_s.push_back(w->setup());
  if (!opt.trace) {
    w->run_phase(StopRule{opt.seconds, 0, false}, nullptr, o.phase);
    end_to_end(o, result);
  } else {
    // One fixed slice run five times: a warm-up, then untraced, traced,
    // traced, untraced, so the tracing overhead compares like with like and
    // cancels drift; the deterministic counts must repeat in every slice.
    const StopRule slice = w->traced_slice();
    for (int i = 0; i < 5; ++i) {
      if (i > 0) w->setup();
      const bool traced = i == 2 || i == 3;
      o.slices.emplace_back();
      w->run_phase(slice, traced ? &o.workload_trace : nullptr, o.slices.back());
      if (i > 0) (traced ? o.traced_slice_s : o.untraced_slice_s) += o.slices.back().wall_s;
    }
    w->replay(o);
    check_repeats(opt.workload, o.slices, gate);
    if (opt.workload != "fleet_service") check_publication(opt.workload, o.slices[2], o.replay.publish, gate);
    print_ledger(opt.workload, o);
    per_layer(opt.workload, o, gate, result);
    write_spans(opt.trace_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".csv", o);
  }
  w.reset();
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  result.attempted = gate.attempted();
  result.failed = gate.failed();
  result.failures = gate.failures();
  result.correct = result.failures.empty() && result.failed == 0;
  return result;
}

}  // namespace omu::perfbench
