// nvc_bench: the wall-clock benchmark of NVCaracal through its public client
// API (service::DbService and service::ShardedDbService).
//
// One process runs one named workload end to end, always in this order:
//   1. set-up    fresh device(s), Format, bulk load, FinalizeLoad; repeated
//                kSetupRuns times and reported as the median (setup_s);
//   2. warm-up   2 s open loop at the workload's fixed rate, discarded;
//   3. rounds    kRounds times, so that every metric samples the whole run
//                and a slow spell of the shared host moves a minority of
//                its samples:
//                rated     --seconds / kRounds open loop at the fixed rate;
//                          each ticket's latency runs from its scheduled
//                          send time, so a stalled generator or engine is
//                          charged to every ticket queued behind it;
//                peak      1/kRounds of a fixed transaction count, offered
//                          without pacing under BackpressurePolicy::kBlock
//                          (queue_capacity 8192); a faster engine finishes
//                          the same work sooner;
//                recovery  in some rounds: one hand-cut epoch crashes at
//                          kBeforeEpochPersist, the engine is dropped and a
//                          fresh one over the same device(s) runs Recover()
//                          (recover_ms measures time, not durability);
//                Each end-to-end metric is the median over its rounds.
//   4. checks    every ticket resolves without failure, plus one
//                workload-specific check of the recovered state.
// All traffic comes from one generator thread (the main thread). Engine
// threads plus the generator stay within four: the pacer (engine worker 0),
// one more worker, the pipelined tail thread and the generator; sharded_kv
// runs the pacer, two shard threads and the generator.
//
// --trace=DIR runs with the engine profiler on and derives the per-layer
// metrics from timing calls into public functions only. The bench's own
// spans (client.submit around Submit, client.ticket from the scheduled send
// to durable) join the engine's epochs through TicketResult::epoch.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace the per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/oracle.h"
#include "src/service/db_service.h"
#include "src/service/sharded_service.h"
#include "src/shard/sharded_db.h"
#include "src/sim/nvm_device.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"
#include "tests/test_util.h"

#ifndef NVC_BENCH_BUILD_TYPE
#define NVC_BENCH_BUILD_TYPE "unknown"
#endif

namespace nvc::bench {
namespace {

using Clock = std::chrono::steady_clock;
using core::Database;
using service::ServiceSpec;
using service::TicketOutcome;
using service::TxnTicket;
using TxnPtr = std::unique_ptr<txn::Transaction>;

constexpr std::size_t kWorkers = 2;  // worker 0 runs on the pacer thread
constexpr std::size_t kShards = 2;
constexpr std::size_t kCrashEpochTxns = 1024;
constexpr std::size_t kPeakQueueCapacity = 8192;
constexpr int kRounds = 10;
constexpr double kWarmupSeconds = 2.0;
constexpr int kSetupRuns = 3;
// Client spans kept per traced run.
constexpr std::size_t kMaxClientTickets = 1 << 16;
constexpr sim::LatencyProfile kDeviceLatency = sim::LatencyProfile::Optane();
constexpr double kMB = 1e6;

double Micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// How many of an epoch's tickets resolved (committed or user-aborted) and
// committed, and when they became durable.
struct EpochDone {
  std::size_t resolved = 0;
  std::size_t committed = 0;
  double durable_us = std::numeric_limits<double>::infinity();
};

// Steady-state commit rate (per second) of one saturated phase: the
// transactions of its second to last epoch over the time from its first
// epoch's durable point to its last's, which leaves out the ramp-up and the
// drain. 0 when the phase ran fewer than two epochs.
double SteadyRate(const std::map<Epoch, EpochDone>& done) {
  if (done.size() < 2) {
    return 0;
  }
  std::size_t committed = 0;
  for (auto it = std::next(done.begin()); it != done.end(); ++it) {
    committed += it->second.committed;
  }
  const double span_us = done.rbegin()->second.durable_us - done.begin()->second.durable_us;
  return span_us > 0 ? static_cast<double>(committed) * 1e6 / span_us : 0;
}

// Device time a counter delta costs at the Optane latency profile, in ms.
double DeviceMs(std::uint64_t read_granules, std::uint64_t persisted_lines,
                std::uint64_t fences) {
  return (static_cast<double>(read_granules) * kDeviceLatency.read_ns_per_granule +
          static_cast<double>(persisted_lines) * kDeviceLatency.write_ns_per_line +
          static_cast<double>(fences) * kDeviceLatency.fence_ns) /
         1e6;
}

// ---- Options and workload table ----------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;     // rated phase, summed over the rounds
  std::string trace_dir;   // non-empty: traced run writing trace files here
  std::string out_path;    // full result JSON (optional)
  std::string git_sha = "unknown";
  bool smoke = false;      // small data, short phases
};

struct WorkloadInfo {
  const char* name;
  double rate_tps;        // rated-phase arrival rate
  std::size_t peak_txns;  // peak-phase transaction count, summed over the rounds
  int recover_runs;       // crash/recover cycles, about 1 s of recovery in all
};

// Rates are 35-55 % of each workload's peak on a 4-core host, so the rated
// phase measures batching delay, not a growing backlog. Peak counts take
// 3-9 s each, sized so that every run stays under 30 s; ycsb_hot's is the
// smallest because its run ends in a replay of the whole stream.
constexpr WorkloadInfo kWorkloads[] = {
    {"ycsb_hot", 15000, 120'000, 5},
    {"tpcc", 8000, 150'000, 3},
    {"ycsb_scan_aria", 20000, 360'000, 5},
    {"sharded_kv", 60000, 1'500'000, 9},
};

// Phase sizes of one run. --smoke shrinks everything so all four workloads
// run every check in seconds.
struct Plan {
  double rate_tps = 0;
  std::size_t warmup_txns = 0;
  std::size_t rated_txns = 0;  // per round
  std::size_t peak_txns = 0;   // per round
  int rounds = kRounds;
  int setup_runs = kSetupRuns;
  int recover_runs = 1;
  double data_scale = 1;  // multiplies row/key counts

  static Plan For(const WorkloadInfo& info, const Options& opt) {
    Plan plan;
    const double time_scale = opt.smoke ? 0.1 : 1.0;
    plan.rounds = opt.smoke ? 2 : kRounds;
    plan.rate_tps = info.rate_tps * (opt.smoke ? 0.25 : 1.0);
    plan.warmup_txns = static_cast<std::size_t>(plan.rate_tps * kWarmupSeconds * time_scale);
    plan.rated_txns = static_cast<std::size_t>(plan.rate_tps * opt.seconds / plan.rounds);
    plan.peak_txns = info.peak_txns / (opt.smoke ? 50 : 1) / plan.rounds;
    plan.setup_runs = opt.smoke ? 1 : kSetupRuns;
    plan.recover_runs = opt.smoke ? 1 : info.recover_runs;
    plan.data_scale = opt.smoke ? 0.1 : 1.0;
    return plan;
  }

  // Recoveries are spread over the rounds but the last, so the final engine
  // instance, whose trace a traced run writes, serves a whole round.
  bool RecoversAfter(int round) const {
    const int slots = std::max(rounds - 1, 1);
    return round < slots && (round + 1) * recover_runs / slots > round * recover_runs / slots;
  }

  std::size_t total_txns() const {
    return warmup_txns + rounds * (rated_txns + peak_txns) + recover_runs * kCrashEpochTxns;
  }
};

std::uint64_t ScaledCount(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
}

// Transactions per ticket epoch, in epoch order (the hand-batched replay of
// ycsb_hot regroups the stream by these).
using EpochCounts = std::map<Epoch, std::size_t>;

struct RecoveryTimes {
  double seconds = 0;  // engine construction + Recover()
  double rebuild_s = 0;
  double revert_s = 0;
  double replay_s = 0;
  bool replayed = false;
};

// ---- Targets: one engine deployment plus its workload ------------------------

class Target {
 public:
  virtual ~Target() = default;

  // Replaces the engine with a freshly formatted and loaded one; returns the
  // seconds the set-up took (device allocation, Format, load, FinalizeLoad).
  virtual double Setup() = 0;

  // Moves the engine into a service / takes it back with its tail quiesced.
  virtual void Serve(const ServiceSpec& spec) = 0;
  virtual Status Unserve() = 0;
  virtual StatusOr<TxnTicket> Submit(TxnPtr txn) = 0;
  virtual Status Drain() = 0;
  virtual std::size_t EpochsExecuted() const = 0;

  // Engines and devices of the deployment while no service holds them.
  virtual std::vector<Database*> Engines() = 0;
  virtual std::vector<sim::NvmDevice*> Devices() = 0;
  virtual bool WriteEngineTrace(const std::string& path) = 0;

  // Runs `txns` as one hand-cut epoch that crashes at kBeforeEpochPersist,
  // drops the engine and recovers a fresh one over the same device(s).
  virtual StatusOr<RecoveryTimes> CrashAndRecover(std::vector<TxnPtr> txns) = 0;

  // The next transaction of the seeded stream.
  virtual TxnPtr Next() = 0;

  // Workload-specific check of the recovered state.
  virtual bool Check(const EpochCounts& epochs, std::string* why) = 0;

  // Fraction of the transactions handed out so far that span both shards.
  virtual double CrossShardFraction() const { return 0; }
};

bool CrashesAt(core::CrashSite site) { return site == core::CrashSite::kBeforeEpochPersist; }

sim::NvmConfig DeviceConfig(std::size_t bytes, sim::LatencyProfile latency) {
  sim::NvmConfig config;
  config.size_bytes = bytes;
  config.latency = latency;
  return config;
}

// A single Database behind a DbService, running one of the engine's
// workload generators (YcsbWorkload or TpccWorkload).
template <typename Workload>
class SingleTarget : public Target {
 public:
  template <typename Config>
  explicit SingleTarget(const Config& config) : workload_(config) {}

  double Setup() override {
    db_.reset();
    device_.reset();
    const Clock::time_point start = Clock::now();
    const core::DatabaseSpec spec = Spec();
    device_ = std::make_unique<sim::NvmDevice>(
        DeviceConfig(Database::RequiredDeviceBytes(spec), kDeviceLatency));
    db_ = std::make_unique<Database>(*device_, spec);
    db_->Format();
    workload_.Load(*db_);
    db_->FinalizeLoad();
    return Seconds(Clock::now() - start);
  }

  void Serve(const ServiceSpec& spec) override {
    service_ = std::make_unique<service::DbService>(std::move(db_), spec);
  }

  Status Unserve() override {
    const Status stopped = service_->Stop();
    db_ = service_->TakeDatabase();
    service_.reset();
    const Status idle = db_->WaitIdle();
    return stopped.ok() ? idle : stopped;
  }

  StatusOr<TxnTicket> Submit(TxnPtr txn) override { return service_->Submit(std::move(txn)); }
  Status Drain() override { return service_->Drain(); }
  std::size_t EpochsExecuted() const override { return service_->epochs_executed(); }

  std::vector<Database*> Engines() override { return {db_.get()}; }
  std::vector<sim::NvmDevice*> Devices() override { return {device_.get()}; }
  bool WriteEngineTrace(const std::string& path) override {
    return db_->profiler().WriteChromeTrace(path);
  }

  StatusOr<RecoveryTimes> CrashAndRecover(std::vector<TxnPtr> txns) override {
    db_->SetCrashHook(CrashesAt);
    const core::EpochResult result = db_->ExecuteEpoch(std::move(txns));
    // Under pipelining the site fires on the tail thread and surfaces here.
    const bool crashed = !db_->WaitIdle().ok() || result.crashed;
    if (!crashed) {
      return Status::Internal("the hand-cut epoch did not crash");
    }
    const core::DatabaseSpec spec = db_->spec();
    db_.reset();
    const Clock::time_point start = Clock::now();
    db_ = std::make_unique<Database>(*device_, spec);
    const StatusOr<core::RecoveryReport> report = db_->Recover(workload_.Registry());
    RecoveryTimes times;
    times.seconds = Seconds(Clock::now() - start);
    if (!report.ok()) {
      return report.status();
    }
    times.rebuild_s = report->load_txn_seconds + report->scan_rebuild_seconds;
    times.revert_s = report->revert_seconds;
    times.replay_s = report->replay_seconds;
    times.replayed = report->replayed;
    return times;
  }

  TxnPtr Next() override {
    if (next_ == buffer_.size()) {
      buffer_ = workload_.MakeEpoch(256);
      next_ = 0;
    }
    return std::move(buffer_[next_++]);
  }

 protected:
  virtual core::DatabaseSpec Spec() const { return workload_.Spec(kWorkers); }

  Database& db() { return *db_; }
  void Release() {
    db_.reset();
    device_.reset();
  }

  // Declared first so it outlives the engine: transactions still queued in
  // the service point into it.
  Workload workload_;

 private:
  std::unique_ptr<sim::NvmDevice> device_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<service::DbService> service_;
  std::vector<TxnPtr> buffer_;
  std::size_t next_ = 0;
};

// ycsb_hot: 7 of 10 RMW ops on 256 hot rows collect many versions per row
// per epoch, so the paper's mechanism (DRAM intermediate versions, one final
// NVMM write per row per epoch) and the execute phase dominate; the data
// fits the version cache.
class YcsbHot final : public SingleTarget<workload::YcsbWorkload> {
 public:
  YcsbHot(std::uint64_t seed, const Plan& plan) : SingleTarget(Config(seed, plan)) {}

  bool Check(const EpochCounts& epochs, std::string* why) override {
    // The recovered state must equal a zero-latency hand-batched replay of
    // the same stream cut at the same epoch boundaries, crashed epochs
    // included.
    const std::uint64_t recovered = core::StateHash(core::CaptureState(db()));
    Release();  // the reference's threads take over the recovered engine's
    // The StateHash is the same for any worker count or pipelining setting;
    // three synchronous workers replay fastest within the thread budget.
    workload::YcsbWorkload replay(workload_.config());
    core::DatabaseSpec spec = replay.Spec(kWorkers + 1);
    spec.enable_epoch_pipeline = false;
    sim::NvmDevice device(
        DeviceConfig(Database::RequiredDeviceBytes(spec), sim::LatencyProfile::None()));
    Database reference(device, spec);
    reference.Format();
    replay.Load(reference);
    reference.FinalizeLoad();
    for (const auto& [epoch, count] : epochs) {
      while (reference.current_epoch() + 1 < epoch) {
        reference.ExecuteEpoch({});
      }
      reference.ExecuteEpoch(replay.MakeEpoch(count));
    }
    if (core::StateHash(core::CaptureState(reference)) != recovered) {
      *why = "recovered state differs from the hand-batched replay";
      return false;
    }
    return true;
  }

 private:
  static workload::YcsbConfig Config(std::uint64_t seed, const Plan& plan) {
    workload::YcsbConfig config;
    config.rows = ScaledCount(100'000, plan.data_scale);
    config.hot_rows = 256;
    config.hot_ops = 7;
    config.seed = seed;
    return config;
  }
};

// tpcc: every epoch inserts orders, order lines and history rows, so the
// insert step, pool allocation, index growth and major GC are heavy while
// version chains stay short; the only revert-and-replay recovery path.
class Tpcc final : public SingleTarget<workload::TpccWorkload> {
 public:
  Tpcc(std::uint64_t seed, const Plan& plan) : SingleTarget(Config(seed, plan)) {}

  bool Check(const EpochCounts&, std::string* why) override {
    return workload::TpccWorkload::CheckConsistency(db(), workload_.config(), why);
  }

 private:
  static workload::TpccConfig Config(std::uint64_t seed, const Plan& plan) {
    workload::TpccConfig config;
    config.warehouses = plan.data_scale < 1 ? 2 : 8;
    config.seed = seed;
    // Order capacity for every NewOrder of the run (45 % of the mix) with
    // headroom.
    config.new_order_capacity = static_cast<std::uint32_t>(plan.total_txns() / 2 + 4096);
    return config;
  }
};

// ycsb_scan_aria: YCSB-E (95 % scans of <= 100 keys) under Aria with a
// version cache smaller than the table, so skiplist traversal, NVMM reads
// and cache misses dominate; the only Aria workload.
class YcsbScanAria final : public SingleTarget<workload::YcsbWorkload> {
 public:
  YcsbScanAria(std::uint64_t seed, const Plan& plan) : SingleTarget(Config(seed, plan)) {}

  bool Check(const EpochCounts&, std::string* why) override {
    return core::ValidateOrderedIndex(db(), why) == 0;
  }

 protected:
  core::DatabaseSpec Spec() const override {
    core::DatabaseSpec spec = workload_.Spec(kWorkers);
    spec.concurrency = core::ConcurrencyControl::kAria;
    spec.cache_max_entries = 65'536;
    return spec;
  }

 private:
  static workload::YcsbConfig Config(std::uint64_t seed, const Plan& plan) {
    workload::YcsbConfig config = workload::YcsbConfig::ScanHeavy();
    config.rows = ScaledCount(200'000, plan.data_scale);
    config.seed = seed;
    return config;
  }
};

// sharded_kv: two shards of one worker each behind a ShardedDbService. Each
// transaction does little engine work, so the router, the read exchange,
// the per-epoch shard threads and the durability barrier show.
class ShardedKv final : public Target {
 public:
  ShardedKv(std::uint64_t seed, const Plan& plan)
      : keys_(ScaledCount(200'000, plan.data_scale)), rng_(seed) {
    base_.workers = 1;
    base_.tables.push_back(core::TableSpec{.name = "kv",
                                           .row_size = 256,
                                           .ordered = false,
                                           .capacity_rows = keys_ + 64,
                                           .freelist_capacity = 1024});
    // 512-1023-byte values live in 1 KB pool blocks: one per blob key per
    // shard, plus the stale versions awaiting GC.
    base_.value_block_size = 1024;
    base_.value_blocks_per_core = keys_ / 2 + 8192;
    base_.value_freelist_capacity = base_.value_blocks_per_core;
    base_.log_bytes = 4u << 20;
    base_.cache_max_entries = 1 << 16;
  }

  double Setup() override {
    db_.reset();
    devices_.clear();
    const Clock::time_point start = Clock::now();
    std::vector<sim::NvmDevice*> raw;
    for (std::size_t s = 0; s < kShards; ++s) {
      devices_.push_back(std::make_unique<sim::NvmDevice>(
          DeviceConfig(shard::ShardedDatabase::RequiredDeviceBytes(base_), kDeviceLatency)));
      raw.push_back(devices_.back().get());
    }
    db_ = std::make_unique<shard::ShardedDatabase>(raw, base_);
    db_->Format();
    for (Key k = 0; k < keys_; ++k) {
      const std::uint64_t value = InitialBalance(k);
      db_->BulkLoad(0, k, &value, sizeof(value));
    }
    db_->FinalizeLoad();
    return Seconds(Clock::now() - start);
  }

  void Serve(const ServiceSpec& spec) override {
    service_ = std::make_unique<service::ShardedDbService>(std::move(db_), spec);
  }

  Status Unserve() override {
    const Status stopped = service_->Stop();
    db_ = service_->TakeDatabase();
    service_.reset();
    return stopped;
  }

  StatusOr<TxnTicket> Submit(TxnPtr txn) override { return service_->Submit(std::move(txn)); }
  Status Drain() override { return service_->Drain(); }
  std::size_t EpochsExecuted() const override { return service_->epochs_executed(); }

  std::vector<Database*> Engines() override {
    std::vector<Database*> out;
    for (std::size_t s = 0; s < db_->shards(); ++s) {
      out.push_back(&db_->shard(s));
    }
    return out;
  }
  std::vector<sim::NvmDevice*> Devices() override {
    std::vector<sim::NvmDevice*> out;
    for (const auto& device : devices_) {
      out.push_back(device.get());
    }
    return out;
  }
  bool WriteEngineTrace(const std::string& path) override { return db_->WriteChromeTrace(path); }

  StatusOr<RecoveryTimes> CrashAndRecover(std::vector<TxnPtr> txns) override {
    db_->SetCrashHook([](std::size_t, core::CrashSite site) { return CrashesAt(site); });
    if (!db_->ExecuteEpoch(std::move(txns)).crashed) {
      return Status::Internal("the hand-cut epoch did not crash");
    }
    db_.reset();
    std::vector<sim::NvmDevice*> raw;
    for (const auto& device : devices_) {
      raw.push_back(device.get());
    }
    const Clock::time_point start = Clock::now();
    db_ = std::make_unique<shard::ShardedDatabase>(raw, base_);
    const StatusOr<shard::ShardedRecoveryReport> report = db_->Recover(test::KvRegistry());
    RecoveryTimes times;
    times.seconds = Seconds(Clock::now() - start);
    if (!report.ok()) {
      return report.status();
    }
    for (const core::RecoveryReport& r : report->shards) {
      times.rebuild_s += r.load_txn_seconds + r.scan_rebuild_seconds;
      times.revert_s += r.revert_seconds;
      times.replay_s += r.replay_seconds;
    }
    times.replayed = report->replayed;
    return times;
  }

  // 5 % two-key transfers over the account keys (the first quarter of the
  // keyspace; about half cross shards), 45 % RMW and 50 % 512-1023-byte
  // puts over the rest, so the balances stay u64 and are conserved.
  TxnPtr Next() override {
    ++generated_;
    const std::uint64_t accounts = keys_ / 4;
    const std::uint64_t pick = rng_.NextBounded(100);
    if (pick < 5) {
      const Key a = rng_.NextBounded(accounts);
      const Key b = (a + 1 + rng_.NextBounded(accounts - 1)) % accounts;
      if (PartitionOf(0, a, kShards) != PartitionOf(0, b, kShards)) {
        ++cross_;
      }
      return std::make_unique<test::KvXferTxn>(a, b, 1 + rng_.NextBounded(8));
    }
    const Key key = accounts + rng_.NextBounded(keys_ - accounts);
    if (pick < 50) {
      return std::make_unique<test::KvRmwTxn>(key, rng_.NextBounded(1000));
    }
    return std::make_unique<test::KvVarPutTxn>(
        key, static_cast<std::uint32_t>(512 + rng_.NextBounded(512)), rng_.Next());
  }

  bool Check(const EpochCounts&, std::string* why) override {
    std::uint64_t expected = 0;
    std::uint64_t total = 0;
    for (Key k = 0; k < keys_ / 4; ++k) {
      std::uint64_t value = 0;
      if (!db_->ReadCommitted(0, k, &value, sizeof(value)).ok()) {
        *why = "account key " + std::to_string(k) + " is missing after recovery";
        return false;
      }
      expected += InitialBalance(k);
      total += value;
    }
    if (total != expected) {
      *why = "total balance " + std::to_string(total) + " != " + std::to_string(expected);
      return false;
    }
    return true;
  }

  double CrossShardFraction() const override {
    return Ratio(static_cast<double>(cross_), static_cast<double>(generated_));
  }

 private:
  static std::uint64_t InitialBalance(Key k) { return 1000 + k; }

  std::uint64_t keys_;
  Rng rng_;
  core::DatabaseSpec base_;
  std::vector<std::unique_ptr<sim::NvmDevice>> devices_;
  std::unique_ptr<shard::ShardedDatabase> db_;
  std::unique_ptr<service::ShardedDbService> service_;
  std::uint64_t generated_ = 0;
  std::uint64_t cross_ = 0;
};

std::unique_ptr<Target> MakeTarget(const std::string& name, std::uint64_t seed,
                                   const Plan& plan) {
  if (name == "ycsb_hot") {
    return std::make_unique<YcsbHot>(seed, plan);
  }
  if (name == "tpcc") {
    return std::make_unique<Tpcc>(seed, plan);
  }
  if (name == "ycsb_scan_aria") {
    return std::make_unique<YcsbScanAria>(seed, plan);
  }
  return std::make_unique<ShardedKv>(seed, plan);
}

// ---- The open-loop generator -------------------------------------------------

// One resolved ticket, times in microseconds since the run's origin.
struct TicketTimes {
  double due_us;
  double entry_us;    // Submit called
  double exit_us;     // Submit returned (the service's submit time)
  double durable_us;  // exit + TicketResult::latency_micros
  Epoch epoch;
};

struct PhaseLog {
  std::size_t attempted = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t failed = 0;  // rejected submissions plus kFailed tickets
  std::uint64_t deferrals = 0;
  std::size_t epochs = 0;
  double wall_s = 0;                // first send to Drain() returning
  std::vector<double> commit_us;    // scheduled send -> durable
  std::map<Epoch, EpochDone> epoch_done;  // resolved tickets by epoch
  std::vector<double> submit_us;    // Submit call duration
  std::vector<double> lag_us;       // Submit entry minus scheduled send
  std::vector<TicketTimes> tickets;  // kept for traced runs
  Status status;                    // first failure, if any

  // Adds the log of a later phase of the same kind (the phases of one kind
  // run in different rounds, so their epochs are disjoint).
  void Append(PhaseLog&& later) {
    attempted += later.attempted;
    committed += later.committed;
    aborted += later.aborted;
    failed += later.failed;
    deferrals += later.deferrals;
    epochs += later.epochs;
    wall_s += later.wall_s;
    commit_us.insert(commit_us.end(), later.commit_us.begin(), later.commit_us.end());
    epoch_done.merge(later.epoch_done);
    submit_us.insert(submit_us.end(), later.submit_us.begin(), later.submit_us.end());
    lag_us.insert(lag_us.end(), later.lag_us.begin(), later.lag_us.end());
    tickets.insert(tickets.end(), later.tickets.begin(), later.tickets.end());
    if (status.ok()) {
      status = later.status;
    }
  }
};

// Offers `count` transactions from the target's stream: on a fixed schedule
// at `rate` txn/s, or as fast as Submit admits them when rate is 0.
PhaseLog Drive(Target& target, double rate, std::size_t count, Clock::time_point origin,
               bool keep_tickets) {
  struct InFlight {
    TxnTicket ticket;
    double due_us;
    double entry_us;
    double exit_us;
  };
  PhaseLog log;
  log.commit_us.reserve(count);
  log.submit_us.reserve(count);
  log.lag_us.reserve(count);
  std::deque<InFlight> inflight;
  const auto resolve = [&](const InFlight& f) {
    const service::TicketResult& r = f.ticket.Get();
    log.deferrals += r.deferrals;
    if (r.outcome == TicketOutcome::kFailed) {
      ++log.failed;
      if (log.status.ok()) {
        log.status = r.status;
      }
      return;
    }
    ++(r.outcome == TicketOutcome::kCommitted ? log.committed : log.aborted);
    log.commit_us.push_back(f.entry_us - f.due_us + r.latency_micros);
    EpochDone& done = log.epoch_done[r.epoch];
    // exit_us is at or after the service's submit time, so the earliest
    // estimate is the closest to the epoch's durable point.
    done.durable_us = std::min(done.durable_us, f.exit_us + r.latency_micros);
    ++done.resolved;
    done.committed += r.outcome == TicketOutcome::kCommitted ? 1 : 0;
    if (keep_tickets) {
      log.tickets.push_back(
          {f.due_us, f.entry_us, f.exit_us, f.exit_us + r.latency_micros, r.epoch});
    }
  };

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    TxnPtr txn = target.Next();  // generated before its send time
    Clock::time_point due = start;
    if (rate > 0) {
      due += std::chrono::nanoseconds(
          static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate));
      std::this_thread::sleep_until(due);
    }
    const Clock::time_point entry = Clock::now();
    if (rate <= 0) {
      due = entry;
    }
    StatusOr<TxnTicket> ticket = target.Submit(std::move(txn));
    const Clock::time_point exit = Clock::now();
    ++log.attempted;
    log.submit_us.push_back(Micros(exit - entry));
    log.lag_us.push_back(Micros(entry - due));
    if (!ticket.ok()) {
      ++log.failed;
      if (log.status.ok()) {
        log.status = ticket.status();
      }
      continue;
    }
    inflight.push_back({std::move(ticket).value(), Micros(due - origin), Micros(entry - origin),
                        Micros(exit - origin)});
    while (!inflight.empty() && inflight.front().ticket.done()) {
      resolve(inflight.front());
      inflight.pop_front();
    }
  }
  const Status drained = target.Drain();
  log.wall_s = Seconds(Clock::now() - start);
  if (!drained.ok() && log.status.ok()) {
    log.status = drained;
  }
  for (const InFlight& f : inflight) {
    resolve(f);  // Drain returned, so every ticket is resolved
  }
  log.epochs = target.EpochsExecuted();
  return log;
}

// ---- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string NumbersJson(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Number(values[i]);
  }
  return out + "]";
}

core::MemoryBreakdown Memory(Target& target) {
  core::MemoryBreakdown sum;
  for (Database* engine : target.Engines()) {
    const core::MemoryBreakdown m = engine->GetMemoryBreakdown();
    sum.dram_index_bytes += m.dram_index_bytes;
    sum.dram_transient_bytes += m.dram_transient_bytes;
    sum.dram_cache_bytes += m.dram_cache_bytes;
    sum.nvm_row_bytes += m.nvm_row_bytes;
    sum.nvm_value_bytes += m.nvm_value_bytes;
    sum.nvm_log_bytes += m.nvm_log_bytes;
  }
  return sum;
}

struct PhaseWork {
  double wall_ms = 0;
  double busy_ms = 0;
  OpCounters ops;
};

// Cumulative profiler, engine and device counts of the target at one
// instant, summed over its engines and devices, or the difference of two
// such instants.
struct Work {
  std::array<PhaseWork, kPhaseCount> phases{};
  std::vector<double> engine_wall_ms;  // per engine, every phase but the tail
  std::uint64_t tail_ns = 0;
  std::uint64_t overlapped_ns = 0;
  OpCounters counters;  // engine stats and device counters

  Work operator-(const Work& o) const {
    Work d = *this;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      d.phases[p].wall_ms -= o.phases[p].wall_ms;
      d.phases[p].busy_ms -= o.phases[p].busy_ms;
      d.phases[p].ops = phases[p].ops - o.phases[p].ops;
    }
    for (std::size_t i = 0; i < std::min(d.engine_wall_ms.size(), o.engine_wall_ms.size()); ++i) {
      d.engine_wall_ms[i] -= o.engine_wall_ms[i];
    }
    d.tail_ns -= o.tail_ns;
    d.overlapped_ns -= o.overlapped_ns;
    d.counters = counters - o.counters;
    return d;
  }

  Work& operator+=(const Work& o) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      phases[p].wall_ms += o.phases[p].wall_ms;
      phases[p].busy_ms += o.phases[p].busy_ms;
      phases[p].ops += o.phases[p].ops;
    }
    engine_wall_ms.resize(std::max(engine_wall_ms.size(), o.engine_wall_ms.size()));
    for (std::size_t i = 0; i < o.engine_wall_ms.size(); ++i) {
      engine_wall_ms[i] += o.engine_wall_ms[i];
    }
    tail_ns += o.tail_ns;
    overlapped_ns += o.overlapped_ns;
    counters += o.counters;
    return *this;
  }
};

// The target's work so far; its engines' profilers must be on.
Work Measure(Target& target) {
  Work work;
  for (Database* engine : target.Engines()) {
    const ProfileReport report = engine->ProfileReport();
    double wall_ms = 0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      work.phases[p].wall_ms += report.phases[p].wall_ms;
      work.phases[p].busy_ms += report.phases[p].busy_ms;
      work.phases[p].ops += report.phases[p].ops;
      if (static_cast<Phase>(p) != Phase::kTailPersist) {
        wall_ms += report.phases[p].wall_ms;
      }
    }
    work.engine_wall_ms.push_back(wall_ms);
    work.tail_ns += report.pipeline.tail_ns;
    work.overlapped_ns += report.pipeline.overlapped_ns;
    const EngineStats& s = engine->stats();
    work.counters.cache_hits += s.cache_hits.Sum();
    work.counters.cache_misses += s.cache_misses.Sum();
    work.counters.transient_writes += s.transient_writes.Sum();
    work.counters.persistent_writes += s.persistent_writes.Sum();
  }
  for (sim::NvmDevice* device : target.Devices()) {
    const sim::NvmCounters c = device->stats().Snapshot();
    work.counters.nvm_read_granules += c.read_granules;
    work.counters.nvm_write_bytes += c.write_bytes;
    work.counters.nvm_write_lines += c.persisted_lines;
    work.counters.nvm_fences += c.fences;
  }
  return work;
}

// Phases reported per epoch, and whether the phase fans out over workers
// (busy time) and has its device ops attributed. Cache eviction and finish
// run on the epoch thread without device ops; the tail thread records neither, so
// its device ops land in whichever foreground phase ran concurrently.
// Demotion, batch append, gc-log and recovery-backfill are left out: no
// workload enables their features.
struct ReportedPhase {
  Phase phase;
  bool busy;
  bool device;
};
constexpr ReportedPhase kReportedPhases[] = {
    {Phase::kLogInputs, true, true},  {Phase::kInsert, true, true},
    {Phase::kMajorGc, true, true},    {Phase::kCacheEvict, false, false},
    {Phase::kAppend, true, true},     {Phase::kExecute, true, true},
    {Phase::kCheckpoint, true, true}, {Phase::kFinish, false, false},
    {Phase::kTailPersist, false, false}, {Phase::kOther, false, true},
};

// First phase-span start and last span end of one engine epoch, in
// microseconds since the run's origin, across all engines of the target.
// The Aria epoch loop records no phase spans, only its tail.
struct EpochWindow {
  double start = std::numeric_limits<double>::infinity();
  double end = -std::numeric_limits<double>::infinity();       // foreground
  double tail_end = -std::numeric_limits<double>::infinity();  // pipelined tail
  bool foreground() const { return std::isfinite(start); }
  double durable_end() const { return std::max(end, tail_end); }
};

// Adds the epoch windows of the target's current engines, whose profilers
// were switched on `origin_offsets_us` after the run's origin. Epoch numbers
// carry on across a recovery, so the windows of successive engine instances
// do not collide.
void AddEpochWindows(Target& target, const std::vector<double>& origin_offsets_us,
                     std::map<Epoch, EpochWindow>* windows) {
  const std::vector<Database*> engines = target.Engines();
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const double off = origin_offsets_us[i];
    for (const PhaseSpan& span : engines[i]->profiler().driver_spans()) {
      EpochWindow& w = (*windows)[span.epoch];
      w.start = std::min(w.start, off + static_cast<double>(span.start_ns) / 1e3);
      w.end = std::max(w.end, off + static_cast<double>(span.start_ns + span.dur_ns) / 1e3);
    }
    for (const PhaseSpan& span : engines[i]->profiler().tail_spans()) {
      EpochWindow& w = (*windows)[span.epoch];
      w.tail_end =
          std::max(w.tail_end, off + static_cast<double>(span.start_ns + span.dur_ns) / 1e3);
    }
  }
}

// The bench's own spans in Chrome trace-event format, for the tickets of
// epoch `first_epoch` on (those of the engine instance whose trace
// <workload>.engine.json holds), on the clock of that instance's first
// engine.
bool WriteClientTrace(const std::string& path, const std::vector<const PhaseLog*>& phases,
                      Epoch first_epoch, double clock_offset_us) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    return false;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
        "\"args\":{\"name\":\"client.submit\"}},\n"
     << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":2,"
        "\"args\":{\"name\":\"client.ticket\"}}";
  std::size_t id = 0;
  const auto emit = [&](const char* name, int tid, double start_us, double end_us, Epoch epoch) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  ",\n{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":2,\"tid\":%d,\"id\":%zu,\"args\":{\"epoch\":%llu}}",
                  name, start_us - clock_offset_us, end_us - start_us, tid, id,
                  static_cast<unsigned long long>(epoch));
    os << buffer;
  };
  for (const PhaseLog* phase : phases) {
    for (const TicketTimes& t : phase->tickets) {
      if (id == kMaxClientTickets) {
        break;
      }
      if (t.epoch < first_epoch) {
        continue;
      }
      emit("client.submit", 1, t.entry_us, t.exit_us, t.epoch);
      emit("client.ticket", 2, t.due_us, t.durable_us, t.epoch);
      ++id;
    }
  }
  os << "\n]}\n";
  return os.good();
}

// Per-layer metrics of a traced run: service latencies over the rated
// phases, everything else over the peak phases (`work` is what they did),
// memory as the engines stood after the last peak phase.
Metrics LayerMetrics(Target& target, const PhaseLog& rated, const PhaseLog& peak,
                     const Work& work, const std::map<Epoch, EpochWindow>& windows,
                     const core::MemoryBreakdown& memory) {
  Metrics layers;
  const auto layer = [&layers](const std::string& name, double value, const char* unit) {
    layers.push_back({name, value, unit});
  };
  std::vector<double> queue_wait;
  std::vector<double> notify;
  for (const TicketTimes& t : rated.tickets) {
    const auto it = windows.find(t.epoch);
    if (it == windows.end()) {
      continue;
    }
    if (it->second.foreground()) {
      queue_wait.push_back(it->second.start - t.exit_us);
    }
    notify.push_back(t.durable_us - it->second.durable_end());
  }
  std::vector<double> epoch_ms;
  std::vector<double> gap_ms;
  for (const auto& entry : peak.epoch_done) {
    const Epoch e = entry.first;
    const auto it = windows.find(e);
    if (it == windows.end() || !it->second.foreground()) {
      continue;
    }
    epoch_ms.push_back((it->second.end - it->second.start) / 1e3);
    const auto next = windows.find(e + 1);
    if (peak.epoch_done.count(e + 1) != 0 && next != windows.end() &&
        next->second.foreground()) {
      gap_ms.push_back((next->second.start - it->second.end) / 1e3);
    }
  }
  const double peak_epochs = static_cast<double>(peak.epochs);
  const double executed_slots =
      static_cast<double>(peak.committed + peak.aborted + peak.deferrals);

  layer("service.queue_wait_us.p50", Quantile(queue_wait, 0.5), "us");
  layer("service.notify_us.p50", Quantile(notify, 0.5), "us");
  layer("service.submit_us.p99", Quantile(rated.submit_us, 0.99), "us");
  layer("service.txns_per_epoch", Ratio(static_cast<double>(peak.attempted), peak_epochs),
        "txn/epoch");
  layer("service.gen_lag_us.p99", Quantile(rated.lag_us, 0.99), "us");
  layer("service.commit_p99_us", Quantile(rated.commit_us, 0.99), "us");
  layer("service.commit_p999_us", Quantile(rated.commit_us, 0.999), "us");

  layer("core.epoch_ms.p50", Quantile(epoch_ms, 0.5), "ms");
  for (const ReportedPhase& reported : kReportedPhases) {
    const PhaseWork& phase = work.phases[static_cast<std::size_t>(reported.phase)];
    const std::string prefix = std::string("core.phase.") + PhaseName(reported.phase);
    layer(prefix + ".wall_ms_per_epoch", Ratio(phase.wall_ms, peak_epochs), "ms");
    if (reported.busy) {
      layer(prefix + ".busy_ms_per_epoch", Ratio(phase.busy_ms, peak_epochs), "ms");
    }
    if (reported.device) {
      layer(prefix + ".device_ms_per_epoch",
            Ratio(DeviceMs(phase.ops.nvm_read_granules, phase.ops.nvm_write_lines,
                           phase.ops.nvm_fences),
                  peak_epochs),
            "ms");
    }
  }
  layer("core.tail_overlap_frac",
        Ratio(static_cast<double>(work.overlapped_ns), static_cast<double>(work.tail_ns)),
        "ratio");
  layer("core.defer_ratio", Ratio(static_cast<double>(peak.deferrals), executed_slots),
        "ratio");
  layer("core.abort_frac",
        Ratio(static_cast<double>(peak.aborted),
              static_cast<double>(peak.committed + peak.aborted)),
        "ratio");

  const OpCounters& c = work.counters;
  const auto hits = static_cast<double>(c.cache_hits);
  const auto transient = static_cast<double>(c.transient_writes);
  layer("vstore.cache_hit_ratio", Ratio(hits, hits + static_cast<double>(c.cache_misses)),
        "ratio");
  layer("vstore.transient_share",
        Ratio(transient, transient + static_cast<double>(c.persistent_writes)), "ratio");
  layer("index.dram_mb", static_cast<double>(memory.dram_index_bytes) / kMB, "MB");
  layer("alloc.transient_mb_hwm", static_cast<double>(memory.dram_transient_bytes) / kMB, "MB");
  layer("alloc.nvm_value_mb", static_cast<double>(memory.nvm_value_bytes) / kMB, "MB");
  layer("alloc.nvm_row_mb", static_cast<double>(memory.nvm_row_bytes) / kMB, "MB");

  const double txns = static_cast<double>(peak.committed + peak.aborted);
  layer("sim.write_bytes_per_txn", Ratio(static_cast<double>(c.nvm_write_bytes), txns),
        "B/txn");
  layer("sim.persisted_lines_per_txn", Ratio(static_cast<double>(c.nvm_write_lines), txns),
        "lines/txn");
  layer("sim.read_granules_per_txn", Ratio(static_cast<double>(c.nvm_read_granules), txns),
        "granules/txn");
  layer("sim.fences_per_epoch", Ratio(static_cast<double>(c.nvm_fences), peak_epochs),
        "fences/epoch");
  layer("sim.device_ms_per_epoch",
        Ratio(DeviceMs(c.nvm_read_granules, c.nvm_write_lines, c.nvm_fences), peak_epochs), "ms");

  double max_wall = 0;
  double sum_wall = 0;
  for (const double w : work.engine_wall_ms) {
    max_wall = std::max(max_wall, w);
    sum_wall += w;
  }
  layer("shard.cross_frac", target.CrossShardFraction(), "ratio");
  layer("shard.defer_ratio",
        Ratio(static_cast<double>(rated.deferrals),
              static_cast<double>(rated.committed + rated.aborted)),
        "ratio");
  layer("shard.imbalance",
        Ratio(max_wall, sum_wall / static_cast<double>(work.engine_wall_ms.size())), "ratio");
  layer("shard.gap_ms_per_epoch", Quantile(gap_ms, 0.5), "ms");
  return layers;
}

// ---- One run -------------------------------------------------------------------

struct RunOutput {
  bool correct = true;
  std::string why;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics e2e;
  Metrics layers;  // traced runs only
  // The samples behind the end-to-end medians.
  std::vector<double> setup_s;
  std::vector<double> recover_ms;
  std::vector<double> peak_tps;       // one per round
  std::vector<double> commit_p50_us;  // one per round
  std::vector<double> commit_p90_us;  // one per round
  std::string phases_json;
};

void Fail(RunOutput& out, const std::string& why) {
  if (out.correct) {
    out.correct = false;
    out.why = why;
  }
}

std::string PhaseJson(const PhaseLog& log) {
  return "{\"attempted\": " + std::to_string(log.attempted) +
         ", \"committed\": " + std::to_string(log.committed) +
         ", \"aborted\": " + std::to_string(log.aborted) +
         ", \"failed\": " + std::to_string(log.failed) +
         ", \"deferrals\": " + std::to_string(log.deferrals) +
         ", \"epochs\": " + std::to_string(log.epochs) + ", \"wall_s\": " + Number(log.wall_s) +
         "}";
}

RunOutput RunOnce(const WorkloadInfo& info, const Options& opt) {
  const bool traced = !opt.trace_dir.empty();
  const Plan plan = Plan::For(info, opt);
  std::unique_ptr<Target> target = MakeTarget(info.name, opt.seed, plan);
  RunOutput out;
  Clock::time_point stage_start = Clock::now();
  const auto stage_done = [&stage_start](const char* stage) {
    std::fprintf(stderr, "[nvc_bench]   %-9s %7.2f s\n", stage, Seconds(Clock::now() - stage_start));
    stage_start = Clock::now();
  };

  for (int i = 0; i < plan.setup_runs; ++i) {
    out.setup_s.push_back(target->Setup());
  }
  stage_done("set-up");

  ServiceSpec open_loop;  // max_epoch_txns / max_epoch_delay defaults
  open_loop.queue_capacity =
      std::max(plan.warmup_txns, plan.rated_txns) + open_loop.max_epoch_txns;  // never blocks
  ServiceSpec saturating;
  saturating.queue_capacity = kPeakQueueCapacity;
  saturating.backpressure = service::BackpressurePolicy::kBlock;

  const Clock::time_point origin = Clock::now();
  const auto run_phase = [&](const ServiceSpec& spec, double rate, std::size_t count,
                             const char* name) {
    target->Serve(spec);
    PhaseLog log = Drive(*target, rate, count, origin, traced);
    const Status s = target->Unserve();
    if (!s.ok()) {
      Fail(out, std::string(name) + ": " + s.ToString());
    }
    return log;
  };
  // When each profiler of the current engine instance started, in
  // microseconds after `origin` (traced runs).
  std::vector<double> profiler_offsets_us;
  const auto start_profilers = [&] {
    profiler_offsets_us.clear();
    for (Database* engine : target->Engines()) {
      profiler_offsets_us.push_back(Micros(Clock::now() - origin));
      engine->ConfigureProfiler(ProfilerConfig{.enabled = true});
    }
  };

  const PhaseLog warmup = run_phase(open_loop, plan.rate_tps, plan.warmup_txns, "warm-up");
  stage_done("warm-up");
  if (traced) {
    start_profilers();
  }

  PhaseLog rated;
  PhaseLog peak;
  Work peak_work;
  std::map<Epoch, EpochWindow> windows;
  core::MemoryBreakdown memory;
  EpochCounts epochs;
  Epoch instance_first_epoch = 0;  // of the current engine instance
  std::vector<double> rebuild_ms, revert_ms, replay_ms;
  for (int round = 0; round < plan.rounds && out.correct; ++round) {
    PhaseLog r = run_phase(open_loop, plan.rate_tps, plan.rated_txns, "rated");
    out.commit_p50_us.push_back(Quantile(r.commit_us, 0.50));
    out.commit_p90_us.push_back(Quantile(r.commit_us, 0.90));
    rated.Append(std::move(r));

    const Work before = traced ? Measure(*target) : Work{};
    PhaseLog p = run_phase(saturating, 0, plan.peak_txns, "peak");
    if (traced) {
      peak_work += Measure(*target) - before;
    }
    memory = Memory(*target);
    if (const double rate = SteadyRate(p.epoch_done); rate > 0) {
      out.peak_tps.push_back(rate);
    }
    peak.Append(std::move(p));

    if (!plan.RecoversAfter(round)) {
      continue;
    }
    // One more epoch of the stream crashes before its checkpoint and a
    // fresh engine recovers it.
    if (traced) {
      AddEpochWindows(*target, profiler_offsets_us, &windows);
    }
    std::vector<TxnPtr> crash_txns;
    for (std::size_t t = 0; t < kCrashEpochTxns; ++t) {
      crash_txns.push_back(target->Next());
    }
    const Epoch crashed = target->Engines()[0]->current_epoch() + 1;
    epochs[crashed] += kCrashEpochTxns;
    const StatusOr<RecoveryTimes> rec = target->CrashAndRecover(std::move(crash_txns));
    if (!rec.ok()) {
      Fail(out, "recovery: " + rec.status().ToString());
      break;
    }
    if (!rec->replayed) {
      Fail(out, "recovery did not replay the crashed epoch");
      break;
    }
    out.recover_ms.push_back(rec->seconds * 1e3);
    rebuild_ms.push_back(rec->rebuild_s * 1e3);
    revert_ms.push_back(rec->revert_s * 1e3);
    replay_ms.push_back(rec->replay_s * 1e3);
    instance_first_epoch = crashed + 1;
    if (traced) {
      start_profilers();
    }
  }
  stage_done("rounds");

  const PhaseLog* const logs[] = {&warmup, &rated, &peak};
  for (const PhaseLog* log : logs) {
    out.attempted += log->attempted;
    out.failed += log->failed;
    if (!log->status.ok()) {
      Fail(out, "a ticket failed: " + log->status.ToString());
    }
    for (const auto& [epoch, done] : log->epoch_done) {
      epochs[epoch] += done.resolved;
    }
  }
  if (out.failed != 0) {
    Fail(out, std::to_string(out.failed) + " submissions failed");
  }
  out.phases_json = "{\"warmup\": " + PhaseJson(warmup) + ", \"rated\": " + PhaseJson(rated) +
                    ", \"peak\": " + PhaseJson(peak) + "}";

  // Per-layer numbers need the engines, which the ycsb_hot check releases.
  if (traced && out.correct) {
    AddEpochWindows(*target, profiler_offsets_us, &windows);
    out.layers = LayerMetrics(*target, rated, peak, peak_work, windows, memory);
    out.layers.push_back({"core.recover.rebuild_ms", Quantile(rebuild_ms, 0.5), "ms"});
    out.layers.push_back({"core.recover.revert_ms", Quantile(revert_ms, 0.5), "ms"});
    out.layers.push_back({"core.recover.replay_ms", Quantile(replay_ms, 0.5), "ms"});
    const std::string base = opt.trace_dir + "/" + info.name;
    if (!target->WriteEngineTrace(base + ".engine.json") ||
        !WriteClientTrace(base + ".client.json", {&rated, &peak}, instance_first_epoch,
                          profiler_offsets_us[0])) {
      Fail(out, "cannot write trace files under " + opt.trace_dir);
    }
  }
  if (out.correct) {
    std::string why;
    if (!target->Check(epochs, &why)) {
      Fail(out, "check: " + why);
    }
  }
  stage_done("check");

  out.e2e = {
      {"peak_tps", Quantile(out.peak_tps, 0.5), "txn/s"},
      {"commit_p50_us", Quantile(out.commit_p50_us, 0.5), "us"},
      {"commit_p90_us", Quantile(out.commit_p90_us, 0.5), "us"},
      {"recover_ms", Quantile(out.recover_ms, 0.5), "ms"},
      {"setup_s", Quantile(out.setup_s, 0.5), "s"},
      {"dram_mb", static_cast<double>(memory.dram_total()) / kMB, "MB"},
      {"nvm_mb", static_cast<double>(memory.nvm_total()) / kMB, "MB"},
  };
  return out;
}

// ---- Reporting -----------------------------------------------------------------

void PrintTable(const std::string& title, const Metrics& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool WriteResultFile(const std::string& path, const Options& opt, const WorkloadInfo& info,
                     const RunOutput& run, const Metrics& final_metrics) {
  const Plan plan = Plan::For(info, opt);
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    return false;
  }
  os << "{\"workload\": " << JsonString(info.name) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace_dir.empty() ? "false" : "true")
     << ", \"git_sha\": " << JsonString(opt.git_sha)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << JsonString(NVC_BENCH_BUILD_TYPE)
     << ", \"rate_tps\": " << Number(plan.rate_tps) << ", \"rated_seconds\": "
     << Number(opt.seconds) << ", \"rounds\": " << plan.rounds
     << ", \"phase_txns\": {\"warmup\": " << plan.warmup_txns
     << ", \"rated_per_round\": " << plan.rated_txns
     << ", \"peak_per_round\": " << plan.peak_txns << ", \"crash_epoch\": " << kCrashEpochTxns
     << "}, \"correct\": " << (run.correct ? "true" : "false")
     << ", \"why\": " << JsonString(run.why) << ", \"attempted\": " << run.attempted
     << ", \"failed\": " << run.failed << ", \"samples\": {\"setup_s\": "
     << NumbersJson(run.setup_s) << ", \"recover_ms\": " << NumbersJson(run.recover_ms)
     << ", \"peak_tps\": " << NumbersJson(run.peak_tps)
     << ", \"commit_p50_us\": " << NumbersJson(run.commit_p50_us)
     << ", \"commit_p90_us\": " << NumbersJson(run.commit_p90_us) << "}"
     << ", \"phases\": " << run.phases_json << ", \"end_to_end\": " << MetricsJson(run.e2e)
     << ", \"metrics\": " << MetricsJson(final_metrics) << "}\n";
  return os.good();
}

// Runs one workload and prints the result line: the end-to-end metrics, or
// with --trace the per-layer ones. Returns true when every check passed.
bool RunWorkload(const WorkloadInfo& info, const Options& opt) {
  const bool traced = !opt.trace_dir.empty();
  std::fprintf(stderr, "[nvc_bench] %s seed=%llu rate=%.0f txn/s%s\n", info.name,
               static_cast<unsigned long long>(opt.seed), Plan::For(info, opt).rate_tps,
               traced ? " (traced)" : "");
  const RunOutput run = RunOnce(info, opt);
  PrintTable(std::string(info.name) + (traced ? ": end-to-end (traced)" : ": end-to-end"),
             run.e2e);
  if (traced) {
    PrintTable(std::string(info.name) + ": per layer", run.layers);
  }
  if (!run.correct) {
    std::printf("CHECK FAILED: %s\n", run.why.c_str());
  }
  const Metrics& metrics = traced ? run.layers : run.e2e;
  if (!opt.out_path.empty() && !WriteResultFile(opt.out_path, opt, info, run, metrics)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              run.correct ? "true" : "false", run.attempted, run.failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return run.correct;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : kWorkloads) {
    if (name == info.name) {
      return &info;
    }
  }
  return nullptr;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: nvc_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=DIR]\n"
               "                 [--out=PATH] [--git-sha=SHA]\n"
               "       nvc_bench --smoke [--trace=DIR]\n"
               "workloads: ycsb_hot tpcc ycsb_scan_aria sharded_kv\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    const auto flag = [&](const char* name) {
      const std::size_t n = std::strlen(name);
      if (arg.compare(0, n, name) != 0) {
        return false;
      }
      v = argv[i] + n;
      return true;
    };
    char* end = nullptr;
    if (flag("--workload=")) {
      opt.workload = v;
    } else if (flag("--seed=")) {
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') {
        Usage("--seed takes a non-negative integer");
      }
    } else if (flag("--seconds=")) {
      opt.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 60) {
        Usage("--seconds takes a number in (0, 60]");
      }
    } else if (flag("--trace=")) {
      opt.trace_dir = v;
    } else if (flag("--out=")) {
      opt.out_path = v;
    } else if (flag("--git-sha=")) {
      opt.git_sha = v;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      Usage(("unknown argument: " + arg).c_str());
    }
  }
  if (!opt.smoke && FindWorkload(opt.workload) == nullptr) {
    Usage(("unknown workload: " + opt.workload).c_str());
  }
  return opt;
}

}  // namespace
}  // namespace nvc::bench

int main(int argc, char** argv) {
  using namespace nvc::bench;
  Options opt = ParseOptions(argc, argv);
  try {
    if (!opt.smoke) {
      return RunWorkload(*FindWorkload(opt.workload), opt) ? 0 : 1;
    }
    // Every workload at small scale with every check on.
    opt.seconds = 0.5;
    bool ok = true;
    for (const WorkloadInfo& info : kWorkloads) {
      ok = RunWorkload(info, opt) && ok;
    }
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nvc_bench: %s\n", e.what());
    return 1;
  }
}
