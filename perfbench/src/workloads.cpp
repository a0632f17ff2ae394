#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_engine.hpp"
#include "exp/scenario.hpp"
#include "models/zoo.hpp"
#include "obs/metrics_registry.hpp"
#include "policies/factory.hpp"
#include "policies/icebreaker.hpp"
#include "serve/line_protocol.hpp"
#include "serve/server.hpp"
#include "sim/deployment.hpp"
#include "sim/engine.hpp"
#include "timed_policy.hpp"
#include "trace/azure_format.hpp"
#include "trace/azure_stream.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using pulse::trace::Minute;
using pulse::trace::kMinutesPerDay;

namespace {

// ---------------------------------------------------------------------------
// Workload parameters. They are fixed here, not read from the command line,
// so that every benchmark run of one commit measures the same thing.
// ---------------------------------------------------------------------------

/// Every workload deploys model families round-robin. A random assignment
/// made the simulated metrics depend on which families the hottest
/// functions drew, so on the seed far more than on the trace.

/// Global invocation peaks injected per simulated day ("about 2 per day").
constexpr std::size_t kPeaksPerDay = 2;

/// serve==batch runs at this reduced size (multi-day, unlike the timed
/// serve stream).
constexpr InputSize kServeCheckSize{48, 2};

/// cluster-tenants: four tenants of the base trace on 4 shards stepped by 2
/// threads, keep-alive capacity below peak so capacity eviction runs, and
/// engine plus shard faults on.
constexpr std::size_t kTenants = 4;
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardThreads = 2;
constexpr double kCapacityShareOfPeak = 0.35;
constexpr double kContainerCrashRate = 1e-4;
constexpr double kColdStartFailureRate = 0.02;
constexpr double kSloMultiplier = 3.0;
/// Per shard-minute; ~7 crashes expected over 4 shards x 2 days.
constexpr double kShardCrashRate = 6e-4;

/// Stream tags deriving the run's seeds from the workload seed.
constexpr std::uint64_t kEngineStream = 0xe991;
constexpr std::uint64_t kFaultStream = 0xfa17;
constexpr std::uint64_t kShardFaultStream = 0x5fa1;
constexpr std::uint64_t kTenantStream = 0x7e4a;

// ---------------------------------------------------------------------------
// bench.cfg: one "key value" pair per line.
// ---------------------------------------------------------------------------

using Config = std::map<std::string, std::string>;

void write_config(const fs::path& path, const Config& config) {
  std::ofstream out(path);
  for (const auto& [key, value] : config) out << key << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

Config read_config(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  Config config;
  std::string key;
  std::string value;
  while (in >> key >> value) config[key] = value;
  return config;
}

std::uint64_t get_u64(const Config& config, const std::string& key) {
  const auto it = config.find(key);
  if (it == config.end()) throw std::runtime_error("bench.cfg: missing key " + key);
  return std::stoull(it->second);
}

/// Function count, horizon, total invocations and an FNV-1a hash of every
/// count cell: what the measured process must find after loading.
struct TraceDigest {
  std::uint64_t functions = 0;
  std::uint64_t minutes = 0;
  std::uint64_t invocations = 0;
  std::uint64_t fingerprint = 0;
};

TraceDigest digest(const pulse::trace::Trace& trace) {
  TraceDigest d;
  d.functions = trace.function_count();
  d.minutes = static_cast<std::uint64_t>(trace.duration());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (pulse::trace::FunctionId f = 0; f < trace.function_count(); ++f) {
    for (const std::uint32_t c : trace.series(f)) {
      d.invocations += c;
      h = (h ^ c) * 0x100000001b3ULL;
    }
  }
  d.fingerprint = h;
  return d;
}

void put_digest(Config& config, const std::string& prefix, const TraceDigest& d) {
  config[prefix + "functions"] = std::to_string(d.functions);
  config[prefix + "minutes"] = std::to_string(d.minutes);
  config[prefix + "invocations"] = std::to_string(d.invocations);
  config[prefix + "fingerprint"] = std::to_string(d.fingerprint);
}

/// Appends a failure per digest field that differs from the generated one.
void check_digest(const Config& config, const std::string& prefix, const TraceDigest& got,
                  std::vector<std::string>& failures) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"functions", got.functions},
      {"minutes", got.minutes},
      {"invocations", got.invocations},
      {"fingerprint", got.fingerprint}};
  for (const auto& [name, value] : fields) {
    const std::uint64_t want = get_u64(config, prefix + name);
    if (value != want) {
      failures.push_back("loaded trace " + prefix + name + " " + std::to_string(value) +
                         " != generated " + std::to_string(want));
    }
  }
}

pulse::trace::Workload generate(std::uint64_t seed, InputSize size) {
  pulse::trace::WorkloadConfig wc;
  wc.function_count = size.functions;
  wc.duration = size.days * kMinutesPerDay;
  wc.seed = seed;
  wc.global_peaks = kPeaksPerDay * static_cast<std::size_t>(size.days);
  return pulse::trace::build_azure_like_workload(wc);
}

void write_protocol(const pulse::trace::Trace& trace, const fs::path& path) {
  std::ofstream out(path);
  pulse::serve::write_line_protocol(trace, out);
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::vector<fs::path> day_paths(const fs::path& dir, std::uint64_t days) {
  std::vector<fs::path> paths;
  for (std::uint64_t d = 1; d <= days; ++d) {
    paths.push_back(dir / ("invocations_day_" + std::to_string(d) + ".csv"));
  }
  return paths;
}

struct Loaded {
  pulse::trace::Trace trace;
  pulse::trace::StreamLoadStats stats;
  double seconds = 0.0;
};

Loaded load_days(const fs::path& dir, std::uint64_t days) {
  Loaded out;
  const std::int64_t start = now_ns();
  auto result = pulse::trace::stream_load_azure(day_paths(dir, days), {}, &out.stats);
  if (!result) throw std::runtime_error(result.error().to_string());
  out.trace = std::move(result.value().trace);
  out.seconds = 1e-9 * static_cast<double>(now_ns() - start);
  return out;
}

pulse::policies::IceBreakerPolicy::Config icebreaker_config() {
  pulse::policies::IceBreakerPolicy::Config config;
  config.streaming_dft = true;
  return config;
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return 1e-9 * static_cast<double>(to_ns - from_ns);
}

/// Linear-interpolated percentile, p in [0, 100]. Sorts `values`.
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void add_minute_percentiles(Sample& s, std::vector<double>& minute_us) {
  s.metrics["minute_p50_us"] = percentile(minute_us, 50.0);
  s.metrics["minute_p99_us"] = percentile(minute_us, 99.0);
}

/// Totals every workload reduces its result to.
struct Outcome {
  double keepalive_cost_usd = 0.0;
  double service_time_s = 0.0;
  double accuracy_pct_sum = 0.0;
  std::uint64_t invocations = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t downgrades = 0;
  pulse::sim::FaultCounters faults;
};

Outcome outcome_of(const pulse::sim::RunResult& r) {
  return {r.total_keepalive_cost_usd, r.total_service_time_s, r.accuracy_pct_sum,
          r.invocations,              r.warm_starts,          r.cold_starts,
          r.downgrades,               r.fault_counters()};
}

/// Records the simulated outcome, the paper metrics (untraced pass) and
/// the sim/fault layer counts (traced pass). `dropped_events` are serve
/// events the server refused.
void add_outcome(Sample& s, const Outcome& o, bool traced, std::uint64_t dropped_events = 0) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  s.outcome["keepalive_cost_usd"] = o.keepalive_cost_usd;
  s.outcome["service_time_s"] = o.service_time_s;
  s.outcome["accuracy_pct_sum"] = o.accuracy_pct_sum;
  s.outcome["invocations"] = d(o.invocations);
  s.outcome["warm_starts"] = d(o.warm_starts);
  s.outcome["cold_starts"] = d(o.cold_starts);
  s.outcome["downgrades"] = d(o.downgrades);
  s.outcome["failed_invocations"] = d(o.faults.failed_invocations);
  s.outcome["retries"] = d(o.faults.retries);
  s.outcome["timeouts"] = d(o.faults.timeouts);
  s.outcome["crash_evictions"] = d(o.faults.crash_evictions);
  s.outcome["capacity_evictions"] = d(o.faults.capacity_evictions);
  s.outcome["degraded_minutes"] = d(o.faults.degraded_minutes);
  s.outcome["dropped_events"] = d(dropped_events);

  if (traced) {
    s.metrics["sim.cold_starts"] = d(o.cold_starts);
    s.metrics["sim.capacity_evictions"] = d(o.faults.capacity_evictions);
    s.metrics["sim.downgrades"] = d(o.downgrades);
    s.metrics["fault.failed_invocations"] = d(o.faults.failed_invocations);
    s.metrics["fault.retries"] = d(o.faults.retries);
    s.metrics["fault.timeouts"] = d(o.faults.timeouts);
    s.metrics["fault.crash_evictions"] = d(o.faults.crash_evictions);
    return;
  }
  const double served = d(o.invocations);
  s.metrics["keepalive_cost_usd"] = o.keepalive_cost_usd;
  s.metrics["mean_service_ms"] = served > 0 ? 1000.0 * o.service_time_s / served : 0.0;
  s.metrics["accuracy_pct"] = served > 0 ? o.accuracy_pct_sum / served : 0.0;
  s.metrics["warm_start_pct"] = served > 0 ? 100.0 * d(o.warm_starts) / served : 0.0;
  const double attempted = served + d(o.faults.failed_invocations) + d(dropped_events);
  s.metrics["served_pct"] = attempted > 0 ? 100.0 * served / attempted : 0.0;
}

/// Every per-layer metric the measured process reports, at zero, so each
/// workload emits the full set (trace_overhead_pct compares two processes
/// and is computed by run.py).
void init_layer_metrics(Sample& s) {
  for (const char* name :
       {"trace.ingest_s", "trace.ingest_mb_per_s", "trace.rows",
        "serve.decode_ns_per_event", "serve.invocation_ingest_ns_per_event", "serve.events",
        "serve.dropped_events", "policy.on_invocation_ns", "policy.on_invocation_calls",
        "policy.cold_start_variant_calls", "policy.flatten_s", "policy.flatten_minutes",
        "policy.downgrades_per_flatten_minute", "policy.refresh_s",
        "policy.refresh_us_per_function", "policy.end_of_minute_ns",
        "sim.engine_self_ns_per_fn_min", "sim.cold_starts", "sim.capacity_evictions",
        "sim.downgrades", "fault.failed_invocations", "fault.retries", "fault.timeouts",
        "fault.crash_evictions", "cluster.shard_step_s_max", "cluster.shard_imbalance",
        "cluster.barrier_wait_s", "cluster.rebalance_epochs", "cluster.transfers",
        "cluster.shard_crashes", "cluster.replayed_minutes", "unattributed_pct"}) {
    s.metrics[name] = 0.0;
  }
}

void add_ingest_metrics(Sample& s, const Loaded& loaded) {
  s.metrics["trace.ingest_s"] = loaded.seconds;
  s.metrics["trace.ingest_mb_per_s"] =
      loaded.seconds > 0 ? static_cast<double>(loaded.stats.bytes) / 1e6 / loaded.seconds : 0.0;
  s.metrics["trace.rows"] = static_cast<double>(loaded.stats.data_rows);
}

/// Policy-layer metrics summed over `times` (one entry per policy
/// instance). `functions` is the population a refresh tick covers.
void add_policy_metrics(Sample& s, const std::vector<const PolicyTimes*>& times,
                        std::size_t functions) {
  PolicyTimes sum;
  for (const PolicyTimes* t : times) {
    sum.on_invocation_calls += t->on_invocation_calls;
    sum.on_invocation_ns += t->on_invocation_ns;
    sum.cold_start_variant_calls += t->cold_start_variant_calls;
    sum.flatten_minutes += t->flatten_minutes;
    sum.flatten_ns += t->flatten_ns;
    sum.flatten_downgrades += t->flatten_downgrades;
    sum.refresh_ticks += t->refresh_ticks;
    sum.refresh_ns += t->refresh_ns;
    sum.other_ticks += t->other_ticks;
    sum.other_ns += t->other_ns;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto per = [&](auto total, auto count) { return count > 0 ? d(total) / d(count) : 0.0; };
  s.metrics["policy.on_invocation_ns"] = per(sum.on_invocation_ns, sum.on_invocation_calls);
  s.metrics["policy.on_invocation_calls"] = d(sum.on_invocation_calls);
  s.metrics["policy.cold_start_variant_calls"] = d(sum.cold_start_variant_calls);
  s.metrics["policy.flatten_s"] = 1e-9 * d(sum.flatten_ns);
  s.metrics["policy.flatten_minutes"] = d(sum.flatten_minutes);
  s.metrics["policy.downgrades_per_flatten_minute"] =
      per(sum.flatten_downgrades, sum.flatten_minutes);
  s.metrics["policy.refresh_s"] = 1e-9 * d(sum.refresh_ns);
  s.metrics["policy.refresh_us_per_function"] =
      per(1e-3 * d(sum.refresh_ns), sum.refresh_ticks * functions);
  s.metrics["policy.end_of_minute_ns"] = per(sum.other_ns, sum.other_ticks);
}

// ---------------------------------------------------------------------------
// batch-pulse: full PULSE stepped one minute at a time by SteppedRun.
// ---------------------------------------------------------------------------

Sample run_batch_pulse(const fs::path& dir, const Config& config, bool traced) {
  Sample s;
  if (traced) init_layer_metrics(s);

  const std::int64_t setup_start = now_ns();
  const Loaded loaded = load_days(dir / "days", get_u64(config, "days"));
  const pulse::trace::Trace& trace = loaded.trace;
  const pulse::models::ModelZoo zoo = pulse::models::ModelZoo::builtin();
  const pulse::sim::Deployment deployment =
      pulse::sim::Deployment::round_robin(zoo, trace.function_count());
  pulse::sim::EngineConfig engine;
  engine.seed = get_u64(config, "engine_seed");
  std::unique_ptr<pulse::sim::KeepAlivePolicy> policy = pulse::policies::make_policy("pulse");
  PolicyTimes times;
  if (traced) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), times, TimedPolicy::Mode::kFull);
  }
  pulse::sim::SteppedRun run(deployment, trace, engine, *policy);
  const std::int64_t timed_start = now_ns();

  const Minute duration = trace.duration();
  std::vector<double> minute_us(static_cast<std::size_t>(duration));
  std::int64_t stepped_ns = 0;
  for (Minute t = 0; t < duration; ++t) {
    const std::int64_t a = now_ns();
    run.run_until(t + 1);
    const std::int64_t b = now_ns();
    stepped_ns += b - a;
    minute_us[static_cast<std::size_t>(t)] = 1e-3 * static_cast<double>(b - a);
  }
  const std::int64_t timed_end = now_ns();
  const pulse::sim::RunResult result = run.finish();

  check_digest(config, "", digest(trace), s.failures);
  s.timed_s = seconds_between(timed_start, timed_end);
  s.operations = static_cast<std::uint64_t>(duration);
  const double fn_minutes =
      static_cast<double>(trace.function_count()) * static_cast<double>(duration);
  add_outcome(s, outcome_of(result), traced);
  if (!traced) {
    s.metrics["setup_s"] = seconds_between(setup_start, timed_start);
    s.metrics["fn_min_per_s"] = fn_minutes / s.timed_s;
    add_minute_percentiles(s, minute_us);
    return s;
  }
  add_ingest_metrics(s, loaded);
  add_policy_metrics(s, {&times}, trace.function_count());
  s.metrics["sim.engine_self_ns_per_fn_min"] =
      static_cast<double>(stepped_ns - times.hook_ns()) / fn_minutes;
  s.metrics["unattributed_pct"] =
      100.0 * (1.0 - 1e-9 * static_cast<double>(stepped_ns) / s.timed_s);
  return s;
}

// ---------------------------------------------------------------------------
// serve-icebreaker: line-protocol text through OnlineServer, one event at a
// time (a closed loop with one client).
// ---------------------------------------------------------------------------

Sample run_serve_icebreaker(const fs::path& dir, const Config& config, bool traced) {
  Sample s;
  if (traced) init_layer_metrics(s);

  const std::int64_t setup_start = now_ns();
  const std::size_t functions = get_u64(config, "functions");
  const pulse::models::ModelZoo zoo = pulse::models::ModelZoo::builtin();
  const pulse::sim::Deployment deployment = pulse::sim::Deployment::round_robin(zoo, functions);
  const auto ib_config = icebreaker_config();
  std::unique_ptr<pulse::sim::KeepAlivePolicy> policy =
      std::make_unique<pulse::policies::IceBreakerPolicy>(ib_config);
  PolicyTimes times;
  if (traced) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), times, TimedPolicy::Mode::kFull,
                                           ib_config.refresh_interval);
  }
  pulse::serve::ServeConfig serve_config;
  serve_config.engine.seed = get_u64(config, "engine_seed");
  serve_config.horizon = static_cast<Minute>(get_u64(config, "minutes"));
  pulse::serve::OnlineServer server(deployment, *policy, serve_config);
  std::ifstream in(dir / "events.txt");
  if (!in) throw std::runtime_error("cannot read " + (dir / "events.txt").string());
  pulse::serve::LineProtocolSource source(in);
  const std::int64_t timed_start = now_ns();

  std::vector<double> minute_us;
  minute_us.reserve(static_cast<std::size_t>(serve_config.horizon));
  std::int64_t decode_ns = 0;
  std::int64_t invocation_ns = 0;
  std::int64_t tick_ns = 0;
  pulse::serve::StreamEvent event;
  if (traced) {
    for (;;) {
      const std::int64_t a = now_ns();
      const bool more = source.next(event);
      const std::int64_t b = now_ns();
      decode_ns += b - a;
      if (!more) break;
      server.ingest(event);
      const std::int64_t c = now_ns();
      if (event.kind == pulse::serve::EventKind::kTick) {
        tick_ns += c - b;
      } else {
        invocation_ns += c - b;
      }
      if (event.kind == pulse::serve::EventKind::kEnd) break;
    }
  } else {
    while (source.next(event)) {
      if (event.kind == pulse::serve::EventKind::kTick) {
        const std::int64_t a = now_ns();
        server.ingest(event);
        const std::int64_t b = now_ns();
        minute_us.push_back(1e-3 * static_cast<double>(b - a));
        continue;
      }
      server.ingest(event);
      if (event.kind == pulse::serve::EventKind::kEnd) break;
    }
  }
  const std::int64_t timed_end = now_ns();
  const pulse::serve::ServeStats stats = server.stats();
  const pulse::sim::RunResult result = server.finish();

  // The stream must deliver exactly the generated trace.
  const std::uint64_t dropped =
      stats.dropped_late + stats.dropped_out_of_range + source.malformed_lines();
  if (stats.invocations != get_u64(config, "invocations")) {
    s.failures.push_back("served invocations " + std::to_string(stats.invocations) +
                         " != generated " + std::to_string(get_u64(config, "invocations")));
  }
  if (stats.ticks != get_u64(config, "minutes")) {
    s.failures.push_back("ticks " + std::to_string(stats.ticks) + " != generated minutes " +
                         std::to_string(get_u64(config, "minutes")));
  }
  s.timed_s = seconds_between(timed_start, timed_end);
  s.operations = stats.events;
  s.failed_operations = dropped;
  const double fn_minutes = static_cast<double>(functions) * static_cast<double>(stats.ticks);
  add_outcome(s, outcome_of(result), traced, dropped);
  if (!traced) {
    s.metrics["setup_s"] = seconds_between(setup_start, timed_start);
    s.metrics["fn_min_per_s"] = fn_minutes / s.timed_s;
    add_minute_percentiles(s, minute_us);
    return s;
  }
  const auto events = static_cast<double>(stats.events);
  const auto invocation_events = static_cast<double>(stats.events - stats.ticks);
  s.metrics["serve.decode_ns_per_event"] = static_cast<double>(decode_ns) / events;
  s.metrics["serve.invocation_ingest_ns_per_event"] =
      invocation_events > 0 ? static_cast<double>(invocation_ns) / invocation_events : 0.0;
  s.metrics["serve.events"] = events;
  s.metrics["serve.dropped_events"] = static_cast<double>(dropped);
  add_policy_metrics(s, {&times}, functions);
  s.metrics["sim.engine_self_ns_per_fn_min"] =
      static_cast<double>(tick_ns - times.hook_ns()) / fn_minutes;
  s.metrics["unattributed_pct"] =
      100.0 * (1.0 - 1e-9 * static_cast<double>(decode_ns + invocation_ns + tick_ns) /
                         s.timed_s);
  return s;
}

// ---------------------------------------------------------------------------
// cluster-tenants: a multi-tenant trace on the sharded ClusterEngine.
// ---------------------------------------------------------------------------

/// A contiguous stretch of minutes one shard stepped without a barrier.
struct Span {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Splits a shard's minute marks into spans: a new span starts at every
/// epoch boundary (a barrier) and at every jump in t (a crash replay).
std::vector<Span> shard_spans(const std::vector<MinuteMark>& marks, Minute interval) {
  std::vector<Span> spans;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const MinuteMark& m = marks[i];
    const bool continues = i > 0 && m.t == marks[i - 1].t + 1 && m.t % interval != 0;
    if (continues) {
      spans.back().end = m.close_ns;
    } else {
      spans.push_back({m.open_ns, m.close_ns});
    }
  }
  return spans;
}

/// Shard-minute times: close-to-close intervals inside a span (the first
/// minute of a span has no predecessor and is skipped).
void add_shard_minutes(const std::vector<MinuteMark>& marks, Minute interval,
                       std::vector<double>& minute_us) {
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const MinuteMark& m = marks[i];
    const MinuteMark& prev = marks[i - 1];
    if (m.t == prev.t + 1 && m.t % interval != 0) {
      minute_us.push_back(1e-3 * static_cast<double>(m.close_ns - prev.close_ns));
    }
  }
}

/// Total length of the union of `spans`.
std::int64_t covered_ns(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::int64_t covered = 0;
  std::int64_t reach = INT64_MIN;
  for (const Span& s : spans) {
    if (s.end <= reach) continue;
    covered += s.end - std::max(s.begin, reach);
    reach = s.end;
  }
  return covered;
}

Sample run_cluster_tenants(const fs::path& dir, const Config& config, bool traced) {
  Sample s;
  if (traced) init_layer_metrics(s);

  const std::int64_t setup_start = now_ns();
  const Loaded loaded = load_days(dir / "days", get_u64(config, "days"));
  const pulse::trace::Trace& trace = loaded.trace;
  const pulse::models::ModelZoo zoo = pulse::models::ModelZoo::builtin();
  const pulse::sim::Deployment deployment =
      pulse::sim::Deployment::round_robin(zoo, trace.function_count());

  pulse::cluster::ClusterConfig cc;
  cc.shards = kShards;
  cc.threads = kShardThreads;
  cc.engine.seed = get_u64(config, "engine_seed");
  cc.engine.hashed_rng = true;
  const double capacity_mb = kCapacityShareOfPeak * deployment.peak_highest_memory_mb();
  cc.engine.memory_capacity_mb = capacity_mb;
  cc.engine.faults.seed = get_u64(config, "fault_seed");
  cc.engine.faults.crash_rate = kContainerCrashRate;
  cc.engine.faults.cold_start_failure_rate = kColdStartFailureRate;
  cc.engine.faults.slo_multiplier = kSloMultiplier;
  cc.shard_faults.seed = get_u64(config, "shard_fault_seed");
  cc.shard_faults.crash_rate = kShardCrashRate;
  pulse::obs::MetricsRegistry registry;
  cc.engine.observer.metrics = &registry;
  const Minute interval = cc.market.rebalance_interval;
  pulse::cluster::ClusterEngine cluster(deployment, trace, cc);

  // One PolicyTimes per shard, in shard order (the factory runs on this
  // thread); a deque keeps their addresses stable.
  std::deque<PolicyTimes> shard_times;
  const TimedPolicy::Mode mode =
      traced ? TimedPolicy::Mode::kFull : TimedPolicy::Mode::kMinuteClock;
  const auto factory = [&]() -> std::unique_ptr<pulse::sim::KeepAlivePolicy> {
    return std::make_unique<TimedPolicy>(pulse::policies::make_policy("openwhisk"),
                                         shard_times.emplace_back(), mode);
  };
  const pulse::cluster::ClusterResult result = cluster.run(factory);
  const std::int64_t timed_end = now_ns();

  // The timed phase starts at the first shard minute: everything before it
  // (shard runs, policy initialize, pool start) is set-up.
  std::int64_t timed_start = timed_end;
  for (const PolicyTimes& p : shard_times) {
    if (p.first_hook_ns >= 0) timed_start = std::min(timed_start, p.first_hook_ns);
  }

  check_digest(config, "", digest(trace), s.failures);
  // The market trades fixed-point quota units: the conserved total must
  // reconstruct the configured capacity within one unit per shard.
  if (std::abs(result.total_quota_mb - capacity_mb) > static_cast<double>(kShards) / 1024.0) {
    s.failures.push_back("cluster quota not conserved: " + std::to_string(result.total_quota_mb) +
                         " MB vs capacity " + std::to_string(capacity_mb) + " MB");
  }
  pulse::sim::FaultCounters shard_sum;
  for (const pulse::sim::RunResult& r : result.shards) {
    const pulse::sim::FaultCounters c = r.fault_counters();
    shard_sum.failed_invocations += c.failed_invocations;
    shard_sum.retries += c.retries;
    shard_sum.timeouts += c.timeouts;
    shard_sum.crash_evictions += c.crash_evictions;
    shard_sum.capacity_evictions += c.capacity_evictions;
    shard_sum.degraded_minutes += c.degraded_minutes;
    shard_sum.guard_incidents += c.guard_incidents;
  }
  if (!(shard_sum == result.fault_counters())) {
    s.failures.push_back("per-shard fault counters do not sum to the cluster's");
  }

  Outcome o;
  o.keepalive_cost_usd = result.total_keepalive_cost_usd();
  o.service_time_s = result.total_service_time_s();
  o.accuracy_pct_sum = result.accuracy_pct_sum();
  o.invocations = result.invocations();
  o.warm_starts = result.warm_starts();
  o.cold_starts = result.cold_starts();
  for (const pulse::sim::RunResult& r : result.shards) o.downgrades += r.downgrades;
  o.faults = result.fault_counters();
  add_outcome(s, o, traced);
  Minute replayed = 0;
  for (const auto& f : result.failures) replayed += f.replayed_minutes;
  s.outcome["rebalance_epochs"] = static_cast<double>(result.rebalance_epochs);
  s.outcome["transfers"] = static_cast<double>(result.transfers);
  s.outcome["shard_crashes"] = static_cast<double>(result.shard_crashes);
  s.outcome["replayed_minutes"] = static_cast<double>(replayed);
  s.outcome["total_quota_mb"] = result.total_quota_mb;

  s.timed_s = seconds_between(timed_start, timed_end);
  std::vector<Span> spans;
  std::vector<double> minute_us;
  std::vector<double> shard_busy_s;
  for (const PolicyTimes& p : shard_times) {
    s.operations += p.marks.size();
    add_shard_minutes(p.marks, interval, minute_us);
    const std::vector<Span> own = shard_spans(p.marks, interval);
    std::int64_t busy = 0;
    for (const Span& sp : own) busy += sp.end - sp.begin;
    shard_busy_s.push_back(1e-9 * static_cast<double>(busy));
    spans.insert(spans.end(), own.begin(), own.end());
  }
  const double fn_minutes =
      static_cast<double>(trace.function_count()) * static_cast<double>(trace.duration());
  if (!traced) {
    s.metrics["setup_s"] = seconds_between(setup_start, timed_start);
    s.metrics["fn_min_per_s"] = fn_minutes / s.timed_s;
    add_minute_percentiles(s, minute_us);
    return s;
  }

  add_ingest_metrics(s, loaded);
  std::vector<const PolicyTimes*> times;
  std::int64_t hook_ns = 0;
  for (const PolicyTimes& p : shard_times) {
    times.push_back(&p);
    hook_ns += p.hook_ns();
  }
  add_policy_metrics(s, times, trace.function_count() / kShards);
  double busy_total_s = 0.0;
  double busy_max_s = 0.0;
  for (const double b : shard_busy_s) {
    busy_total_s += b;
    busy_max_s = std::max(busy_max_s, b);
  }
  s.metrics["sim.engine_self_ns_per_fn_min"] =
      (1e9 * busy_total_s - static_cast<double>(hook_ns)) / fn_minutes;
  s.metrics["cluster.shard_step_s_max"] = busy_max_s;
  s.metrics["cluster.shard_imbalance"] =
      busy_total_s > 0 ? busy_max_s / (busy_total_s / static_cast<double>(kShards)) : 0.0;
  // Barrier wait: thread time inside the parallel sections (any shard
  // stepping) that no shard used, i.e. threads idle at an epoch barrier
  // while a slower shard finishes. Serial coordinator time between the
  // sections is left to unattributed_pct.
  const double covered_s = 1e-9 * static_cast<double>(covered_ns(spans));
  const double wait_s =
      std::max(0.0, static_cast<double>(kShardThreads) * covered_s - busy_total_s);
  s.metrics["cluster.barrier_wait_s"] = wait_s;
  s.metrics["cluster.rebalance_epochs"] = static_cast<double>(result.rebalance_epochs);
  s.metrics["cluster.transfers"] = static_cast<double>(result.transfers);
  s.metrics["cluster.shard_crashes"] = static_cast<double>(result.shard_crashes);
  s.metrics["cluster.replayed_minutes"] = static_cast<double>(replayed);
  s.metrics["unattributed_pct"] = 100.0 * (1.0 - covered_s / s.timed_s);
  return s;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kBatchPulse, Workload::kServeIceBreaker, Workload::kClusterTenants}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kBatchPulse: return "batch-pulse";
    case Workload::kServeIceBreaker: return "serve-icebreaker";
    case Workload::kClusterTenants: return "cluster-tenants";
  }
  return "unknown";
}

InputSize benchmark_size(Workload workload) {
  switch (workload) {
    case Workload::kBatchPulse: return {1000, 2};
    case Workload::kServeIceBreaker: return {400, 1};
    case Workload::kClusterTenants: return {500, 2};
  }
  return {};
}

void write_inputs(Workload workload, std::uint64_t seed, InputSize size, const fs::path& dir) {
  fs::create_directories(dir);
  Config config;
  config["workload"] = std::string(workload_name(workload));
  config["seed"] = std::to_string(seed);
  config["days"] = std::to_string(size.days);
  config["engine_seed"] = std::to_string(pulse::util::hash_u64(seed, kEngineStream, 0, 0));
  config["fault_seed"] = std::to_string(pulse::util::hash_u64(seed, kFaultStream, 0, 0));
  config["shard_fault_seed"] =
      std::to_string(pulse::util::hash_u64(seed, kShardFaultStream, 0, 0));

  switch (workload) {
    case Workload::kBatchPulse: {
      const pulse::trace::Workload w = generate(seed, size);
      pulse::trace::save_azure_day_csvs(w.trace, dir / "days");
      put_digest(config, "", digest(w.trace));
      break;
    }
    case Workload::kServeIceBreaker: {
      const pulse::trace::Workload w = generate(seed, size);
      write_protocol(w.trace, dir / "events.txt");
      put_digest(config, "", digest(w.trace));
      const pulse::trace::Workload c = generate(seed + 1, kServeCheckSize);
      pulse::trace::save_azure_day_csvs(c.trace, dir / "check" / "days");
      write_protocol(c.trace, dir / "check" / "events.txt");
      put_digest(config, "check_", digest(c.trace));
      config["check_days"] = std::to_string(kServeCheckSize.days);
      break;
    }
    case Workload::kClusterTenants: {
      const pulse::trace::Workload base = generate(seed, size);
      pulse::exp::MultiTenantConfig mt;
      mt.tenants = kTenants;
      mt.seed = pulse::util::hash_u64(seed, kTenantStream, 0, 0);
      const pulse::trace::Trace trace = pulse::exp::compose_multi_tenant(base.trace, mt);
      pulse::trace::save_azure_day_csvs(trace, dir / "days");
      put_digest(config, "", digest(trace));
      break;
    }
  }
  write_config(dir / "bench.cfg", config);
}

Sample run_workload(const fs::path& dir, bool traced) {
  const Config config = read_config(dir / "bench.cfg");
  const auto workload = parse_workload(config.at("workload"));
  if (!workload) throw std::runtime_error("bench.cfg: unknown workload " + config.at("workload"));
  switch (*workload) {
    case Workload::kBatchPulse: return run_batch_pulse(dir, config, traced);
    case Workload::kServeIceBreaker: return run_serve_icebreaker(dir, config, traced);
    case Workload::kClusterTenants: return run_cluster_tenants(dir, config, traced);
  }
  throw std::logic_error("unreachable");
}

std::vector<std::string> check_serve_matches_batch(const fs::path& dir) {
  const Config config = read_config(dir / "bench.cfg");
  std::vector<std::string> failures;
  const fs::path check = dir / "check";
  const Loaded loaded = load_days(check / "days", get_u64(config, "check_days"));
  check_digest(config, "check_", digest(loaded.trace), failures);

  const pulse::models::ModelZoo zoo = pulse::models::ModelZoo::builtin();
  const pulse::sim::Deployment deployment =
      pulse::sim::Deployment::round_robin(zoo, loaded.trace.function_count());
  pulse::sim::EngineConfig engine;
  engine.seed = get_u64(config, "engine_seed");

  pulse::policies::IceBreakerPolicy batch_policy(icebreaker_config());
  const pulse::sim::RunResult batch =
      pulse::sim::SimulationEngine(deployment, loaded.trace, engine).run(batch_policy);

  pulse::policies::IceBreakerPolicy serve_policy(icebreaker_config());
  pulse::serve::ServeConfig serve_config;
  serve_config.engine = engine;
  serve_config.horizon = loaded.trace.duration();
  pulse::serve::OnlineServer server(deployment, serve_policy, serve_config);
  std::ifstream in(check / "events.txt");
  if (!in) throw std::runtime_error("cannot read " + (check / "events.txt").string());
  pulse::serve::LineProtocolSource source(in);
  server.drain(source);
  const pulse::sim::RunResult served = server.finish();

  const Outcome a = outcome_of(batch);
  const Outcome b = outcome_of(served);
  const bool same = a.keepalive_cost_usd == b.keepalive_cost_usd &&
                    a.service_time_s == b.service_time_s &&
                    a.accuracy_pct_sum == b.accuracy_pct_sum &&
                    a.invocations == b.invocations && a.warm_starts == b.warm_starts &&
                    a.cold_starts == b.cold_starts && a.downgrades == b.downgrades &&
                    a.faults == b.faults;
  if (!same) failures.push_back("serve RunResult differs from SimulationEngine::run");
  return failures;
}

}  // namespace perfbench
