// perfbench harness: one process runs one workload of the repo benchmark
// for a fixed time and writes a JSON record of what it saw — latency
// samples, counters, the environment and the join plan it got, and, when
// tracing, spans and per-layer numbers. perfbench/run.py builds this binary,
// runs several processes per benchmark run and aggregates their records.
//
// Workloads (sizes and the reasons for them are in README.md):
//   star_join       Filter(v >= lo) -> Join(dim, fk, id) -> GroupBySum(g, v)
//   serving_ingest  one Server, two point-lookup clients and one analytic
//                   client in a closed loop, a seeded append between rounds
//
// Every result is checked against a reference computed here from the
// generated data; a mismatch counts as a failed query. Tracing only adds
// recording around the calls into the engine: the calls are the same.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --proc I --out FILE [--tiny]
//   perfbench_harness --self-test      (each oracle rejects a perturbed result)
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "exec/plan.h"
#include "exec/table.h"
#include "mem/arena.h"
#include "model/calibrator.h"
#include "model/planner.h"
#include "serve/server.h"
#include "util/rng.h"

using namespace ccdb;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_start)
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// --- tracing -----------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t query = 0;   // 0: not part of a query
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

std::atomic<uint64_t> g_next_span{0};

/// One thread's spans. Null when tracing is off: every recording call is
/// then a no-op, so both modes make the same calls into the engine.
using SpanLog = std::vector<Span>;

/// Records [construction, destruction) as a span into `log` (if any).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t query)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.id = g_next_span.fetch_add(1) + 1;
    span_.parent = parent;
    span_.query = query;
    span_.name = name;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void Attr(const char* key, double value) {
    if (log_ != nullptr) span_.attrs.emplace_back(key, value);
  }
  /// Closes the span early; returns its duration in ms (0 when off).
  double End() {
    if (log_ == nullptr) return 0;
    span_.end_ns = NowNs();
    double ms = static_cast<double>(span_.end_ns - span_.start_ns) / 1e6;
    log_->push_back(std::move(span_));
    log_ = nullptr;
    return ms;
  }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time per span: its duration minus the union of its children's
/// intervals (clipped to the span).
std::vector<double> SelfMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t lo = spans[i].start_ns, hi = spans[i].end_ns, covered = 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t cur = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, cur);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cur = b;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) / 1e6;
  }
  return self;
}

// --- process counters --------------------------------------------------------

struct Usage {
  double cpu_s = 0;
  double minflt = 0, majflt = 0, csw = 0;
  double maxrss_mb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.majflt = static_cast<double>(ru.ru_majflt);
  u.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
  return u;
}

/// AnonHugePages of the whole process in MB (0 when unreadable).
double AnonHugeMb() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      return std::strtod(line.c_str() + 14, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Peak AnonHugePages over a window, sampled every 20 ms on its own thread
/// (the engine maps and unmaps its large blocks inside each query, so a
/// reading between queries misses them). Off: samples nothing.
class HugePageSampler {
 public:
  explicit HugePageSampler(bool on) {
    if (on) thread_ = std::thread([this] {
      while (!stop_.load()) {
        double mb = AnonHugeMb();
        if (mb > peak_mb_.load()) peak_mb_.store(mb);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~HugePageSampler() { Stop(); }
  HugePageSampler(const HugePageSampler&) = delete;
  HugePageSampler& operator=(const HugePageSampler&) = delete;

  /// Stops sampling; returns the peak seen.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_mb_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0};
  std::thread thread_;
};

/// The bracketed THP mode ("always", "madvise", "never", or "unknown").
std::string ThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string s;
  std::getline(in, s);
  size_t a = s.find('['), b = s.find(']');
  if (a == std::string::npos || b == std::string::npos || b < a) {
    return "unknown";
  }
  return s.substr(a + 1, b - a - 1);
}

double ThpCode(const std::string& mode) {
  if (mode == "never") return 0;
  if (mode == "madvise") return 1;
  if (mode == "always") return 2;
  return -1;
}

// --- record ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// What one process reports. Samples are pooled across processes by run.py;
/// scalars are combined there by median.
struct Record {
  std::string workload;
  uint64_t attempted = 0;  // queries + appends issued
  uint64_t failed = 0;     // errors, rejections and wrong results
  double setup_s = 0;
  double measure_s = 0;
  std::map<std::string, std::vector<double>> samples;  // ms
  std::map<std::string, double> env;
  std::map<std::string, std::string> env_text;
  std::map<std::string, double> layer;  // per-layer scalars (traced run)
  std::vector<std::string> errors;      // first few failure messages

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

bool WriteRecord(const Record& r, const std::vector<Span>& spans,
                 const std::string& path) {
  std::ostringstream o;
  o << "{\"workload\":" << JsonString(r.workload)
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"setup_s\":" << JsonNumber(r.setup_s)
    << ",\"measure_s\":" << JsonNumber(r.measure_s) << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    o << (i ? "," : "") << JsonString(r.errors[i]);
  }
  o << "],\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    o << (first ? "" : ",") << JsonString(k) << ":[";
    for (size_t i = 0; i < v.size(); ++i) {
      o << (i ? "," : "") << JsonNumber(v[i]);
    }
    o << "]";
    first = false;
  }
  auto scalars = [&o](const char* key, const std::map<std::string, double>& m) {
    o << ",\"" << key << "\":{";
    bool f = true;
    for (const auto& [k, v] : m) {
      o << (f ? "" : ",") << JsonString(k) << ":" << JsonNumber(v);
      f = false;
    }
    o << "}";
  };
  o << "}";
  scalars("env", r.env);
  o << ",\"env_text\":{";
  first = true;
  for (const auto& [k, v] : r.env_text) {
    o << (first ? "" : ",") << JsonString(k) << ":" << JsonString(v);
    first = false;
  }
  o << "}";
  scalars("layer", r.layer);
  o << ",\"spans\":[";
  std::vector<double> self = SelfMs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"query\":" << s.query << ",\"name\":" << JsonString(s.name)
      << ",\"start_ms\":" << JsonNumber(static_cast<double>(s.start_ns) / 1e6)
      << ",\"end_ms\":" << JsonNumber(static_cast<double>(s.end_ns) / 1e6)
      << ",\"self_ms\":" << JsonNumber(self[i]) << ",\"attrs\":{";
    for (size_t a = 0; a < s.attrs.size(); ++a) {
      o << (a ? "," : "") << JsonString(s.attrs[a].first) << ":"
        << JsonNumber(s.attrs[a].second);
    }
    o << "}}";
  }
  o << "]}\n";
  std::ofstream out(path);
  out << o.str();
  return static_cast<bool>(out);
}

// --- data --------------------------------------------------------------------

constexpr uint32_t kValueDomain = 1024;  // v in [0, 1024)
constexpr uint32_t kMaxLo = 128;         // filters keep 7/8 or more of rows
constexpr uint32_t kStarGroups = 64;

/// The fields of star_join's fact rows (u32 each).
enum FactField : size_t { kFk, kG, kGg, kV };

std::vector<FieldDef> U32Fields(const std::vector<std::string>& names) {
  std::vector<FieldDef> fields;
  for (const auto& n : names) fields.push_back({n, FieldType::kU32});
  return fields;
}

/// Table::FromRowStore, timed: the bat.from_row_store step.
StatusOr<Table> TableFromRows(const RowStore& rs, SpanLog* log,
                              uint64_t parent, Record* rec) {
  ScopedSpan span(log, "bat.from_row_store", parent, 0);
  int64_t t = NowNs();
  auto table = Table::FromRowStore(rs);
  rec->layer["bat.table_build_ms"] += MsSince(t);
  span.Attr("rows", static_cast<double>(rs.size()));
  return table;
}

StatusOr<Table> BuildTable(const std::vector<std::string>& names,
                           const std::vector<const std::vector<uint32_t>*>& cols,
                           SpanLog* log, uint64_t parent, Record* rec) {
  size_t rows = cols[0]->size();
  CCDB_ASSIGN_OR_RETURN(RowStore rs, RowStore::Make(U32Fields(names), rows + 1));
  for (size_t r = 0; r < rows; ++r) {
    CCDB_ASSIGN_OR_RETURN(size_t row, rs.AppendRow());
    for (size_t c = 0; c < cols.size(); ++c) rs.SetU32(row, c, (*cols[c])[r]);
  }
  return TableFromRows(rs, log, parent, rec);
}

/// Computes every column's statistics (what the planner reads); the
/// model.stats_fill step at setup and after each append.
Status FillStats(const Table& t) {
  for (size_t i = 0; i < t.num_columns(); ++i) {
    CCDB_ASSIGN_OR_RETURN(ColumnStats s, t.stats(i));
    (void)s;
  }
  return Status::Ok();
}

// --- oracles -----------------------------------------------------------------
// Each returns an empty string when the result is right, else what is wrong.

/// The values of result column `name` if it exists, holds T and has one
/// value per row; null otherwise (a malformed result is a wrong result).
template <class T>
const std::vector<T>* Values(const QueryResult& res, const char* name) {
  auto i = res.ColumnIndex(name);
  if (!i.ok()) return nullptr;
  const MaterializedColumn& c = res.columns[*i];
  const std::vector<T>* v;
  if constexpr (std::is_same_v<T, uint32_t>) {
    v = &c.u32_values;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    v = &c.i64_values;
  } else {
    v = &c.f64_values;
  }
  return v->size() == res.num_rows() ? v : nullptr;
}

/// star_join reference: per group g, count and sum of v over rows with
/// v >= lo (every fact row matches exactly one dim row).
struct StarOracle {
  std::vector<uint64_t> hist;  // [g * kValueDomain + v] -> rows

  explicit StarOracle(const RowStore& f) : hist(kStarGroups * kValueDomain, 0) {
    for (size_t i = 0; i < f.size(); ++i) {
      ++hist[f.GetU32(i, kG) * kValueDomain + f.GetU32(i, kV)];
    }
  }

  std::string Check(const QueryResult& res, uint32_t lo) const {
    auto* g = Values<uint32_t>(res, "g");
    auto* sum = Values<int64_t>(res, "sum");
    auto* cnt = Values<int64_t>(res, "count");
    if (!g || !sum || !cnt) return "star: missing or malformed column";
    if (res.num_rows() != kStarGroups) {
      return "star: " + std::to_string(res.num_rows()) + " groups, want 64";
    }
    std::vector<bool> seen(kStarGroups, false);
    for (size_t r = 0; r < res.num_rows(); ++r) {
      uint32_t group = (*g)[r];
      if (group >= kStarGroups || seen[group]) return "star: bad group key";
      seen[group] = true;
      int64_t want_sum = 0, want_cnt = 0;
      for (uint32_t v = lo; v < kValueDomain; ++v) {
        uint64_t n = hist[group * kValueDomain + v];
        want_sum += static_cast<int64_t>(n * v);
        want_cnt += static_cast<int64_t>(n);
      }
      if ((*sum)[r] != want_sum || (*cnt)[r] != want_cnt) {
        return "star: group " + std::to_string(group) + " sum/count wrong";
      }
    }
    return "";
  }
};

/// serving_ingest reference: per-key row counts and the v histogram of the
/// table as appended so far.
struct ServingOracle {
  std::vector<uint64_t> key_rows;  // k -> rows
  std::vector<uint64_t> v_rows;    // v -> rows
  uint64_t rows = 0;

  explicit ServingOracle(uint32_t keys)
      : key_rows(keys, 0), v_rows(kValueDomain, 0) {}

  void Add(const std::vector<uint32_t>& k, const std::vector<uint32_t>& v) {
    for (size_t i = 0; i < k.size(); ++i) {
      ++key_rows[k[i]];
      ++v_rows[v[i]];
    }
    rows += k.size();
  }

  std::string CheckPoint(const QueryResult& res, uint32_t key) const {
    auto* k = Values<uint32_t>(res, "k");
    if (!k) return "point: missing or malformed column";
    uint64_t matches = key < key_rows.size() ? key_rows[key] : 0;
    if (res.num_rows() != std::min<uint64_t>(16, matches)) {
      return "point: " + std::to_string(res.num_rows()) + " rows for key " +
             std::to_string(key);
    }
    for (uint32_t x : *k) {
      if (x != key) return "point: row with another key";
    }
    return "";
  }

  /// The join + 400-group aggregate: every row joins, so the counts add up
  /// to the table's rows, one group per key present, in order.
  std::string CheckJoinAgg(const QueryResult& res) const {
    auto* w = Values<uint32_t>(res, "w");
    auto* cnt = Values<int64_t>(res, "count");
    if (!w || !cnt) return "analytic join: missing or malformed column";
    uint64_t total = 0;
    for (size_t r = 0; r < res.num_rows(); ++r) {
      total += static_cast<uint64_t>((*cnt)[r]);
      if (r > 0 && (*w)[r] <= (*w)[r - 1]) return "analytic join: not ordered";
    }
    if (total != rows) return "analytic join: count total != table rows";
    uint64_t want_groups = 0;
    for (uint64_t n : key_rows) want_groups += n > 0;
    if (res.num_rows() != want_groups) return "analytic join: group count";
    return "";
  }

  /// The filtered multi-aggregate over v in [a, b).
  std::string CheckFilteredAgg(const QueryResult& res, uint32_t a,
                               uint32_t b) const {
    auto* sum = Values<int64_t>(res, "sum");
    auto* cnt = Values<int64_t>(res, "count");
    auto* mn = Values<uint32_t>(res, "min");
    auto* mx = Values<uint32_t>(res, "max");
    if (!sum || !cnt || !mn || !mx) {
      return "analytic filter: missing or malformed column";
    }
    int64_t want_sum = 0, want_cnt = 0, got_sum = 0, got_cnt = 0;
    for (uint32_t v = a; v < b; ++v) {
      want_sum += static_cast<int64_t>(v_rows[v] * v);
      want_cnt += static_cast<int64_t>(v_rows[v]);
    }
    for (size_t r = 0; r < res.num_rows(); ++r) {
      got_sum += (*sum)[r];
      got_cnt += (*cnt)[r];
      if ((*mn)[r] < a || (*mx)[r] >= b) {
        return "analytic filter: min/max outside the filter";
      }
    }
    if (got_sum != want_sum || got_cnt != want_cnt) {
      return "analytic filter: sum/count wrong";
    }
    return "";
  }
};

// --- per-query diagnostics (traced run) --------------------------------------

bool StartsWith(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

/// Per-query layer numbers read from the plan's public diagnostics after
/// Execute(): operator exclusive times, predictions, estimates and the join
/// record.
struct PlanDiag {
  double scan_select_ms = 0, join_ms = 0, groupby_ms = 0;
  double join_pred_ns = 0, groupby_pred_ns = 0;
  double qerror_max = 1;
  double cluster_inner_ms = 0, cluster_probe_ms = 0, probe_ms = 0;
  double partition_tasks = 0;
};

PlanDiag ReadPlanDiag(const PhysicalPlan& plan) {
  PlanDiag d;
  const auto& costs = plan.costs();
  std::vector<double> excl = plan.MeasuredExclusiveNs();
  for (size_t i = 0; i < costs.size(); ++i) {
    const OpCostInfo& c = costs[i];
    double ms = excl[i] / 1e6;
    if (StartsWith(c.label, "Scan(") || StartsWith(c.label, "SharedScan(") ||
        StartsWith(c.label, "Select(")) {
      d.scan_select_ms += ms;
    } else if (StartsWith(c.label, "Join(")) {
      d.join_ms += ms;
      d.join_pred_ns += c.predicted_ns;
    } else if (StartsWith(c.label, "GroupByAgg(")) {
      d.groupby_ms += ms;
      d.groupby_pred_ns += c.predicted_ns;
    }
    double est = std::max<double>(1, static_cast<double>(c.estimated_rows));
    double act = std::max<double>(1, static_cast<double>(c.actual_rows));
    d.qerror_max = std::max(d.qerror_max, std::max(est / act, act / est));
  }
  for (const JoinNodeInfo& j : plan.joins()) {
    d.cluster_inner_ms += j.stats.cluster_right_ms;
    d.cluster_probe_ms += j.stats.cluster_left_ms;
    d.probe_ms += j.stats.join_ms;
    d.partition_tasks += static_cast<double>(j.partition_tasks);
  }
  return d;
}

/// Records the join plan a process got (the per-run record).
void RecordJoinPlan(const PhysicalPlan& plan, Record* rec) {
  if (plan.joins().empty()) return;
  const JoinPlan& p = plan.joins()[0].plan;
  rec->env["join_bits"] = p.bits;
  rec->env["join_passes"] = p.passes;
  rec->env_text["join_algorithm"] =
      p.use_radix_join ? "radix" : JoinStrategyName(p.strategy);
}

void RecordEnvironment(Record* rec) {
  const TlbInfo& tlb = MeasuredTlbGeometry();
  const MachineProfile& prof = MeasuredHostProfile();
  rec->env["nproc"] = std::thread::hardware_concurrency();
  rec->env["calib_tlb_entries"] = static_cast<double>(tlb.entries);
  rec->env["calib_tlb_walk_ns"] = tlb.walk_ns;
  rec->env["calib_tlb_measured"] = tlb.measured ? 1 : 0;
  rec->env["profile_l2_bytes"] =
      static_cast<double>(prof.l2.capacity_bytes);
  rec->env["profile_tlb_entries"] = static_cast<double>(prof.tlb.entries);
  std::string thp = ThpMode();
  rec->env_text["thp_mode"] = thp;
  rec->env_text["profile"] = prof.name;
  rec->env["thp_mode"] = ThpCode(thp);
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 4;
  bool trace = false;
  bool tiny = false;
  int proc = 0;
  std::string out;
};

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Layer-level numbers every workload reports over its measurement window.
struct Window {
  int64_t start_ns = 0;
  Usage usage;
  arena::ArenaStats arena;

  static Window Open() { return {NowNs(), ReadUsage(), arena::Stats()}; }

  void Close(uint64_t queries, Record* rec) const {
    Usage u = ReadUsage();
    arena::ArenaStats a = arena::Stats();
    double wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
    double q = static_cast<double>(std::max<uint64_t>(queries, 1));
    rec->layer["mem.minor_faults_per_query"] = (u.minflt - usage.minflt) / q;
    rec->layer["mem.large_allocs_per_query"] =
        static_cast<double>(a.large_allocs - arena.large_allocs) / q;
    rec->layer["mem.large_mapped_mb_per_query"] =
        static_cast<double>(a.large_mapped_bytes - arena.large_mapped_bytes) /
        (1 << 20) / q;
    rec->layer["mem.small_allocs_per_query"] =
        static_cast<double>(a.small_allocs - arena.small_allocs) / q;
    rec->layer["util.cpu_util"] =
        (u.cpu_s - usage.cpu_s) / (wall_s * static_cast<double>(Nproc()));
    rec->layer["util.ctx_switches_per_query"] = (u.csw - usage.csw) / q;
  }
};

// --- star_join ---------------------------------------------------------------

struct Sizes {
  size_t fact_rows;
  size_t dim_rows;
  uint32_t gg_domain;
};

/// Generates `rows` fact rows (fk, g, gg, v) straight into a row store, so
/// the harness holds no second copy; fk draws from `dim_ids`.
StatusOr<RowStore> GenerateFact(size_t rows,
                                const std::vector<uint32_t>& dim_ids,
                                uint32_t gg_domain, uint64_t seed) {
  CCDB_ASSIGN_OR_RETURN(RowStore f,
                        RowStore::Make(U32Fields({"fk", "g", "gg", "v"}),
                                       rows + 1));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    CCDB_ASSIGN_OR_RETURN(size_t r, f.AppendRow());
    f.SetU32(r, kFk, dim_ids[rng.NextBelow(dim_ids.size())]);
    f.SetU32(r, kG, static_cast<uint32_t>(rng.NextBelow(kStarGroups)));
    f.SetU32(r, kGg, static_cast<uint32_t>(rng.NextBelow(gg_domain)));
    f.SetU32(r, kV, static_cast<uint32_t>(rng.NextBelow(kValueDomain)));
  }
  return f;
}

/// One query through Planner::Lower + PhysicalPlan::Execute. Returns the
/// latency in ms; failures are recorded in `rec` and return a negative
/// value. `check` verifies the result.
template <class Check>
double RunQuery(const LogicalPlan& logical, const PlannerOptions& popts,
                uint64_t qid, SpanLog* log, Record* rec, PlanDiag* diag,
                std::vector<double>* lower_ms, std::vector<double>* exec_ms,
                bool record_plan, Check check) {
  ++rec->attempted;
  Usage u0 = log != nullptr ? ReadUsage() : Usage{};
  arena::ArenaStats a0 = log != nullptr ? arena::Stats() : arena::ArenaStats{};
  int64_t t0 = NowNs();
  ScopedSpan qspan(log, "query", 0, qid);
  StatusOr<PhysicalPlan> plan = [&] {
    ScopedSpan s(log, "model.lower", qspan.id(), qid);
    auto p = Planner(popts).Lower(logical);
    if (log != nullptr) lower_ms->push_back(s.End());
    return p;
  }();
  if (!plan.ok()) {
    rec->Fail("lower: " + plan.status().ToString());
    return -1;
  }
  StatusOr<QueryResult> res = [&] {
    ScopedSpan s(log, "exec.execute", qspan.id(), qid);
    auto r = plan->Execute();
    if (log != nullptr) exec_ms->push_back(s.End());
    return r;
  }();
  double ms = MsSince(t0);
  if (log != nullptr) {
    *diag = ReadPlanDiag(*plan);
    qspan.Attr("scan_select_ms", diag->scan_select_ms);
    qspan.Attr("join_ms", diag->join_ms);
    qspan.Attr("groupby_ms", diag->groupby_ms);
    qspan.Attr("partition_tasks", diag->partition_tasks);
    Usage u1 = ReadUsage();
    arena::ArenaStats a1 = arena::Stats();
    qspan.Attr("minor_faults", u1.minflt - u0.minflt);
    qspan.Attr("ctx_switches", u1.csw - u0.csw);
    qspan.Attr("cpu_ms", (u1.cpu_s - u0.cpu_s) * 1e3);
    qspan.Attr("large_allocs",
               static_cast<double>(a1.large_allocs - a0.large_allocs));
    qspan.Attr("small_allocs",
               static_cast<double>(a1.small_allocs - a0.small_allocs));
  }
  qspan.End();
  if (record_plan) RecordJoinPlan(*plan, rec);
  if (!res.ok()) {
    rec->Fail("execute: " + res.status().ToString());
    return -1;
  }
  std::string err = check(*res);
  if (!err.empty()) {
    rec->Fail(err);
    return -1;
  }
  return ms;
}

/// Traced-run scalars of the single-client workloads, from per-query diags.
void SummarizeDiags(const std::vector<PlanDiag>& diags,
                    const std::vector<double>& lower_ms,
                    const std::vector<double>& exec_ms, Record* rec) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const PlanDiag& d : diags) v.push_back(field(d));
    return Median(v);
  };
  rec->layer["model.lower_ms_p50"] = Median(lower_ms);
  rec->layer["exec.execute_ms_p50"] = Median(exec_ms);
  rec->layer["exec.scan_select_ms"] = med([](auto& d) { return d.scan_select_ms; });
  rec->layer["exec.join_ms"] = med([](auto& d) { return d.join_ms; });
  rec->layer["exec.groupby_ms"] = med([](auto& d) { return d.groupby_ms; });
  rec->layer["exec.join_cluster_inner_ms"] =
      med([](auto& d) { return d.cluster_inner_ms; });
  rec->layer["exec.join_cluster_probe_ms"] =
      med([](auto& d) { return d.cluster_probe_ms; });
  rec->layer["exec.join_probe_ms"] = med([](auto& d) { return d.probe_ms; });
  rec->layer["exec.join_partition_tasks"] =
      med([](auto& d) { return d.partition_tasks; });
  rec->layer["model.card_qerror_max"] = med([](auto& d) { return d.qerror_max; });
  rec->layer["model.join_pred_over_meas"] = med([](auto& d) {
    return d.join_ms > 0 ? d.join_pred_ns / 1e6 / d.join_ms : 0.0;
  });
  rec->layer["model.groupby_pred_over_meas"] = med([](auto& d) {
    return d.groupby_ms > 0 ? d.groupby_pred_ns / 1e6 / d.groupby_ms : 0.0;
  });
}

/// Setup shared by the workloads once their tables exist: calibration, stats.
/// Returns the calibration and stats-fill spans' layer numbers in `rec`.
void SetupEngine(const std::vector<const Table*>& tables, SpanLog* log,
                 uint64_t setup_id, Record* rec) {
  {
    ScopedSpan s(log, "model.calibrate", setup_id, 0);
    int64_t t = NowNs();
    MeasuredHostProfile();
    rec->layer["model.calib_ms"] = MsSince(t);
  }
  ScopedSpan s(log, "model.stats_fill", setup_id, 0);
  int64_t t = NowNs();
  for (const Table* tb : tables) {
    Status st = FillStats(*tb);
    if (!st.ok()) rec->Fail("stats: " + st.ToString());
  }
  rec->samples["stats_fill"].push_back(MsSince(t));
  double mb = 0;
  for (const Table* tb : tables) mb += static_cast<double>(tb->MemoryBytes());
  rec->layer["bat.table_mb"] = mb / (1 << 20);
}

int RunStarJoin(const Options& o, Record* rec, SpanLog* log) {
  Sizes sz = o.tiny ? Sizes{size_t{1} << 14, size_t{1} << 12, 1u << 12}
                    : Sizes{size_t{1} << 21, size_t{1} << 19, 1u << 20};

  ScopedSpan setup(log, "setup", 0, 0);
  std::vector<uint32_t> dim_ids = UniqueU32(sz.dim_rows, o.seed * 2 + 1);
  // The generated rows stay until the references are built from them.
  std::optional<RowStore> fact_rows;
  auto gen = GenerateFact(sz.fact_rows, dim_ids, sz.gg_domain, o.seed);
  auto fact_table = gen.ok() ? TableFromRows(*gen, log, setup.id(), rec)
                             : StatusOr<Table>(gen.status());
  if (!fact_table.ok()) {
    std::fprintf(stderr, "fact table: %s\n",
                 fact_table.status().ToString().c_str());
    return 1;
  }
  fact_rows.emplace(*std::move(gen));
  Table fact = *std::move(fact_table);
  std::vector<uint32_t> d(dim_ids.size());
  for (size_t i = 0; i < d.size(); ++i) d[i] = static_cast<uint32_t>(i);
  auto dim_table = BuildTable({"id", "d"}, {&dim_ids, &d}, log, setup.id(), rec);
  if (!dim_table.ok()) return 1;
  Table dim = *std::move(dim_table);
  SetupEngine({&fact, &dim}, log, setup.id(), rec);
  PlannerOptions popts;
  popts.exec.parallelism = Nproc();
  rec->setup_s = static_cast<double>(NowNs()) / 1e9;
  setup.End();

  // The benchmark's reference; built after set-up, which it is not part of.
  StarOracle ref(*fact_rows);
  // Freed before the queries, so the measured RSS holds no copy of the data
  // beyond the engine's tables and the reference.
  fact_rows.reset();
  Rng qrng(o.seed * 1000003 + static_cast<uint64_t>(o.proc) + 7);

  std::vector<PlanDiag> diags;
  std::vector<double> lower_ms, exec_ms;
  auto one = [&](uint64_t qid, bool measured) -> double {
    uint32_t lo = static_cast<uint32_t>(qrng.NextBelow(kMaxLo));
    auto logical = QueryBuilder(fact)
                       .Filter(Col("v") >= lo)
                       .Join(dim, "fk", "id")
                       .GroupBySum("g", "v")
                       .Build();
    if (!logical.ok()) {
      ++rec->attempted;
      rec->Fail("build: " + logical.status().ToString());
      return -1;
    }
    PlanDiag d;
    double ms = RunQuery(
        *logical, popts, qid, measured ? log : nullptr, rec, &d, &lower_ms,
        &exec_ms, !measured,
        [&](const QueryResult& r) { return ref.Check(r, lo); });
    if (measured && log != nullptr) diags.push_back(d);
    return ms;
  };

  // One warm-up query (faults in the arenas, fills lazy state) is checked
  // and counted but not timed; it also records the join plan this process
  // got.
  one(0, false);

  HugePageSampler huge(log != nullptr);
  Window w = Window::Open();
  std::vector<double>& lat = rec->samples["query"];
  uint64_t qid = 1;
  do {
    double ms = one(qid++, true);
    if (ms >= 0) lat.push_back(ms);
  } while (static_cast<double>(NowNs() - w.start_ns) / 1e9 < o.seconds);
  rec->measure_s = static_cast<double>(NowNs() - w.start_ns) / 1e9;
  rec->env["anon_huge_mb"] = AnonHugeMb();
  if (log != nullptr) {
    rec->layer["mem.anon_huge_mb"] = huge.Stop();
    w.Close(lat.size(), rec);
    SummarizeDiags(diags, lower_ms, exec_ms, rec);
  }
  return 0;
}

// --- serving_ingest ----------------------------------------------------------

/// Pauses the clients between rounds: the main thread appends only while
/// no query is in flight.
class Gate {
 public:
  /// Blocks while paused; false once stopped.
  bool Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !paused_ || stop_; });
    if (stop_) return false;
    ++in_flight_;
    return true;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    cv_.notify_all();
  }
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    cv_.notify_all();
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool stop_ = false;
  int in_flight_ = 0;
};

/// Per-client tallies, merged into the record after the clients joined.
struct ClientLog {
  std::vector<double> latency, queue, exec;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  SpanLog spans;
};

void GenerateServingRows(size_t rows, uint32_t keys, Rng& rng,
                         std::vector<uint32_t>* k, std::vector<uint32_t>* v) {
  k->resize(rows);
  v->resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    (*k)[i] = static_cast<uint32_t>(rng.NextBelow(keys));
    (*v)[i] = static_cast<uint32_t>(rng.NextBelow(kValueDomain));
  }
}

int RunServing(const Options& o, Record* rec, SpanLog* log) {
  constexpr uint32_t kKeys = 400;       // fact keys and dim rows
  constexpr uint32_t kLookupKeys = 480; // literals beyond 400 match nothing
  constexpr int kRounds = 10;
  const size_t band_rows = o.tiny ? size_t{1} << 12 : size_t{1} << 18;
  const size_t batch = band_rows / 200;  // ~0.5% per append
  // Starts below the band edge so the table crosses it halfway through.
  const size_t start_rows = band_rows - batch * kRounds / 2 + batch / 2;

  ScopedSpan setup(log, "setup", 0, 0);
  Rng drng(o.seed);
  std::vector<uint32_t> k, v;
  GenerateServingRows(start_rows, kKeys, drng, &k, &v);
  ServingOracle ref(kKeys);
  auto fact_t = BuildTable({"k", "v"}, {&k, &v}, log, setup.id(), rec);
  std::vector<uint32_t> ids(kKeys), w(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) {
    ids[i] = i;
    w[i] = (i * 7919u) % 100003u;  // distinct, unordered group keys
  }
  auto dim_t = BuildTable({"id", "w"}, {&ids, &w}, log, setup.id(), rec);
  if (!fact_t.ok() || !dim_t.ok()) return 1;
  Table fact = *std::move(fact_t), dim = *std::move(dim_t);
  ref.Add(k, v);
  SetupEngine({&fact, &dim}, log, setup.id(), rec);
  ServerOptions sopts;
  sopts.planner.exec.parallelism = Nproc();
  Server server(sopts);

  // Submitted plans must outlive their tickets: all are prebuilt.
  Rng prng(o.seed * 31 + 5);
  std::vector<uint32_t> point_keys;
  std::vector<LogicalPlan> point_plans;
  for (int i = 0; i < 256; ++i) {
    uint32_t key = static_cast<uint32_t>(prng.NextBelow(kLookupKeys));
    auto p = QueryBuilder(fact).Filter(Col("k") == key).Limit(16).Build();
    if (!p.ok()) return 1;
    point_keys.push_back(key);
    point_plans.push_back(*std::move(p));
  }
  struct Range {
    uint32_t a, b;
  };
  const Range ranges[] = {{100, 900}, {0, 512}, {256, 1024}};
  std::vector<LogicalPlan> analytic;
  {
    auto j = QueryBuilder(fact)
                 .Join(dim, "k", "id")
                 .GroupByAgg({"w"}, {Agg::Sum("v"), Agg::Count()})
                 .OrderBy("w")
                 .Build();
    if (!j.ok()) return 1;
    analytic.push_back(*std::move(j));
    for (const Range& r : ranges) {
      auto f = QueryBuilder(fact)
                   .Filter(Col("v") >= r.a && Col("v") < r.b)
                   .GroupByAgg({"k"}, {Agg::Sum("v"), Agg::Min("v"),
                                       Agg::Max("v"), Agg::Count()})
                   .OrderBy("k")
                   .Build();
      if (!f.ok()) return 1;
      analytic.push_back(*std::move(f));
    }
  }
  rec->setup_s = static_cast<double>(NowNs()) / 1e9;
  setup.End();

  Gate gate;
  std::atomic<uint64_t> next_qid{1};
  // One request: Submit, Wait, check. `check` returns "" when right.
  auto request = [&](QuerySession& session, const LogicalPlan& plan,
                     ClientLog& cl, bool trace, auto check) {
    if (!gate.Enter()) return false;
    ++cl.attempted;
    uint64_t qid = next_qid.fetch_add(1);
    SpanLog* slog = trace ? &cl.spans : nullptr;
    int64_t t0 = NowNs();
    ScopedSpan q(slog, "query", 0, qid);
    StatusOr<QueryTicket> ticket = [&] {
      ScopedSpan s(slog, "serve.submit", q.id(), qid);
      return session.Submit(plan);
    }();
    std::string err;
    if (!ticket.ok()) {
      err = "submit: " + ticket.status().ToString();
    } else {
      ScopedSpan s(slog, "serve.wait", q.id(), qid);
      const QueryOutcome& out = ticket->Wait();
      double ms = MsSince(t0);
      s.Attr("queue_ms", out.queue_ms);
      s.Attr("exec_ms", out.exec_ms);
      s.Attr("cache_hit", out.cache_hit ? 1 : 0);
      s.End();
      err = out.status.ok() ? check(out.result)
                            : "query: " + out.status.ToString();
      if (err.empty()) {
        cl.latency.push_back(ms);
        cl.queue.push_back(out.queue_ms);
        cl.exec.push_back(out.exec_ms);
      }
    }
    q.End();
    gate.Exit();
    if (!err.empty()) {
      ++cl.failed;
      if (cl.failures.size() < 8) cl.failures.push_back(err);
    }
    return true;
  };

  std::vector<ClientLog> logs(3);
  auto point_client = [&](int c) {
    QuerySession session(&server, "point");
    Rng rng(o.seed * 7 + static_cast<uint64_t>(c) * 101 +
            static_cast<uint64_t>(o.proc));
    for (;;) {
      size_t i = rng.NextBelow(point_plans.size());
      uint32_t key = point_keys[i];
      bool more = request(session, point_plans[i], logs[c], log != nullptr,
                          [&](const QueryResult& r) {
                            return ref.CheckPoint(r, key);
                          });
      if (!more) return;
    }
  };
  auto analytic_client = [&] {
    QuerySession session(&server, "analytic");
    Rng rng(o.seed * 13 + static_cast<uint64_t>(o.proc));
    for (;;) {
      size_t i = rng.NextBelow(analytic.size());
      bool more = request(session, analytic[i], logs[2], log != nullptr,
                          [&](const QueryResult& r) {
                            return i == 0 ? ref.CheckJoinAgg(r)
                                          : ref.CheckFilteredAgg(
                                                r, ranges[i - 1].a,
                                                ranges[i - 1].b);
                          });
      if (!more) return;
    }
  };

  HugePageSampler huge(log != nullptr);
  Window win = Window::Open();
  Server::Stats s0 = server.stats();
  std::vector<std::thread> clients;
  clients.emplace_back(point_client, 0);
  clients.emplace_back(point_client, 1);
  clients.emplace_back(analytic_client);
  std::vector<double>& appends = rec->samples["append"];
  std::vector<double> probe_lower[2], probe_exec[2];
  std::vector<PlanDiag> probe_diags[2];
  uint64_t append_attempts = 0;
  for (int round = 0; round < kRounds; ++round) {
    double until = o.seconds * (round + 1) / kRounds;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.0, until - static_cast<double>(NowNs() - win.start_ns) / 1e9)));
    if (round + 1 == kRounds) break;
    gate.Pause();
    std::vector<uint32_t> bk, bv;
    GenerateServingRows(batch, kKeys, drng, &bk, &bv);
    auto rs = RowStore::Make({{"k", FieldType::kU32}, {"v", FieldType::kU32}},
                             batch + 1);
    ++append_attempts;
    Status st = rs.status();
    if (st.ok()) {
      for (size_t i = 0; i < batch; ++i) {
        size_t r = *rs->AppendRow();
        rs->SetU32(r, 0, bk[i]);
        rs->SetU32(r, 1, bv[i]);
      }
      ScopedSpan a(log, "exec.append_rows", 0, 0);
      int64_t t = NowNs();
      st = fact.AppendRows(*rs);
      appends.push_back(MsSince(t));
      if (log != nullptr) {
        // The serving layer's counters so far, at this round boundary.
        Server::Stats ss = server.stats();
        a.Attr("completed", static_cast<double>(ss.completed));
        a.Attr("rejected", static_cast<double>(ss.rejected));
        a.Attr("cache_hits", static_cast<double>(ss.cache.hits));
        a.Attr("cache_misses", static_cast<double>(ss.cache.misses));
        a.Attr("cache_invalidations",
               static_cast<double>(ss.cache.invalidations));
        a.Attr("chunks_driven",
               static_cast<double>(ss.shared_scans.chunks_driven));
        a.Attr("chunks_fanned_out",
               static_cast<double>(ss.shared_scans.chunks_fanned_out));
      }
    }
    if (st.ok()) {
      ref.Add(bk, bv);
      ScopedSpan sf(log, "model.stats_fill", 0, 0);
      int64_t t = NowNs();
      st = FillStats(fact);
      rec->samples["stats_fill"].push_back(MsSince(t));
    }
    if (!st.ok()) rec->Fail("append: " + st.ToString());
    if (log != nullptr) {
      // The server lowers and executes out of sight, so the traced run
      // probes the layers while the clients are paused: it lowers (what a
      // plan-cache miss pays) and executes one point lookup and the join +
      // aggregate, and reads their operator diagnostics.
      for (int which = 0; which < 2; ++which) {
        const LogicalPlan& p = which == 0 ? point_plans[0] : analytic[0];
        PlanDiag d;
        double ms = RunQuery(
            p, sopts.planner, 0, log, rec, &d, &probe_lower[which],
            &probe_exec[which], false, [&](const QueryResult& r) {
              return which == 0 ? ref.CheckPoint(r, point_keys[0])
                                : ref.CheckJoinAgg(r);
            });
        if (ms >= 0) probe_diags[which].push_back(d);
      }
    }
    gate.Resume();
  }
  gate.Stop();
  for (auto& t : clients) t.join();
  rec->measure_s = static_cast<double>(NowNs() - win.start_ns) / 1e9;
  rec->env["anon_huge_mb"] = AnonHugeMb();
  {
    // The join plan this process's calibration gives the join + aggregate
    // (the server lowers out of sight): one checked, untimed execution.
    PlanDiag d;
    std::vector<double> unused_lower, unused_exec;
    RunQuery(analytic[0], sopts.planner, 0, nullptr, rec, &d, &unused_lower,
             &unused_exec, true,
             [&](const QueryResult& r) { return ref.CheckJoinAgg(r); });
  }

  uint64_t client_attempted = 0;
  for (int c = 0; c < 3; ++c) {
    ClientLog& cl = logs[c];
    client_attempted += cl.attempted;
    rec->failed += cl.failed;
    for (const auto& f : cl.failures) {
      if (rec->errors.size() < 8) rec->errors.push_back(f);
    }
    const char* cls = c < 2 ? "point" : "analytic";
    auto& lat = rec->samples[cls];
    lat.insert(lat.end(), cl.latency.begin(), cl.latency.end());
    auto& q = rec->samples[std::string(cls) + "_queue"];
    q.insert(q.end(), cl.queue.begin(), cl.queue.end());
    auto& e = rec->samples[std::string(cls) + "_exec"];
    e.insert(e.end(), cl.exec.begin(), cl.exec.end());
    if (log != nullptr) {
      log->insert(log->end(), std::make_move_iterator(cl.spans.begin()),
                  std::make_move_iterator(cl.spans.end()));
    }
  }
  rec->attempted += client_attempted + append_attempts;
  rec->env["table_rows_start"] = static_cast<double>(start_rows);
  rec->env["table_rows_end"] = static_cast<double>(fact.num_rows());

  Server::Stats s1 = server.stats();
  if (log != nullptr) {
    win.Close(rec->samples["point"].size() + rec->samples["analytic"].size(),
              rec);
    rec->layer["mem.anon_huge_mb"] = huge.Stop();
    uint64_t hits = s1.cache.hits - s0.cache.hits;
    uint64_t misses = s1.cache.misses - s0.cache.misses;
    rec->layer["serve.plan_cache_hit_ratio"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0;
    rec->layer["serve.plan_cache_invalidations"] =
        static_cast<double>(s1.cache.invalidations - s0.cache.invalidations);
    const auto& a = s1.shared_scans;
    const auto& b = s0.shared_scans;
    double driven = static_cast<double>(a.chunks_driven - b.chunks_driven);
    double fanned = static_cast<double>(a.chunks_fanned_out - b.chunks_fanned_out);
    rec->layer["serve.shared_fanout_ratio"] = driven > 0 ? fanned / driven : 0;
    double full = static_cast<double>(a.filter_full_evals - b.filter_full_evals);
    double reused = static_cast<double>(a.filter_narrowed - b.filter_narrowed +
                                        a.filter_copied - b.filter_copied);
    rec->layer["serve.filter_reuse_ratio"] =
        full + reused > 0 ? reused / (full + reused) : 0;
    rec->layer["serve.shared_overflows"] =
        static_cast<double>(a.overflows - b.overflows);
    rec->layer["serve.rejected"] = static_cast<double>(s1.rejected - s0.rejected);
    // Lowering, scan/select and execute times come from the point-lookup
    // probe, the join and aggregate phases from the join + aggregate probe.
    SummarizeDiags(probe_diags[1], probe_lower[1], probe_exec[1], rec);
    rec->layer["model.lower_ms_p50"] = Median(probe_lower[0]);
    std::vector<double> point_scan;
    for (const PlanDiag& d : probe_diags[0]) point_scan.push_back(d.scan_select_ms);
    rec->layer["exec.scan_select_ms"] = Median(point_scan);
    rec->layer["exec.execute_ms_p50"] = Median(probe_exec[0]);
  }
  return 0;
}

// --- self-test: every oracle rejects a perturbed result ----------------------

int SelfTest() {
  int bad = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++bad;
  };
  PlannerOptions popts;
  popts.exec.parallelism = 2;

  std::vector<uint32_t> dim_ids = UniqueU32(1 << 10, 3);
  auto f = GenerateFact(1 << 13, dim_ids, 1 << 10, 9);
  CCDB_CHECK(f.ok());
  Record rec;
  auto ft = TableFromRows(*f, nullptr, 0, &rec);
  std::vector<uint32_t> d(dim_ids.size(), 1);
  auto dt = BuildTable({"id", "d"}, {&dim_ids, &d}, nullptr, 0, &rec);
  CCDB_CHECK(ft.ok() && dt.ok());
  Table fact = *std::move(ft);
  Table dim = *std::move(dt);

  {
    StarOracle ref(*f);
    auto p = QueryBuilder(fact).Filter(Col("v") >= 40u).Join(dim, "fk", "id")
                 .GroupBySum("g", "v").Build();
    auto r = Execute(*p, popts);
    CCDB_CHECK(r.ok());
    expect(ref.Check(*r, 40).empty(), "star oracle accepts the engine's result");
    QueryResult bad_sum = *r;
    bad_sum.columns[*r->ColumnIndex("sum")].i64_values[3] += 1;
    expect(!ref.Check(bad_sum, 40).empty(), "star oracle rejects a wrong sum");
    QueryResult bad_groups = *r;
    for (auto& c : bad_groups.columns) {
      c.u32_values.resize(c.u32_values.empty() ? 0 : 63);
      c.i64_values.resize(c.i64_values.empty() ? 0 : 63);
    }
    expect(!ref.Check(bad_groups, 40).empty(), "star oracle rejects 63 groups");
    expect(!ref.Check(*r, 41).empty(), "star oracle rejects another filter");
  }
  {
    ServingOracle ref(400);
    Rng rng(4);
    std::vector<uint32_t> k, v;
    GenerateServingRows(1 << 12, 400, rng, &k, &v);
    ref.Add(k, v);
    auto ft2 = BuildTable({"k", "v"}, {&k, &v}, nullptr, 0, &rec);
    std::vector<uint32_t> ids(400), w(400);
    for (uint32_t i = 0; i < 400; ++i) ids[i] = i, w[i] = i * 3;
    auto dt2 = BuildTable({"id", "w"}, {&ids, &w}, nullptr, 0, &rec);
    CCDB_CHECK(ft2.ok() && dt2.ok());
    Table t = *std::move(ft2), dm = *std::move(dt2);
    auto pt = Execute(*QueryBuilder(t).Filter(Col("k") == 7u).Limit(16).Build(),
                      popts);
    CCDB_CHECK(pt.ok());
    expect(ref.CheckPoint(*pt, 7).empty(), "point oracle accepts the engine's result");
    QueryResult short_r = *pt;
    for (auto& c : short_r.columns) c.u32_values.pop_back();
    expect(!ref.CheckPoint(short_r, 7).empty(), "point oracle rejects 15 rows");
    QueryResult wrong_key = *pt;
    wrong_key.columns[*pt->ColumnIndex("k")].u32_values[5] = 8;
    expect(!ref.CheckPoint(wrong_key, 7).empty(),
           "point oracle rejects a row with another key");
    auto miss = Execute(*QueryBuilder(t).Filter(Col("k") == 450u).Limit(16).Build(),
                        popts);
    CCDB_CHECK(miss.ok());
    expect(ref.CheckPoint(*miss, 450).empty(), "point oracle accepts 0 rows for a missing key");

    auto ja = Execute(*QueryBuilder(t).Join(dm, "k", "id")
                           .GroupByAgg({"w"}, {Agg::Sum("v"), Agg::Count()})
                           .OrderBy("w").Build(),
                      popts);
    CCDB_CHECK(ja.ok());
    expect(ref.CheckJoinAgg(*ja).empty(), "join-agg oracle accepts the engine's result");
    QueryResult bad_ja = *ja;
    bad_ja.columns[*ja->ColumnIndex("count")].i64_values[0] -= 1;
    expect(!ref.CheckJoinAgg(bad_ja).empty(), "join-agg oracle rejects a lost row");

    auto fa = Execute(*QueryBuilder(t).Filter(Col("v") >= 100u && Col("v") < 900u)
                           .GroupByAgg({"k"}, {Agg::Sum("v"), Agg::Min("v"),
                                               Agg::Max("v"), Agg::Count()})
                           .OrderBy("k").Build(),
                      popts);
    CCDB_CHECK(fa.ok());
    expect(ref.CheckFilteredAgg(*fa, 100, 900).empty(),
           "filtered-agg oracle accepts the engine's result");
    QueryResult bad_fa = *fa;
    bad_fa.columns[*fa->ColumnIndex("sum")].i64_values[0] += 1;
    expect(!ref.CheckFilteredAgg(bad_fa, 100, 900).empty(),
           "filtered-agg oracle rejects a wrong sum");
  }
  std::printf("%s\n", bad == 0 ? "self-test passed" : "self-test FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--self-test") return SelfTest();
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--proc") {
      o.proc = std::atoi(next().c_str());
    } else if (a == "--out") {
      o.out = next();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  if (o.out.empty() || !(o.seconds > 0)) {
    std::fprintf(stderr, "need --out FILE and --seconds > 0\n");
    return 2;
  }
  Record rec;
  rec.workload = o.workload;
  SpanLog spans;
  SpanLog* log = o.trace ? &spans : nullptr;
  int rc;
  if (o.workload == "star_join") {
    rc = RunStarJoin(o, &rec, log);
  } else if (o.workload == "serving_ingest") {
    rc = RunServing(o, &rec, log);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  RecordEnvironment(&rec);
  Usage u = ReadUsage();
  rec.env["peak_rss_mb"] = u.maxrss_mb;
  if (o.trace) {
    rec.layer["mem.major_faults"] = u.majflt;
    rec.layer["mem.thp_mode"] = rec.env["thp_mode"];
    rec.layer["model.calib_tlb_entries"] = rec.env["calib_tlb_entries"];
    rec.layer["model.calib_tlb_walk_ns"] = rec.env["calib_tlb_walk_ns"];
    auto env = [&](const char* k) {
      auto it = rec.env.find(k);
      return it == rec.env.end() ? 0.0 : it->second;
    };
    rec.layer["model.join_bits"] = env("join_bits");
    rec.layer["model.join_passes"] = env("join_passes");
    rec.layer["model.stats_fill_ms"] = Median(rec.samples["stats_fill"]);
  }
  if (!WriteRecord(rec, spans, o.out)) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  return 0;
}
