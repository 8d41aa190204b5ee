// serve_aged_ledger: an in-process daemon (2 pool jobs, ledger
// attached) whose ledger already holds kAgedRecords records generated
// from the seed. Two client connections drive it from this one thread:
// after an untimed warm-up, an open-loop phase at a fixed rate of about
// a quarter of the daemon's capacity on the default small/medium/large
// mix, and a closed-loop phase. Request counts are fixed for a given
// --seconds. Both phases run in rounds that alternate over the whole
// run, so a slow spell of the host weighs on both alike, and each round
// starts from the freshly generated ledger, so the ledger grows along
// the same sizes (kAgedRecords to kAgedRecords + one round) in every
// run. Frame parsing, admission, queue wait, the ledger scan and
// append, and the result flush are on every request's path; the
// executor runs one request at a time.
//
// The open-loop generator is built on serve::Client rather than
// serve::run_load: it times each request from its due time, so a
// daemon stall shows in the requests queued behind it instead of
// delaying their send stamps (coordinated omission), and it keeps raw
// samples for exact quantiles.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ftspm/obs/ledger.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/load.h"
#include "ftspm/serve/protocol.h"
#include "ftspm/serve/server.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ftspm;

constexpr std::uint32_t kJobs = 2;
constexpr std::size_t kConnections = 2;
constexpr int kSetupReps = 201;
/// At ~7 us per existing record (4-vCPU Xeon), the scan + append is
/// then most of a small request but not all of a large one.
constexpr std::size_t kAgedRecords = 1000;
/// Open-loop and closed-loop rounds per run, alternating; the ledger is
/// reset to its aged copy before each round.
constexpr std::size_t kCycles = 8;
/// Open-loop arrival rate, all connections together: about a quarter of
/// the closed-loop capacity this workload measured (70-100 requests/s)
/// on the 4-vCPU Xeon it was tuned on. At half the capacity the queue
/// turned a share of CPU lost to the host into twice that share of
/// latency, and the median moved up to 3x between runs a minute apart.
constexpr double kOpenRate = 20.0;
/// Share of --seconds the open-loop phase is sized to fill.
constexpr double kOpenShare = 0.7;
/// Closed-loop requests per second of --seconds (fills about 25% of it).
constexpr double kClosedPerSecond = 20.0;
/// Untimed closed-loop requests before the open loop: one turn of the
/// mix, so the open loop starts at the same place in it.
constexpr std::size_t kWarmupRequests = 12;
/// Latency limit on the open-loop p99; a failed request misses it.
constexpr double kLatencyLimitMs = 250.0;
/// tail_ms. The large requests are 1/12 of the mix, so the p95 is about
/// their median latency; the p99 is the worst few of them and moved
/// 40% between runs of the same code (it is reported as a layer metric).
constexpr double kTailQuantile = 0.95;
constexpr double kLimitQuantile = 0.99;
constexpr int kPingProbes = 200;
constexpr int kAppendProbes = 40;

/// One class of the mix with the counters a direct run of its spec
/// produced (computed once, before the daemon starts).
struct Class {
  serve::RequestClass cls;
  std::vector<std::pair<std::string, std::uint64_t>> expected;
};

/// `count` ledger records shaped like campaign records, from `seed`.
std::string aged_ledger(std::uint64_t seed, std::size_t count) {
  Rng rng(Rng::derive_stream_seed(seed, 0x1ed9e));
  std::string text;
  for (std::size_t i = 0; i < count; ++i) {
    obs::LedgerRecord r;
    r.id = "run-" + std::to_string(i);
    r.command = "campaign";
    r.workload = rng.next_below(4) == 0 ? "parity" : "secded";
    r.seed = rng.next_u64() >> 12;
    r.jobs = kJobs;
    r.shards = static_cast<std::uint32_t>(1 + rng.next_below(2));
    const std::uint64_t strikes = 50'000 * (1 + rng.next_below(20));
    const std::uint64_t due = rng.next_below(strikes / 2);
    const std::uint64_t sdc = rng.next_below(strikes / 10);
    r.counters = {{"dre", strikes - due - sdc},
                  {"due", due},
                  {"masked", 0},
                  {"sdc", sdc},
                  {"strikes", strikes}};
    r.metrics = {{"vulnerability",
                  static_cast<double>(due + sdc) / static_cast<double>(strikes)}};
    r.wall_ms = 1.0 + static_cast<double>(rng.next_below(20000)) / 1000.0;
    r.strikes_per_sec = static_cast<double>(strikes) / (r.wall_ms / 1e3);
    text += r.to_json();
    text += '\n';
  }
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  FTSPM_CHECK(static_cast<bool>(out), "cannot write " + path);
}

/// What the generator saw of one request.
struct Sample {
  std::string id;
  std::size_t cls = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  bool ok = false;
  std::uint32_t span = 0;  ///< Request span in the traced run.
};

/// Both connections, driven from one thread.
class Generator {
 public:
  Generator(const std::string& socket, const std::vector<Class>& classes,
            Report& report, SpanLog* spans)
      : classes_(classes), report_(report), spans_(spans),
        credit_(classes.size(), 0.0), unacked_(kConnections) {
    for (std::size_t i = 0; i < kConnections; ++i)
      clients_.push_back(serve::Client::connect_unix(socket));
  }

  /// Open loop: `count` requests due every 1/rate seconds, alternating
  /// connections, whatever the replies do.
  std::vector<Sample> open_loop(const std::string& prefix, std::size_t count,
                                double rate, std::uint32_t parent) {
    begin_phase(prefix, count, parent);
    open_phase_ = true;
    const std::uint64_t start = now_ns() + 1'000'000;
    const auto due = [&](std::size_t i) {
      return start + static_cast<std::uint64_t>(static_cast<double>(i) /
                                                rate * 1e9);
    };
    std::size_t next = 0;
    while (next < count || !in_flight_.empty()) {
      const std::uint64_t now = now_ns();
      while (next < count && due(next) <= now) {
        send(next, next % kConnections, due(next));
        ++next;
      }
      if (next == count && stalled()) break;
      wait_frames(next < count ? due(next) : now + kPollNs);
    }
    return std::move(samples_);
  }

  /// Closed loop: each connection sends its next request when its
  /// previous one resolves, until `count` were sent.
  std::vector<Sample> closed_loop(const std::string& prefix, std::size_t count,
                                  std::uint32_t parent) {
    begin_phase(prefix, count, parent);
    open_phase_ = false;
    std::size_t next = 0;
    for (std::size_t c = 0; c < kConnections && next < count; ++c, ++next)
      send(next, c, now_ns());
    while (!in_flight_.empty() && !stalled()) {
      wait_frames(now_ns() + kPollNs);
      for (const std::size_t conn : freed_)
        if (next < count) send(next++, conn, now_ns());
      freed_.clear();
    }
    return std::move(samples_);
  }

  /// Deepest queue an open-loop request was admitted behind.
  std::uint64_t queue_depth_max() const noexcept { return depth_max_; }

 private:
  static constexpr std::uint64_t kPollNs = 100'000'000;
  /// A phase gives up on replies this long after the last one arrived.
  static constexpr std::uint64_t kStallNs = 30'000'000'000;

  void begin_phase(const std::string& prefix, std::size_t count,
                   std::uint32_t parent) {
    prefix_ = prefix;
    parent_ = parent;
    samples_.assign(count, Sample{});
    freed_.clear();
    last_reply_ns_ = now_ns();
  }

  /// The mix as a fixed smooth weighted round robin: every twelve
  /// requests hold 8 small, 3 medium and 1 large, spread evenly. Every
  /// run sends the same work in the same order, so the tail measures the
  /// daemon, not how a draw happened to bunch the large requests.
  std::size_t next_class() {
    std::size_t best = 0;
    double total = 0.0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      credit_[c] += classes_[c].cls.weight;
      total += classes_[c].cls.weight;
      if (credit_[c] > credit_[best]) best = c;
    }
    credit_[best] -= total;
    return best;
  }

  void send(std::size_t i, std::size_t conn, std::uint64_t due) {
    const std::size_t cls = next_class();
    Sample& s = samples_[i];
    s.id = prefix_ + std::to_string(i);
    s.cls = cls;
    s.due_ns = due;
    report_.attempt();
    clients_[conn].send_line(serve::campaign_request(classes_[cls].cls.spec,
                                                     s.id, 0));
    s.sent_ns = now_ns();
    in_flight_[s.id] = {i, conn};
    unacked_[conn].push_back(s.id);
  }

  /// Fails every request still in flight once the daemon has been
  /// silent for kStallNs, so a hung daemon ends the run instead of it.
  bool stalled() {
    if (in_flight_.empty() || now_ns() - last_reply_ns_ < kStallNs)
      return false;
    while (!in_flight_.empty()) {
      resolve(in_flight_.begin()->first, false, "no reply within 30 s");
    }
    return true;
  }

  /// Waits for replies until `deadline_ns` or until some arrived.
  void wait_frames(std::uint64_t deadline_ns) {
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c)
      fds[c] = {clients_[c].fd(), POLLIN, 0};
    const std::uint64_t now = now_ns();
    const std::uint64_t wait = deadline_ns > now ? deadline_ns - now : 0;
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                      static_cast<long>(wait % 1'000'000'000ull)};
    FTSPM_CHECK(::ppoll(fds, kConnections, &ts, nullptr) >= 0,
                "perfbench: ppoll failed");
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (fds[c].revents == 0) continue;
      while (std::optional<JsonValue> frame = clients_[c].poll_frame(0))
        handle(*frame, c);
    }
  }

  void handle(const JsonValue& frame, std::size_t conn) {
    last_reply_ns_ = now_ns();
    const std::string& type = frame.at("type").string;
    const JsonValue* id = frame.find("id");
    std::deque<std::string>& unacked = unacked_[conn];
    if (type == "accepted") {
      unacked.erase(std::find(unacked.begin(), unacked.end(), id->string));
      if (open_phase_)
        depth_max_ = std::max(
            depth_max_,
            static_cast<std::uint64_t>(frame.at("queue_depth").number));
      return;
    }
    if (type != "result" && type != "error") return;
    if (type == "error" && (id == nullptr || !in_flight_.count(id->string))) {
      // A frame the daemon could not parse is answered without an id,
      // before any frame sent after it: it is the oldest unaccepted one.
      if (!report_.check(!unacked.empty(), "error frame for no request: " +
                                               frame.dump()))
        return;
      resolve(unacked.front(), false, frame.dump());
      return;
    }
    if (!report_.check(id != nullptr && in_flight_.count(id->string),
                       "reply for an unknown request: " + frame.dump()))
      return;
    const bool ok =
        type == "result" &&
        counters_match(frame.at("counters"),
                       classes_[samples_[in_flight_[id->string].first].cls]
                           .expected);
    resolve(id->string, ok,
            type == "error" ? frame.dump()
                            : "served counters differ from a direct run of "
                              "the same spec");
  }

  void resolve(const std::string& id, bool ok, const std::string& why) {
    const auto [index, conn] = in_flight_.at(id);
    in_flight_.erase(id);
    std::deque<std::string>& unacked = unacked_[conn];
    const auto pending = std::find(unacked.begin(), unacked.end(), id);
    if (pending != unacked.end()) unacked.erase(pending);
    freed_.push_back(conn);
    Sample& s = samples_[index];
    s.done_ns = now_ns();
    s.ok = report_.check(ok, s.id + ": " + why);
    if (spans_ != nullptr) {
      Span span;
      span.parent = parent_;
      span.layer = "load";
      span.name = classes_[s.cls].cls.name;
      span.start_ns = s.due_ns;
      span.end_ns = s.done_ns;
      span.request = s.id;
      s.span = spans_->add(std::move(span));
    }
  }

  static bool counters_match(
      const JsonValue& got,
      const std::vector<std::pair<std::string, std::uint64_t>>& want) {
    if (!got.is_object() || got.object.size() != want.size()) return false;
    for (const auto& [name, value] : want) {
      const JsonValue* v = got.find(name);
      if (v == nullptr || v->number != static_cast<double>(value)) return false;
    }
    return true;
  }

  const std::vector<Class>& classes_;
  Report& report_;
  SpanLog* spans_;
  std::vector<serve::Client> clients_;
  std::vector<double> credit_;  ///< Round-robin credit per class.
  std::string prefix_;
  std::uint32_t parent_ = 0;
  std::vector<Sample> samples_;
  /// Request id -> (sample index, connection).
  std::map<std::string, std::pair<std::size_t, std::size_t>> in_flight_;
  /// Per connection: ids sent but not yet accepted, oldest first.
  std::vector<std::deque<std::string>> unacked_;
  std::vector<std::size_t> freed_;
  std::uint64_t last_reply_ns_ = 0;
  bool open_phase_ = false;
  std::uint64_t depth_max_ = 0;
};

/// Latency from due time, a failed request counting as infinitely late.
std::vector<double> latencies(const std::vector<Sample>& samples,
                              std::optional<std::size_t> cls = {}) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (cls && s.cls != *cls) continue;
    out.push_back(s.ok ? ms_between(s.due_ns, s.done_ns)
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Per open-loop request: the daemon's queued / running / running
/// outside its shard children / flushing durations.
struct DaemonFigures {
  std::vector<double> queue_ms, run_ms, dispatch_ms, flush_ms;
};

/// Moves the daemon's per-request spans onto the benchmark clock
/// (`offset_ns` is when the daemon's trace epoch began), hangs them
/// under the generator's request spans, and takes the daemon figures.
DaemonFigures daemon_spans(const JsonValue& doc, std::uint64_t offset_ns,
                           const std::vector<Sample>& warmup,
                           const std::vector<Sample>& open,
                           const std::vector<Sample>& closed, SpanLog& log) {
  struct RequestSpans {
    std::uint32_t request = 0, queued = 0, running = 0, flushing = 0;
    std::vector<std::uint32_t> open;  ///< B spans not yet ended.
    std::vector<std::uint32_t> shards;
  };
  std::map<std::string, RequestSpans> requests;
  for (const auto* phase : {&warmup, &open, &closed})
    for (const Sample& s : *phase) requests[s.id].request = s.span;
  // Lane (pid, tid) -> request id, from the thread_name metadata.
  std::map<std::pair<double, double>, std::string> lane_request;
  const auto& events = doc.at("traceEvents").array;
  for (const JsonValue& e : events) {
    if (e.at("ph").string != "M" || e.at("name").string != "thread_name")
      continue;
    const std::string& lane = e.at("args").at("name").string;
    if (lane.rfind("req ", 0) == 0)
      lane_request[{e.at("pid").number, e.at("tid").number}] = lane.substr(4);
  }
  const auto at_ns = [&](double ts_us) {
    return offset_ns + static_cast<std::uint64_t>(ts_us * 1e3);
  };
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").string;
    if (ph != "B" && ph != "E" && ph != "X") continue;
    const auto lane =
        lane_request.find({e.at("pid").number, e.at("tid").number});
    if (lane == lane_request.end()) continue;
    const auto req = requests.find(lane->second);
    if (req == requests.end()) continue;
    RequestSpans& r = req->second;
    if (ph == "E") {
      if (r.open.empty()) continue;
      log.close_at(r.open.back(), at_ns(e.at("ts").number));
      r.open.pop_back();
      continue;
    }
    Span s;
    s.name = e.at("name").string;
    s.track = "daemon";
    s.start_ns = s.end_ns = at_ns(e.at("ts").number);
    s.parent = r.request;
    if (ph == "X") {  // "shard K", inside "running".
      s.layer = "fault";
      s.end_ns = at_ns(e.at("ts").number + e.at("dur").number);
      s.parent = r.running;
      r.shards.push_back(log.add(std::move(s)));
      continue;
    }
    // "flushing result" is the ledger scan + append, then the reply.
    s.layer = s.name == "queued" ? "serve" : s.name == "running" ? "exec" : "obs";
    const std::string name = s.name;
    const std::uint32_t id = log.add(std::move(s));
    r.open.push_back(id);
    if (name == "queued") r.queued = id;
    if (name == "running") r.running = id;
    if (name == "flushing result") r.flushing = id;
  }
  const auto dur = [&](std::uint32_t id) {
    return ms_between(log.span(id).start_ns, log.span(id).end_ns);
  };
  DaemonFigures fig;
  for (const Sample& s : open) {
    const RequestSpans& r = requests[s.id];
    if (r.queued != 0) fig.queue_ms.push_back(dur(r.queued));
    if (r.flushing != 0) fig.flush_ms.push_back(dur(r.flushing));
    if (r.running == 0) continue;
    fig.run_ms.push_back(dur(r.running));
    fig.dispatch_ms.push_back(log.own_ms(r.running));
  }
  return fig;
}

}  // namespace

EndToEnd run_serve_aged_ledger(const Options& options, double seconds,
                               Report& report, SpanLog* spans,
                               Layers* layers) {
  const Scoped root(spans, "bench", "serve_aged_ledger");
  EndToEnd e2e;
  const std::string dir = options.out_dir + "/serve-" +
                          std::to_string(::getpid()) +
                          (spans != nullptr ? "-traced" : "");
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/d.sock";
  const std::string ledger = dir + "/ledger.jsonl";
  const std::string trace = dir + "/daemon-trace.json";

  // Inputs, not product set-up: the aged ledger and, per class, the
  // counters a direct run of its spec yields.
  const std::string aged = aged_ledger(options.seed, kAgedRecords);
  write_file(ledger, aged);
  std::vector<Class> classes;
  for (serve::RequestClass cls : serve::default_mix(/*quick=*/false)) {
    // Wire seeds travel as JSON numbers: keep them below 2^53.
    cls.spec.seed = Rng::derive_stream_seed(options.seed, classes.size()) >> 11;
    serve::CampaignRunHooks hooks;
    hooks.jobs = kJobs;
    const serve::CampaignOutcome direct = serve::run_campaign_spec(cls.spec, hooks);
    classes.push_back(
        {cls, serve::campaign_spec_record(cls.spec, direct).counters});
  }

  serve::ServerConfig cfg;
  cfg.socket_path = socket;
  cfg.jobs = kJobs;
  cfg.max_queue = 64;
  cfg.ledger_path = ledger;
  if (spans != nullptr) cfg.trace_path = trace;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setups;
  std::uint64_t daemon_epoch_ns = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    if (server != nullptr) {
      server->request_stop();
      server->wait();
      server.reset();
    }
    const Scoped s(spans, "serve", "start + first ping", root.id());
    const std::uint64_t t0 = now_ns();
    server = std::make_unique<serve::Server>(cfg);
    daemon_epoch_ns = now_ns();
    server->start();
    serve::Client::connect_unix(socket).ping();
    setups.push_back(ms_since(t0) / 1e3);
  }
  e2e.setup_s = median(setups);

  std::vector<double> ping_ms;
  if (spans != nullptr) {
    const Scoped s(spans, "serve", "ping probe", root.id());
    serve::Client client = serve::Client::connect_unix(socket);
    for (int i = 0; i < kPingProbes; ++i) {
      const std::uint64_t t0 = now_ns();
      client.ping();
      ping_ms.push_back(ms_since(t0));
    }
  }

  const auto open_count = static_cast<std::size_t>(
      std::ceil(kOpenRate * seconds * kOpenShare));
  const auto closed_count =
      static_cast<std::size_t>(std::ceil(kClosedPerSecond * seconds));
  std::vector<Sample> warmup, open, closed;
  std::uint64_t depth_max = 0;
  double closed_s = 0.0;
  // Ledger check after each round: the aged records plus one per
  // request the daemon completed in the round, every line parseable.
  std::uint64_t completed = 0;
  std::uintmax_t ledger_bytes = 0;  // Largest the ledger grew to.
  const auto check_ledger = [&] {
    const std::uint64_t now = server->status().completed;
    ledger_bytes = std::max(ledger_bytes, std::filesystem::file_size(ledger));
    try {
      const std::size_t records = obs::read_ledger(ledger).size();
      report.check(records == kAgedRecords + (now - completed),
                   "ledger holds " + std::to_string(records) +
                       " records, expected " +
                       std::to_string(kAgedRecords + now - completed));
    } catch (const std::exception& e) {
      report.fail(std::string("ledger unreadable: ") + e.what());
    }
    completed = now;
    write_file(ledger, aged);  // The daemon is idle between rounds.
  };
  check_ledger();
  {
    Generator gen(socket, classes, report, spans);
    {
      const Scoped phase(spans, "load", "warm-up", root.id());
      warmup = gen.closed_loop("w-", kWarmupRequests, phase.id());
    }
    check_ledger();
    const std::size_t open_round = (open_count + kCycles - 1) / kCycles;
    const std::size_t closed_round = (closed_count + kCycles - 1) / kCycles;
    for (std::size_t round = 0; round < kCycles; ++round) {
      const std::string tag = std::to_string(round) + "-";
      if (const std::size_t n =
              std::min(open_round, open_count - open.size())) {
        const Scoped phase(spans, "load", "open loop", root.id());
        std::vector<Sample> part =
            gen.open_loop("o" + tag, n, kOpenRate, phase.id());
        open.insert(open.end(), part.begin(), part.end());
        check_ledger();
      }
      if (const std::size_t n =
              std::min(closed_round, closed_count - closed.size())) {
        const Scoped phase(spans, "load", "closed loop", root.id());
        const std::uint64_t t0 = now_ns();
        std::vector<Sample> part = gen.closed_loop("c" + tag, n, phase.id());
        closed_s += ms_since(t0) / 1e3;
        closed.insert(closed.end(), part.begin(), part.end());
        check_ledger();
      }
    }
    depth_max = gen.queue_depth_max();
  }
  server->request_stop();
  server->wait();
  const serve::ServerStatus status = server->status();
  server.reset();
  const std::size_t sent = warmup.size() + open.size() + closed.size();
  report.check(status.completed == sent,
               "daemon completed " + std::to_string(status.completed) +
                   " of " + std::to_string(sent));

  const std::vector<double> open_ms = latencies(open);
  e2e.p50_ms = median(open_ms);
  e2e.tail_quantile = kTailQuantile;
  e2e.tail_ms = quantile(open_ms, kTailQuantile);
  std::uint64_t closed_ok = 0;
  for (const Sample& s : closed) closed_ok += s.ok ? 1 : 0;
  e2e.throughput_per_s = static_cast<double>(closed_ok) / closed_s;
  std::size_t misses = 0;
  for (const double ms : open_ms) misses += ms > kLatencyLimitMs ? 1 : 0;
  const double limit_ms = quantile(open_ms, kLimitQuantile);
  std::cout << "serve_aged_ledger: " << open.size() << " open-loop requests at "
            << kOpenRate << "/s, p99 " << limit_ms << " ms, " << misses
            << " beyond the " << kLatencyLimitMs << " ms limit; "
            << closed.size()
            << " closed-loop requests in " << closed_s << " s; daemon "
            << "completed " << status.completed << ", shed "
            << status.rejected_overload << "\n";

  if (layers != nullptr) {
    std::ifstream in(trace);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue daemon_trace = parse_json(text.str());
    const DaemonFigures fig =
        daemon_spans(daemon_trace, daemon_epoch_ns, warmup, open, closed,
                     *spans);
    spans->import_chrome(daemon_trace, daemon_epoch_ns / 1000);
    // obs.ledger_append_ms: the daemon's per-request ledger work —
    // a lenient scan for the next run id plus the append — on a
    // private copy of the aged ledger.
    const std::string copy = dir + "/append-probe.jsonl";
    write_file(copy, aged);
    std::vector<double> append_ms;
    obs::LedgerRecord record;
    record.command = "campaign";
    record.workload = "secded";
    record.counters = classes[0].expected;
    for (int i = 0; i < kAppendProbes; ++i) {
      const Scoped s(spans, "obs", "scan_ledger + append_ledger", root.id());
      const std::uint64_t t0 = now_ns();
      record.id = "run-" + std::to_string(obs::scan_ledger(copy).records.size());
      obs::append_ledger(record, copy);
      append_ms.push_back(ms_since(t0));
    }
    std::vector<double> late_ms;
    for (const Sample& s : open) late_ms.push_back(ms_between(s.due_ns, s.sent_ns));
    layers->push_back({"serve.queue_ms_p50", median(fig.queue_ms), "ms"});
    layers->push_back({"serve.queue_ms_p99", quantile(fig.queue_ms, 0.99), "ms"});
    layers->push_back({"serve.run_ms_p50", median(fig.run_ms), "ms"});
    layers->push_back({"exec.dispatch_ms_p50", median(fig.dispatch_ms), "ms"});
    layers->push_back({"serve.flush_ms_p50", median(fig.flush_ms), "ms"});
    layers->push_back({"serve.flush_ms_p99", quantile(fig.flush_ms, 0.99), "ms"});
    layers->push_back({"obs.ledger_append_ms", median(append_ms), "ms"});
    layers->push_back({"serve.ping_rtt_ms_p50", median(ping_ms), "ms"});
    layers->push_back({"serve.open_p50_ms", e2e.p50_ms, "ms"});
    layers->push_back({"serve.open_p95_ms", e2e.tail_ms, "ms"});
    layers->push_back({"serve.capacity_rps", e2e.throughput_per_s, "1/s"});
    layers->push_back({"serve.open_p99_ms", limit_ms, "ms"});
    layers->push_back(
        {"serve.small_p99_ms", quantile(latencies(open, 0), 0.99), "ms"});
    layers->push_back(
        {"serve.large_p99_ms", quantile(latencies(open, 2), 0.99), "ms"});
    layers->push_back({"serve.queue_depth_max",
                       static_cast<double>(depth_max), "count"});
    layers->push_back({"obs.ledger_bytes",
                       static_cast<double>(ledger_bytes),
                       "bytes"});
    layers->push_back({"load.late_ms_p99", quantile(late_ms, 0.99), "ms"});
  }
  std::filesystem::remove_all(dir);  // Ledgers, socket, daemon trace.
  return e2e;
}

}  // namespace perfbench
