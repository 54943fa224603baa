// veccost_bench — the benchmark's in-process harness (benchmark/README.md).
//
// benchmark/run.py owns processes, whole-invocation timing and the hermetic
// environment; this program does the parts that need the library:
//
//   veccost_bench preseed --dir D --seed S --rows N
//       fill a serve cache with N measure results, one unique n per row
//   veccost_bench warm --port P
//       the daemon's warm pass: every suite kernel x {predict, measure, select}
//   veccost_bench load --port P --seed S --variant hot|cold --first I
//                      --phases open:RATE:SECONDS,closed:REQUESTS,...
//                      --digest 0|1 [--scratch D]
//       drive the daemon with phases of the request stream from index I on,
//       and record when each request went out and when its answer came back;
//       with --digest 1, also the open phases' digest and an in-process
//       replay's
//   veccost_bench trace --seed S --variant hot|cold --verify-n N --scratch D
//       per-layer timings: calls into each layer's public functions, timed
//       from outside, and the sums the coverage guards compare
//   veccost_bench tune-digest --seed S --scratch D
//       digest of an in-process tune_suite, the reference for `veccost tune`
//
// Every command prints one JSON object on stdout; run.py computes the
// metrics from it and applies the checks. Nothing here adds instruments to
// the program: spans inside src/ are a separate change.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/measurement.hpp"
#include "eval/session.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/exec_engine.hpp"
#include "machine/executor.hpp"
#include "machine/perf_model.hpp"
#include "machine/targets.hpp"
#include "machine/workload_pool.hpp"
#include "serve/kernel_cache.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tsvc/kernel.hpp"
#include "tsvc/workload.hpp"
#include "tune/corpus.hpp"
#include "tune/surrogate.hpp"
#include "tune/tuner.hpp"
#include "vectorizer/loop_vectorizer.hpp"
#include "xform/analysis_manager.hpp"
#include "xform/pipeline.hpp"

namespace {

using namespace veccost;
using support::Json;
using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

// Load shape (benchmark/README.md): one generator thread, 4 pipelined
// connections — the machine the benchmark was defined on has 4 cores.
constexpr int kConns = 4;
/// Closed-loop requests in flight per connection: 32 in all, two of the
/// daemon's default 16-request batches.
constexpr std::int64_t kWindow = 8;
/// How long a phase waits for stragglers after its last request was due.
constexpr auto kDrainTimeout = 10s;
/// The generator busy-polls through waits shorter than this.
constexpr auto kSpin = 2ms;

/// serve_cold measure requests carry n = kColdBase + seed offset + index:
/// unique within a run, so every one of them misses the cache.
constexpr std::int64_t kColdBase = 4096;
/// Pre-seeded rows use n = kPreseedBase + row, disjoint from every stream n.
constexpr std::int64_t kPreseedBase = std::int64_t{1} << 24;
constexpr std::uint64_t kPreseedSalt = 0x70726573656564ull;  // "preseed"

/// Passes of each traced layer set; its timings and coverage ratios are
/// medians over them, so a slow stretch of the machine during one pass
/// moves neither.
constexpr int kPasses = 12;

/// Requests replayed in-process by `trace` (about 1,000 selects, the rarest
/// verb, so each verb's p99 has at least 10 samples beyond it).
constexpr std::int64_t kTraceRequests = 10000;

// ---------------------------------------------------------------------------
// Small utilities

class Args {
 public:
  Args(int argc, char** argv) {
    if ((argc - 2) % 2 != 0) throw Error("every flag takes one value");
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw Error("expected a --flag, got " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw Error("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::int64_t i64(const std::string& key) const {
    return std::stoll(str(key));
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }
  [[nodiscard]] bool cold() const {
    const std::string& v = str("variant");
    if (v != "hot" && v != "cold") throw Error("--variant is hot or cold");
    return v == "cold";
  }

 private:
  std::map<std::string, std::string> values_;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Lap timer: lap() returns milliseconds since the previous lap.
class Timer {
 public:
  double lap() {
    const Clock::time_point now = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - t_).count();
    t_ = now;
    return ms;
  }

 private:
  Clock::time_point t_ = Clock::now();
};

/// Nearest-rank percentile, q in (0, 1]; +inf for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::infinity();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// JSON number, or null for a value JSON cannot carry (no samples).
Json num(double v) { return std::isfinite(v) ? Json(v) : Json(); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Run `f` on a new thread and return its result. Thread-local state in the
/// library (lowered-program caches, execution contexts, workload pools)
/// starts empty there, as it does in a fresh `veccost` process.
template <class F>
auto on_fresh_thread(F&& f) -> decltype(f()) {
  decltype(f()) result{};
  std::exception_ptr error;
  std::thread t([&] {
    try {
      result = f();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
  return result;
}

// ---------------------------------------------------------------------------
// The request stream

/// Request i is a pure function of (seed, variant, i). The verb and kernel
/// draws are serve::loadgen_request_line's (60/30/10 predict/measure/select
/// over the suite), with the printed kernels computed once instead of per
/// request; cold streams also give each measure request its own n.
class Stream {
 public:
  Stream(std::uint64_t seed, bool cold) : seed_(seed), cold_(cold) {
    for (const tsvc::KernelInfo& info : tsvc::suite())
      texts_.push_back(ir::print(info.build()));
  }

  [[nodiscard]] serve::Request request(std::int64_t index) const {
    SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ull *
                           (static_cast<std::uint64_t>(index) + 1)));
    const std::uint64_t verb_draw = sm.next() % 10;
    const std::uint64_t kernel_draw = sm.next();
    serve::Request r;
    r.id = std::to_string(index);
    r.verb = verb_draw < 6   ? serve::Verb::Predict
             : verb_draw < 9 ? serve::Verb::Measure
                             : serve::Verb::Select;
    r.kernel = texts_[kernel_draw % texts_.size()];
    if (cold_ && r.verb == serve::Verb::Measure)
      r.n = kColdBase + static_cast<std::int64_t>(seed_ % 65536) + index;
    return r;
  }

  [[nodiscard]] std::string line(std::int64_t index) const {
    return serve::serialize_request(request(index));
  }

  /// The hot stream must be the library loadgen's stream, byte for byte.
  void check_matches_loadgen() const {
    if (cold_) return;
    serve::LoadgenOptions opts;
    opts.seed = seed_;
    for (std::int64_t i = 0; i < 16; ++i)
      if (line(i) != serve::loadgen_request_line(opts, i))
        throw Error("request stream drifted from serve::loadgen_request_line");
  }

  [[nodiscard]] const std::vector<std::string>& texts() const { return texts_; }

 private:
  std::uint64_t seed_;
  bool cold_;
  std::vector<std::string> texts_;
};

/// What the daemon answers for one work request line, minus the transport:
/// Server::handle_line's parse and admission, then run_job's execute.
std::string serve_in_process(const serve::CostService& service,
                             const std::string& line) {
  const serve::RequestParse parse = serve::parse_request(line);
  if (!parse.ok)
    return serve::to_line(serve::error_response(
        parse.request.id, parse.verb_name, serve::ErrorCode::BadRequest,
        parse.error));
  serve::CostService::Admission adm = service.admit(parse.request);
  if (!adm.ok) return serve::to_line(adm.error);
  return serve::to_line(service.execute(adm.job));
}

// ---------------------------------------------------------------------------
// Event-loop client

/// Non-blocking pipelined client over loopback connections, driven by one
/// thread. Responses are matched to requests by id, so a connection may have
/// any number of requests in flight.
class Client {
 public:
  using OnLine =
      std::function<void(int conn, std::string_view line, Clock::time_point)>;

  Client(std::uint16_t port, int n) : conns_(static_cast<std::size_t>(n)) {
    try {
      for (Conn& c : conns_) {
        c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (c.fd < 0) throw Error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0)
          throw Error("cannot connect to port " + std::to_string(port));
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      }
    } catch (...) {
      close_all();
      throw;
    }
    fds_.resize(conns_.size());
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(conns_.size()); }

  [[nodiscard]] bool broken() const {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.broken; });
  }

  void send(int conn, const std::string& line) {
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    c.out += line;
    c.out += '\n';
    flush(c);
  }

  /// Wait until `until` or until something arrives, whichever is first;
  /// deliver every complete response line with the time it was read.
  void pump(Clock::time_point until, const OnLine& on_line) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = conns_[i];
      fds_[i].fd = c.broken ? -1 : c.fd;
      fds_[i].events = static_cast<short>(
          POLLIN | (c.out_pos < c.out.size() ? POLLOUT : 0));
      fds_[i].revents = 0;
    }
    auto wait = until - Clock::now();
    // Waits shorter than kSpin spin: a sleeping thread wakes late by timer
    // slack plus, on a virtual machine, the host's rescheduling of an idle
    // vCPU, and that lateness would land in every open-loop latency.
    if (wait < kSpin) wait = Clock::duration::zero();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds_.data(), fds_.size(), &ts, nullptr) <= 0) return;
    const Clock::time_point t = Clock::now();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds_[i].revents & POLLOUT) flush(conns_[i]);
      if (fds_[i].revents & (POLLIN | POLLHUP | POLLERR))
        drain(static_cast<int>(i), t, on_line);
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
    bool broken = false;
  };

  void close_all() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(std::exchange(c.fd, -1));
  }

  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (!(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)))
          c.broken = true;
        return;
      }
    }
    c.out.clear();
    c.out_pos = 0;
  }

  void drain(int conn, Clock::time_point t, const OnLine& on_line) {
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (!(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)))
          c.broken = true;  // 0 = the daemon closed the connection
        break;
      }
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1)
      on_line(conn, std::string_view(c.in).substr(start, nl - start), t);
    c.in.erase(0, start);
  }

  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;
};

/// Stream index of a response, from its id; -1 for a line that is not an
/// answer to one of our numbered requests.
std::int64_t response_index(std::string_view line) {
  static const std::string prefix =
      std::string(R"({"v":")") + serve::kServeSchema + R"(","id":")";
  if (line.substr(0, prefix.size()) != prefix) return -1;
  std::int64_t v = 0;
  std::size_t i = prefix.size();
  const std::size_t digits_from = i;
  for (; i < line.size() && i - digits_from < 18 && line[i] >= '0' &&
         line[i] <= '9';
       ++i)
    v = v * 10 + (line[i] - '0');
  if (i == digits_from || i >= line.size() || line[i] != '"') return -1;
  return v;
}

bool response_ok(std::string_view line) {
  return line.find(R"(,"ok":true,)") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Load phases

/// One phase's per-request record, indexed from the phase's first request.
/// Times are microseconds from the phase's start: for an open loop the
/// moment request 0 was due (request i is due at i / rate), for a closed
/// loop the moment the first request went out. run.py turns these into
/// latencies, lateness and rates.
struct Phase {
  bool open = true;
  double rate = 0;     ///< open loop: requests per second
  double seconds = 0;  ///< how long requests were sent
  std::int64_t first = 0;  ///< stream index of request 0
  std::vector<double> sent_us;
  std::vector<double> done_us;         ///< -1: failed, refused or unanswered
  std::vector<char> answered;
  std::vector<std::string> responses;  ///< kept when the phase is digested
  std::int64_t measures = 0;           ///< ok measure responses
  std::int64_t cached = 0;             ///< ... of which served from cache
  std::int64_t stray = 0;              ///< unmatched or duplicate responses
  std::int64_t unanswered = 0;

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(sent_us.size());
  }

  void add_request(double sent, bool keep) {
    sent_us.push_back(sent);
    done_us.push_back(-1);
    answered.push_back(0);
    ++unanswered;
    if (keep) responses.emplace_back();
  }

  /// Record the response `line`, read `t_us` into the phase.
  void record(std::string_view line, double t_us) {
    const std::int64_t i = response_index(line) - first;
    if (i < 0 || i >= size() || answered[static_cast<std::size_t>(i)]) {
      ++stray;
      return;
    }
    const auto k = static_cast<std::size_t>(i);
    answered[k] = 1;
    --unanswered;
    const bool ok = response_ok(line);
    done_us[k] = ok ? t_us : -1;
    if (ok && line.find(R"("verb":"measure")") != std::string_view::npos) {
      ++measures;
      if (line.find(R"("cached":true)") != std::string_view::npos) ++cached;
    }
    if (!responses.empty()) responses[k] = std::string(line);
  }

  [[nodiscard]] Json to_json() const {
    const auto times = [](const std::vector<double>& v) {
      Json a = Json::array();
      for (const double x : v) a.push(std::round(x * 1e3) / 1e3);
      return a;
    };
    Json j = Json::object();
    j.set("rate", rate);
    j.set("seconds", seconds);
    j.set("sent_us", times(sent_us));
    j.set("done_us", times(done_us));
    j.set("measures", measures);
    j.set("cached", cached);
    j.set("stray", stray);
    return j;
  }
};

using LineFn = std::function<std::string(std::int64_t index)>;

/// Open loop: request i is due at i / rate whatever happened before it, so
/// a stall also delays the requests that queue behind it.
Phase open_loop(Client& client, const LineFn& line, std::int64_t first,
                double rate, double seconds, bool keep) {
  Phase ph;
  ph.first = first;
  ph.rate = rate;
  ph.seconds = seconds;
  const auto count = std::max<std::int64_t>(1, std::llround(rate * seconds));
  const Clock::time_point start = Clock::now() + 5ms;
  const auto due = [&](std::int64_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * 1e9 / rate));
  };
  const Client::OnLine on_line = [&](int, std::string_view text,
                                     Clock::time_point t) {
    ph.record(text, us_between(start, t));
  };
  const Clock::time_point give_up = due(count) + kDrainTimeout;
  while ((ph.size() < count || ph.unanswered > 0) && !client.broken()) {
    const Clock::time_point now = Clock::now();
    if (now > give_up) break;
    while (ph.size() < count && due(ph.size()) <= now) {
      client.send(static_cast<int>(ph.size() % client.size()),
                  line(first + ph.size()));
      ph.add_request(us_between(start, Clock::now()), keep);
    }
    client.pump(ph.size() < count ? due(ph.size()) : now + 50ms, on_line);
  }
  return ph;
}

/// Closed loop: kWindow requests in flight per connection, each response
/// releasing the next request on its connection, until `count` requests were
/// sent. A fixed count (not a fixed time) keeps the work, and serve_cold's
/// cache growth, the same in every run. `seconds` becomes the time from the
/// first send to the last answer.
Phase closed_loop(Client& client, const LineFn& line, std::int64_t first,
                  std::int64_t count) {
  Phase ph;
  ph.open = false;
  ph.first = first;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  const auto send_next = [&](int conn) {
    if (ph.size() >= count) return;
    const std::string text = line(first + ph.size());
    ph.add_request(us_between(start, Clock::now()), false);
    client.send(conn, text);
  };
  const Client::OnLine on_line = [&](int conn, std::string_view text,
                                     Clock::time_point t) {
    ph.record(text, us_between(start, t));
    last = t;
    send_next(conn);
  };
  for (int c = 0; c < client.size(); ++c)
    for (std::int64_t w = 0; w < kWindow; ++w) send_next(c);
  while (ph.unanswered > 0 && !client.broken()) {
    const Clock::time_point now = Clock::now();
    if (now > last + kDrainTimeout) break;
    client.pump(now + 50ms, on_line);
  }
  ph.seconds = us_between(start, last) / 1e6;
  return ph;
}

/// Index-ordered FNV-1a over (request line, normalized response) — the
/// digest serve::run_loadgen computes — over the given phases.
std::uint64_t daemon_digest(const Stream& stream,
                            const std::vector<const Phase*>& phases) {
  support::Fnv1a f;
  for (const Phase* ph : phases)
    for (std::int64_t i = 0; i < ph->size(); ++i) {
      f.add(stream.line(ph->first + i));
      const std::string& r = ph->responses[static_cast<std::size_t>(i)];
      if (r.empty()) {
        f.add("<transport-failure>");
        continue;
      }
      try {
        f.add(serve::digest_normalized_response(r));
      } catch (const std::exception&) {
        f.add("<transport-failure>");
      }
    }
  return f.value();
}

/// The same digest with every response computed in-process by a fresh
/// CostService caching into `dir`.
std::uint64_t replay_digest(const Stream& stream,
                            const std::vector<const Phase*>& phases,
                            const std::string& dir) {
  serve::CostService::Options opts;
  opts.cache_dir = dir;
  const serve::CostService service(opts);
  support::Fnv1a f;
  for (const Phase* ph : phases)
    for (std::int64_t i = 0; i < ph->size(); ++i) {
      const std::string line = stream.line(ph->first + i);
      f.add(line);
      f.add(serve::digest_normalized_response(serve_in_process(service, line)));
    }
  return f.value();
}

// ---------------------------------------------------------------------------
// Commands

int cmd_preseed(const Args& args) {
  const std::int64_t rows = args.i64("rows");
  serve::CostService::Options opts;
  opts.cache_dir = args.str("dir");
  const serve::CostService service(opts);
  const Stream stream(args.u64("seed") ^ kPreseedSalt, false);
  std::int64_t failed = 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    serve::Request r = stream.request(i);
    r.verb = serve::Verb::Measure;
    r.n = kPreseedBase + i;
    const serve::CostService::Admission adm = service.admit(r);
    if (!adm.ok || !service.execute(adm.job).get_bool("ok", false)) ++failed;
  }
  Json out = Json::object();
  out.set("rows", rows);
  out.set("entries", service.cache().size());
  out.set("failed", failed);
  std::cout << out.dump() << '\n';
  return 0;
}

int cmd_warm(const Args& args) {
  const Stream stream(0, false);
  const auto& texts = stream.texts();
  const serve::Verb verbs[] = {serve::Verb::Predict, serve::Verb::Measure,
                               serve::Verb::Select};
  const auto count = static_cast<std::int64_t>(texts.size() * 3);
  const LineFn line = [&](std::int64_t i) {
    serve::Request r;
    r.id = std::to_string(i);
    r.verb = verbs[i % 3];
    r.kernel = texts[static_cast<std::size_t>(i / 3)];
    return serve::serialize_request(r);
  };
  Client client(static_cast<std::uint16_t>(args.i64("port")), kConns);
  const Phase ph = closed_loop(client, line, 0, count);
  Json out = Json::object();
  out.set("requests", count);
  out.set("failed",
          std::count(ph.done_us.begin(), ph.done_us.end(), -1.0) +
              (count - ph.size()));
  std::cout << out.dump() << '\n';
  return 0;
}

/// `--phases` is a comma-separated list of `open:<rate>:<seconds>` and
/// `closed:<requests>`, run in order over one set of fresh connections.
/// With `--digest 1` the open phases' responses are digested and replayed
/// in-process (into --scratch) for comparison.
int cmd_load(const Args& args) {
  const Stream stream(args.u64("seed"), args.cold());
  stream.check_matches_loadgen();
  const LineFn line = [&](std::int64_t i) { return stream.line(i); };
  const bool digest = args.i64("digest") != 0;
  Client client(static_cast<std::uint16_t>(args.i64("port")), kConns);

  std::vector<Phase> phases;
  std::int64_t next = args.i64("first");
  std::istringstream spec(args.str("phases"));
  for (std::string item; std::getline(spec, item, ',');) {
    std::vector<std::string> f;
    std::istringstream parts(item);
    for (std::string part; std::getline(parts, part, ':');) f.push_back(part);
    if (f.size() == 3 && f[0] == "open")
      phases.push_back(open_loop(client, line, next, std::stod(f[1]),
                                 std::stod(f[2]), digest));
    else if (f.size() == 2 && f[0] == "closed")
      phases.push_back(closed_loop(client, line, next, std::stoll(f[1])));
    else
      throw Error("bad phase '" + item + "'");
    next += phases.back().size();
  }

  Json out = Json::object();
  Json list = Json::array();
  std::vector<const Phase*> digested;
  for (const Phase& ph : phases) {
    list.push(ph.to_json());
    if (digest && ph.open) digested.push_back(&ph);
  }
  out.set("phases", std::move(list));
  if (digest) {
    out.set("digest", hex64(daemon_digest(stream, digested)));
    out.set("replay_digest",
            hex64(replay_digest(stream, digested, args.str("scratch"))));
  }
  std::cout << out.dump() << '\n';
  return 0;
}

int cmd_tune_digest(const Args& args) {
  eval::SessionOptions so;
  so.jobs = 1;
  so.cache_dir = args.str("scratch");
  const eval::Session session(machine::target_by_name("cortex-a57"), so);
  tune::TuneOptions opts;
  opts.seed = args.u64("seed");
  Json out = Json::object();
  out.set("digest", tune::digest_hex(tune::tune_suite(session, opts).digest));
  std::cout << out.dump() << '\n';
  return 0;
}

// ---- trace: the verify layers ---------------------------------------------

/// validate_kernel_semantics re-enacted call by call, each layer's public
/// function timed (milliseconds, summed over kernels), next to the composite
/// call timed directly.
struct VerifyPass {
  double build = 0, acquire = 0, lower = 0, exec_scalar = 0, legality = 0,
         vectorize = 0, exec_vector = 0, compare = 0;
  double direct = 0;  ///< validate_kernel_semantics itself
  std::uint64_t pool_builds = 0, pool_resets = 0;
  int configs = 0, direct_configs = 0;

  [[nodiscard]] double layers() const {
    return build + acquire + lower + exec_scalar + legality + vectorize +
           exec_vector + compare;
  }
};

/// The re-enactment of validate_kernel_semantics for one kernel.
void verify_layers(const tsvc::KernelInfo& info,
                   const machine::TargetDesc& target, std::int64_t n,
                   machine::WorkloadPool& pool, VerifyPass& v) {
  Timer t;
  const ir::LoopKernel scalar = info.build();
  v.build += t.lap();
  xform::AnalysisManager analyses;
  machine::Workload& ws = pool.acquire(scalar, n, 0x5eed, 0);
  v.acquire += t.lap();
  machine::BatchRunner runner(scalar);
  v.lower += t.lap();
  const machine::ExecResult rs = runner.run(ws);
  v.exec_scalar += t.lap();
  std::vector<int> tried;
  for (const int requested : {0, 2, 8}) {
    vectorizer::LoopVectorizerOptions opts;
    opts.requested_vf = requested;
    t.lap();
    const analysis::Legality& legality =
        analyses.legality(scalar, opts.legality);
    v.legality += t.lap();
    const vectorizer::VectorizedLoop vec =
        vectorizer::vectorize_legal(scalar, target, opts, legality);
    v.vectorize += t.lap();
    if (!vec.ok || vec.runtime_check ||
        std::find(tried.begin(), tried.end(), vec.vf) != tried.end())
      continue;
    tried.push_back(vec.vf);
    machine::Workload& wv = pool.acquire(scalar, n, 0x5eed, 1);
    v.acquire += t.lap();
    const machine::ExecResult rv =
        machine::execute_vectorized(vec.kernel, scalar, wv);
    v.exec_vector += t.lap();
    const double diff = tsvc::max_abs_difference(ws, wv);
    v.compare += t.lap();
    bool same = diff == 0.0 && rs.iterations == rv.iterations &&
                rs.live_outs.size() == rv.live_outs.size();
    for (std::size_t i = 0; same && i < rs.live_outs.size(); ++i)
      same = std::abs(rv.live_outs[i] - rs.live_outs[i]) <=
             1e-2 * std::max(1.0, std::abs(rs.live_outs[i]));
    if (!same) throw Error("verify replica diverged on " + info.name);
    ++v.configs;
  }
}

/// One jobs-1 pass over the suite. Re-enactment and composite call
/// alternate kernel by kernel, so a slow stretch of the machine lands on
/// both; each has its own workload pool, empty at the start like a cold
/// process's. Which goes first alternates too, because the second finds the
/// kernel's programs in the thread's lowered-program cache.
VerifyPass verify_pass(const machine::TargetDesc& target, std::int64_t n) {
  VerifyPass v;
  machine::WorkloadPool replica_pool, direct_pool;
  const auto& suite = tsvc::suite();
  for (std::size_t k = 0; k < suite.size(); ++k) {
    const auto direct = [&] {
      Timer t;
      v.direct_configs +=
          eval::validate_kernel_semantics(suite[k], target, direct_pool, n)
              .configurations;
      v.direct += t.lap();
    };
    if (k % 2 == 1) direct();
    verify_layers(suite[k], target, n, replica_pool, v);
    if (k % 2 == 0) direct();
  }
  v.pool_builds = replica_pool.builds();
  v.pool_resets = replica_pool.resets();
  return v;
}

void trace_verify(const machine::TargetDesc& target, std::int64_t n,
                  Json& m, Json& checks) {
  // An unmeasured pass takes the process's own first-use costs (the suite
  // registry, allocator arenas), which a fresh thread does not reset.
  (void)on_fresh_thread([&] { return verify_pass(target, n); });
  std::vector<VerifyPass> passes;
  std::vector<double> direct, coverage;
  for (int r = 0; r < kPasses; ++r) {
    passes.push_back(on_fresh_thread([&] { return verify_pass(target, n); }));
    direct.push_back(passes.back().direct);
    coverage.push_back(passes.back().layers() / passes.back().direct);
  }
  const auto med = [&](double VerifyPass::*field) {
    std::vector<double> v;
    for (const VerifyPass& p : passes) v.push_back(p.*field);
    return median(v);
  };

  m.set("tsvc.build_ms", med(&VerifyPass::build));
  m.set("machine.pool_acquire_ms", med(&VerifyPass::acquire));
  m.set("machine.lower_ms", med(&VerifyPass::lower));
  m.set("machine.exec_scalar_ms", med(&VerifyPass::exec_scalar));
  m.set("analysis.legality_ms", med(&VerifyPass::legality));
  m.set("vectorizer.vectorize_ms", med(&VerifyPass::vectorize));
  m.set("machine.exec_vector_ms", med(&VerifyPass::exec_vector));
  m.set("tsvc.compare_ms", med(&VerifyPass::compare));
  m.set("eval.validate_ms", median(direct));
  m.set("machine.pool_builds", passes.front().pool_builds);
  m.set("machine.pool_resets", passes.front().pool_resets);
  m.set("eval.validate_configs", passes.front().direct_configs);
  m.set("coverage.verify", median(coverage));
  checks.set("verify_configs_replica", passes.front().configs);
}

// ---- trace: the tune layers -----------------------------------------------

/// tune_suite re-enacted at jobs 1 with each stage timed (milliseconds).
struct TuneLayers {
  double suite_measure = 0, fit = 0, kernel = 0, specs = 0;
  std::size_t spec_measurements = 0, scored = 0, measured = 0, rejected = 0;
  std::uint64_t digest = 0;
  /// Every MeasureBatch call the search made: (kernel, specs).
  std::vector<std::pair<std::string, std::vector<std::string>>> batches;
};

eval::Session jobs1_session(const machine::TargetDesc& target,
                            const std::string& cache_dir) {
  eval::SessionOptions so;
  so.jobs = 1;
  so.use_cache = !cache_dir.empty();
  so.cache_dir = cache_dir;
  return eval::Session(target, so);
}

TuneLayers tune_layers(const machine::TargetDesc& target, std::uint64_t seed,
                       const std::string& dir) {
  TuneLayers l;
  const eval::Session session = jobs1_session(target, dir);
  tune::TuneOptions opts;
  opts.seed = seed;
  Timer t;
  eval::SuiteRequest req;
  req.noise = opts.noise;
  const eval::SuiteResult measured = session.measure(req);
  l.suite_measure = t.lap();
  const eval::FitExperiment fit = eval::experiment_fit_speedup(
      measured.suite, model::Fitter::NNLS, analysis::FeatureSet::Rated);
  const tune::Surrogate surrogate(target, fit.model);
  l.fit = t.lap();

  const tune::MeasureBatch measure = [&](const std::string& kernel,
                                         const std::vector<std::string>& specs) {
    std::vector<eval::SpecRequest> reqs;
    for (const std::string& s : specs) reqs.push_back({kernel, s});
    Timer mt;
    eval::SpecBatchResult r = session.measure_specs(reqs, opts.noise);
    l.specs += mt.lap();
    l.batches.emplace_back(kernel, specs);
    return r;
  };
  support::Fnv1a f;  // tune_suite's suite digest
  f.add(target.name);
  f.add_u64(seed);
  for (const tsvc::KernelInfo& info : tsvc::suite()) {
    Timer kt;
    const tune::KernelTuneResult r =
        tune::tune_kernel(info.build(), target, opts, surrogate, measure);
    l.kernel += kt.lap();
    l.scored += r.scored;
    l.measured += r.measured;
    l.rejected += r.rejected;
    l.spec_measurements += r.cache_misses;
    f.add(r.kernel);
    f.add_u64(r.digest);
  }
  l.digest = f.value();
  return l;
}

/// Replay recorded batches through measure_specs on a fresh jobs-1 session
/// (`dir` empty = caching off); milliseconds.
double replay_specs(const machine::TargetDesc& target, const TuneLayers& l,
                    const std::string& dir) {
  const eval::Session session = jobs1_session(target, dir);
  Timer t;
  for (const auto& [kernel, specs] : l.batches) {
    std::vector<eval::SpecRequest> reqs;
    for (const std::string& s : specs) reqs.push_back({kernel, s});
    (void)session.measure_specs(reqs);
  }
  return t.lap();
}

/// measure_spec's stages for every measured (kernel, spec) pair.
struct SpecStages {
  double parse = 0, pipeline_run = 0, perf_model = 0;
};

SpecStages replay_spec_stages(const machine::TargetDesc& target,
                              const TuneLayers& l) {
  SpecStages s;
  double sink = 0;
  for (const auto& [kernel, specs] : l.batches) {
    const ir::LoopKernel scalar = tsvc::find_kernel(kernel)->build();
    xform::AnalysisManager analyses;
    const std::int64_t n = scalar.default_n;
    for (const std::string& spec : specs) {
      Timer t;
      const xform::Pipeline pipe = xform::Pipeline::parse(spec);
      s.parse += t.lap();
      const xform::PipelineResult xr = pipe.run(scalar, target, analyses);
      s.pipeline_run += t.lap();
      if (!xr.ok) continue;
      const ir::LoopKernel& k = xr.state.kernel;
      sink += machine::measure_scalar_cycles(scalar, target, n);
      if (xr.state.runtime_check)
        sink += machine::measure_versioned_scalar_cycles(scalar, target, n);
      else if (k.vf > 1)
        sink += machine::measure_vector_cycles(k, scalar, target, n);
      else
        sink += machine::measure_scalar_cycles(k, target, n);
      s.perf_model += t.lap();
    }
  }
  if (!std::isfinite(sink)) throw Error("perf model returned a non-finite time");
  return s;
}

void trace_tune(const machine::TargetDesc& target, std::uint64_t seed,
                const std::string& scratch, Json& m, Json& checks) {
  // A whole tune_suite pass is as long as a slow stretch of the machine, so
  // the guard needs more passes than the timings.
  constexpr int kGuardPasses = 2 * kPasses;
  std::vector<TuneLayers> layers;
  std::vector<double> direct, spec_cache, parse, run, perf;
  std::uint64_t direct_digest = 0;
  for (int r = 0; r < kGuardPasses; ++r) {
    const std::string dir = scratch + "/tune-" + std::to_string(r);
    const auto replica = [&] {
      layers.push_back(on_fresh_thread(
          [&] { return tune_layers(target, seed, dir + "a"); }));
    };
    const auto composite = [&] {
      direct.push_back(on_fresh_thread([&] {
        const eval::Session session = jobs1_session(target, dir + "b");
        tune::TuneOptions opts;
        opts.seed = seed;
        Timer t;
        direct_digest = tune::tune_suite(session, opts).digest;
        return t.lap();
      }));
    };
    // The two sides take turns going first, so a trend in the machine's
    // speed favours neither.
    if (r % 2 == 0) {
      replica();
      composite();
    } else {
      composite();
      replica();
    }
  }
  // The search is deterministic: every pass made the same batches.
  const TuneLayers& first = layers.front();
  for (int r = 0; r < kPasses; ++r) {
    const std::string dir = scratch + "/replay-" + std::to_string(r);
    const double cached =
        on_fresh_thread([&] { return replay_specs(target, first, dir); });
    const double uncached =
        on_fresh_thread([&] { return replay_specs(target, first, ""); });
    spec_cache.push_back(cached - uncached);
    const SpecStages s =
        on_fresh_thread([&] { return replay_spec_stages(target, first); });
    parse.push_back(s.parse);
    run.push_back(s.pipeline_run);
    perf.push_back(s.perf_model);
  }
  const auto med = [&](double TuneLayers::*field) {
    std::vector<double> v;
    for (const TuneLayers& l : layers) v.push_back(l.*field);
    return median(v);
  };
  // The guard sums each side over two consecutive passes, one in each
  // order: whichever side goes second runs a few percent slower, and the
  // machine's speed can step between passes. The median over such pairs
  // is moved by neither.
  std::vector<double> self, replica_ms, coverage;
  for (const TuneLayers& l : layers) {
    self.push_back(l.kernel - l.specs);
    replica_ms.push_back(l.suite_measure + l.fit + l.kernel);
  }
  for (int r = 0; r + 1 < kGuardPasses; r += 2)
    coverage.push_back((replica_ms[r] + replica_ms[r + 1]) /
                       (direct[r] + direct[r + 1]));
  m.set("eval.suite_measure_ms", med(&TuneLayers::suite_measure));
  m.set("costmodel.fit_ms", med(&TuneLayers::fit));
  m.set("tune.kernel_ms", med(&TuneLayers::kernel));
  m.set("tune.search_self_ms", median(self));
  m.set("eval.measure_specs_ms", med(&TuneLayers::specs));
  m.set("eval.spec_cache_ms", median(spec_cache));
  m.set("xform.parse_ms", median(parse));
  m.set("xform.pipeline_run_ms", median(run));
  m.set("machine.perf_model_ms", median(perf));
  m.set("eval.spec_measurements", first.spec_measurements);
  m.set("tune.scored", first.scored);
  m.set("tune.measured", first.measured);
  m.set("tune.rejected", first.rejected);
  m.set("tune.prune_rate",
        1.0 - static_cast<double>(first.measured) /
                  static_cast<double>(std::max<std::size_t>(first.scored, 1)));
  m.set("tune.suite_ms", median(direct));
  m.set("coverage.tune", median(coverage));
  checks.set("tune_digest_replica", hex64(first.digest));
  checks.set("tune_digest_direct", hex64(direct_digest));
}

// ---- trace: the serve layers ----------------------------------------------

void trace_serve(const Stream& stream, bool cold, const std::string& scratch,
                 Json& m) {
  serve::CostService::Options opts;
  opts.cache_dir = scratch + "/serve-replay";
  const serve::CostService service(opts);
  // Warm the cache the way serve_hot's warm pass warms the daemon's.
  for (const std::string& text : cold ? std::vector<std::string>{}
                                      : stream.texts()) {
    serve::Request r;
    r.verb = serve::Verb::Measure;
    r.kernel = text;
    (void)service.execute(service.admit(r).job);
  }

  std::vector<double> parse, admit, parse_kernel, print, serialize, service_us;
  std::map<serve::Verb, std::vector<double>> execute;
  double replica_sum = 0, direct_sum = 0;
  for (std::int64_t i = 0; i < kTraceRequests; ++i) {
    const std::string line = stream.line(i);
    Timer t;
    const serve::RequestParse req = serve::parse_request(line);
    const double t_parse = t.lap() * 1e3;
    if (!req.ok) throw Error("stream request " + std::to_string(i) + ": " + req.error);
    // admit's stages re-enacted (kernel parse, target lookup, pipeline
    // parse, canonical print) and admit itself take turns going first,
    // because the second finds the kernel text in cache.
    double t_parse_kernel = 0, t_lookup = 0, t_print = 0, t_admit = 0;
    std::optional<serve::CostService::Admission> adm;
    const auto replica = [&] {
      Timer s;
      const ir::LoopKernel kernel = ir::parse_kernel(req.request.kernel);
      t_parse_kernel = s.lap() * 1e3;
      (void)machine::target_by_name("cortex-a57");
      (void)xform::Pipeline::parse(eval::kDefaultPipelineSpec);
      t_lookup = s.lap() * 1e3;
      (void)ir::print(kernel);
      t_print = s.lap() * 1e3;
    };
    const auto direct = [&] {
      Timer s;
      adm.emplace(service.admit(req.request));
      t_admit = s.lap() * 1e3;
    };
    if (i % 2 == 0) {
      replica();
      direct();
    } else {
      direct();
      replica();
    }
    if (!adm->ok) throw Error("stream request " + std::to_string(i) + " refused");
    t.lap();
    const Json response = service.execute(adm->job);
    const double t_execute = t.lap() * 1e3;
    const std::string out = serve::to_line(response);
    const double t_serialize = t.lap() * 1e3;
    if (!response.get_bool("ok", false))
      throw Error("stream request " + std::to_string(i) + " failed: " + out);

    parse.push_back(t_parse);
    parse_kernel.push_back(t_parse_kernel);
    print.push_back(t_print);
    admit.push_back(t_admit);
    execute[req.request.verb].push_back(t_execute);
    serialize.push_back(t_serialize);
    service_us.push_back(t_parse + t_admit + t_execute + t_serialize);
    replica_sum += t_parse_kernel + t_lookup + t_print + t_execute;
    direct_sum += t_admit + t_execute;
  }

  // KernelCache::store into a fresh directory, one distinct key per call.
  std::vector<double> store;
  {
    serve::KernelCache cache(scratch + "/serve-store");
    serve::CachedMeasurement cm;
    cm.vectorizable = true;
    cm.vf = 4;
    cm.scalar_cycles = 1000.5;
    cm.vector_cycles = 300.25;
    cm.measured_speedup = cm.scalar_cycles / cm.vector_cycles;
    cm.predicted_speedup = 3.0;
    for (std::uint64_t k = 1; k <= 2000; ++k) {
      Timer t;
      if (!cache.store(k * 0x9e3779b97f4a7c15ull, cm))
        throw Error("KernelCache::store failed");
      store.push_back(t.lap() * 1e3);
    }
  }

  const double service_p50 = median(service_us);
  m.set("serve.parse_us.p50", median(parse));
  m.set("serve.admit_us.p50", median(admit));
  m.set("ir.parse_kernel_us.p50", median(parse_kernel));
  m.set("ir.print_us.p50", median(print));
  const std::pair<serve::Verb, const char*> verbs[] = {
      {serve::Verb::Predict, "predict"},
      {serve::Verb::Measure, "measure"},
      {serve::Verb::Select, "select"}};
  for (const auto& [verb, name] : verbs) {
    const std::string base = std::string("serve.execute_") + name + "_us.";
    m.set(base + "p50", num(median(execute[verb])));
    m.set(base + "p99", num(percentile(execute[verb], 0.99)));
  }
  m.set("serve.serialize_us.p50", median(serialize));
  m.set("serve.service_us.p50", service_p50);
  m.set("serve.cache_store_us.p50", median(store));
  m.set("coverage.serve", replica_sum / direct_sum);
}

int cmd_trace(const Args& args) {
  const machine::TargetDesc& target = machine::target_by_name("cortex-a57");
  const std::string scratch = args.str("scratch");
  const Stream stream(args.u64("seed"), args.cold());
  Json m = Json::object();
  Json checks = Json::object();
  trace_verify(target, args.i64("verify-n"), m, checks);
  trace_tune(target, args.u64("seed"), scratch, m, checks);
  trace_serve(stream, args.cold(), scratch, m);
  Json out = Json::object();
  out.set("metrics", std::move(m));
  out.set("checks", std::move(checks));
  std::cout << out.dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw Error("usage: veccost_bench <command> [--flag value]...");
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "preseed") return cmd_preseed(args);
    if (cmd == "warm") return cmd_warm(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "tune-digest") return cmd_tune_digest(args);
    throw Error("unknown command: " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "veccost_bench: " << e.what() << '\n';
    return 1;
  }
}
