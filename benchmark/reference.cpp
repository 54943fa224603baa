// bench_reference — the benchmark's speed reference (benchmark/README.md).
//
// The machine the benchmark runs on can slow down by a factor of two for
// minutes at a time when other tenants load the host. run.py therefore times
// a fixed reference task next to every workload and reports end-to-end
// timings at reference speed. This program is that task. It shares no code
// with veccost, so no change to src/ can move it:
//
//   bench_reference work
//       a fixed CPU task shaped like a cold batch invocation: 4 threads, each
//       filling float arrays from an RNG, sweeping a small bytecode
//       interpreter over them, and churning a string-keyed map; then exits
//   bench_reference echo
//       a server with the daemon's shape and none of its work: one reader
//       thread per connection hands each request line to a queue, one
//       dispatcher thread answers it. Prints "serving on port N" when
//       ready; a line holding "shutdown" stops it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

constexpr int kThreads = 4;
constexpr int kReps = 25;    // about 10 ms per process on 4 idle cores
constexpr int kPollMs = 100;  // how stale the stop flag may look

// ---- work ------------------------------------------------------------------

std::uint64_t work(std::uint64_t seed) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  std::uint64_t sink = 0;
  const unsigned char program[] = {0, 1, 2, 3, 1, 4, 2, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<float> a(4096), b(4096), c(4096);
    for (std::vector<float>* v : {&a, &b, &c})
      for (float& f : *v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = static_cast<float>(x >> 40) * 1e-6f;
      }
    for (int pass = 0; pass < 4; ++pass)
      for (std::size_t i = 0; i < a.size(); ++i)
        for (const unsigned char op : program) switch (op) {
            case 0: a[i] = a[i] + b[i]; break;
            case 1: b[i] = b[i] * 0.5f + c[i]; break;
            case 2: c[i] = a[i] - c[i]; break;
            case 3: a[i] = a[i] * c[i]; break;
            default: c[i] = c[i] + 1.0f; break;
          }
    std::map<std::string, std::uint64_t> names;
    for (int i = 0; i < 200; ++i)
      names["kernel_" + std::to_string((x >> 3) % 1000) + "_" +
            std::to_string(i)] = x + static_cast<std::uint64_t>(i);
    for (std::size_t i = 0; i < a.size(); ++i) sink += a[i] != c[i];
    sink += names.size();
  }
  return sink;
}

int cmd_work() {
  std::vector<std::uint64_t> sums(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&sums, t] { sums[t] = work(t + 1); });
  for (std::thread& t : threads) t.join();
  std::uint64_t total = 0;
  for (const std::uint64_t s : sums) total += s;
  std::printf("%llu\n", static_cast<unsigned long long>(total));
  return 0;
}

// ---- echo ------------------------------------------------------------------

struct Connection {
  explicit Connection(int f) : fd(f) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send all of `line`; false once the peer is gone.
  bool write(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  const int fd;
  std::mutex write_mutex;
};

/// The answer to a request line: its id, echoed in the daemon's envelope.
std::string reply(const std::string& line) {
  static const std::string key = "\"id\":\"";
  std::string id;
  if (const std::size_t at = line.find(key); at != std::string::npos)
    for (std::size_t i = at + key.size(); i < line.size() && line[i] != '"';
         ++i)
      id += line[i];
  return R"({"v":"veccost-serve-v1","id":")" + id + R"(","ok":true,"verb":"echo"})" "\n";
}

class EchoServer {
 public:
  EchoServer() {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listener_ < 0 ||
        ::bind(listener_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener_, 64) != 0 ||
        ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (listener_ >= 0) ::close(listener_);
      throw std::runtime_error("cannot listen on a loopback port");
    }
    port_ = ntohs(addr.sin_port);
  }
  ~EchoServer() { ::close(listener_); }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// Serve until a shutdown line arrives; joins every thread it started.
  void run() {
    std::thread dispatcher([this] { dispatch_loop(); });
    std::vector<std::thread> readers;
    while (!stopping_.load()) {
      pollfd p{listener_, POLLIN, 0};
      if (::poll(&p, 1, kPollMs) <= 0) continue;
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      readers.emplace_back([this, conn = std::make_shared<Connection>(fd)] {
        read_loop(conn);
      });
    }
    for (std::thread& t : readers) t.join();
    dispatcher.join();
  }

 private:
  struct Job {
    std::shared_ptr<Connection> conn;
    std::string line;
  };

  void read_loop(const std::shared_ptr<Connection>& conn) {
    std::string buffer;
    char chunk[4096];
    while (!stopping_.load()) {
      pollfd p{conn->fd, POLLIN, 0};
      if (::poll(&p, 1, kPollMs) <= 0) continue;
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        std::string line = buffer.substr(start, nl - start);
        if (line.find("\"shutdown\"") != std::string::npos) {
          conn->write(reply(line));
          stop();
          return;
        }
        {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          queue_.push_back({conn, std::move(line)});
        }
        queue_cv_.notify_one();
      }
      buffer.erase(0, start);
    }
  }

  void dispatch_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job.conn->write(reply(job.line));
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
  }

  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex queue_mutex_;  // guards queue_
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
};

int cmd_echo() {
  EchoServer server;
  std::printf("serving on port %d\n", server.port());
  std::fflush(stdout);
  server.run();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc == 2 ? argv[1] : "";
  try {
    if (cmd == "work") return cmd_work();
    if (cmd == "echo") return cmd_echo();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_reference: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: bench_reference work|echo\n");
  return 2;
}
