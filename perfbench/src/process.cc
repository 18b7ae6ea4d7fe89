#include "process.h"

#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "spans.h"

extern char** environ;

namespace perfbench {

namespace {

/// A loopback port nobody holds right now (bound, read back, released).
int FreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// The value of "<field>:" in /proc/<pid>/status, 0 when absent.
long StatusField(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

cpu_set_t CpuSet(CpuRange cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = cpus.first; c < cpus.first + cpus.count; ++c) CPU_SET(c, &set);
  return set;
}

}  // namespace

void PinCurrentThread(CpuRange cpus) {
  if (cpus.count <= 0) return;
  cpu_set_t set = CpuSet(cpus);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

ServerProcess::~ServerProcess() { Stop(); }

rpg::Status ServerProcess::Start(const std::string& binary,
                                 const std::string& snapshot,
                                 const std::string& log_path, CpuRange cpus) {
  port_ = FreePort();
  if (port_ == 0) return rpg::Status::IoError("no free loopback port");
  std::vector<std::string> args = {binary, std::to_string(port_),
                                   "--snapshot=" + snapshot};
  std::vector<std::string> env = {"RPG_SERVE_FOREVER=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RPG_SERVE_FOREVER=", 18) != 0) env.emplace_back(*e);
  }
  std::vector<char*> argv, envp;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) return rpg::Status::IoError("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const cpu_set_t cpu_set = CpuSet(cpus);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return rpg::Status::IoError("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    if (cpus.count > 0) ::sched_setaffinity(0, sizeof(cpu_set), &cpu_set);
    ::execve(binary.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  // Ready when /api/stats answers; fail fast if the child died.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return rpg::Status::Internal("serve_ui exited during start; see " +
                                   log_path);
    }
    rpg::ui::HttpClient probe;
    if (probe.Connect(port_).ok()) {
      auto r = probe.Fetch("GET", "/api/stats", /*close_connection=*/true);
      if (r.ok() && r->status == 200) return rpg::Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop();
  return rpg::Status::Internal("serve_ui did not answer within 60 s");
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

PostConnection::~PostConnection() {
  if (fd_ >= 0) ::close(fd_);
}

rpg::Status PostConnection::Connect(int port) {
  if (fd_ >= 0) ::close(fd_);
  buffer_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return rpg::Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return rpg::Status::IoError("connect failed");
  }
  return rpg::Status::OK();
}

rpg::Result<rpg::ui::ClientResponse> PostConnection::Send(
    const std::string& method, const std::string& target,
    const std::string& body) {
  if (fd_ < 0) return rpg::Status::FailedPrecondition("not connected");
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t written = 0;
  while (written < request.size()) {
    ssize_t n = ::send(fd_, request.data() + written, request.size() - written,
                       MSG_NOSIGNAL);
    if (n <= 0) return rpg::Status::IoError("write failed");
    written += static_cast<size_t>(n);
  }
  char chunk[4096];
  for (;;) {
    auto parsed = rpg::ui::ParseHttpResponse(buffer_);
    using Verdict = rpg::ui::ResponseParseResult::Verdict;
    if (parsed.verdict == Verdict::kError) {
      return rpg::Status::IoError(parsed.error);
    }
    if (parsed.verdict == Verdict::kResponse) {
      buffer_.erase(0, parsed.consumed);
      return std::move(parsed.response);
    }
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return rpg::Status::IoError("connection closed mid-response");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stoull(field);
    if (i == 13) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

long ProcessPeakRssKib(pid_t pid) { return StatusField(pid, "VmHWM"); }
long ProcessThreads(pid_t pid) { return StatusField(pid, "Threads"); }

namespace {

/// Spins `threads` threads for `wall_ms` each; returns the mean share of
/// wall time they were on a CPU.
double OnCpuShare(int threads, int wall_ms) {
  std::vector<double> share(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&share, t, wall_ms] {
      const int64_t cpu0 = ThreadCpuNs(), wall0 = NowNs();
      const int64_t end = wall0 + int64_t{wall_ms} * 1'000'000;
      volatile uint64_t sink = 0;
      while (NowNs() < end) {
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
      }
      share[t] = static_cast<double>(ThreadCpuNs() - cpu0) /
                 static_cast<double>(NowNs() - wall0);
    });
  }
  for (auto& th : pool) th.join();
  double sum = 0.0;
  for (double s : share) sum += s;
  return sum / threads;
}

}  // namespace

MachineState ProbeMachine() {
  MachineState m;
  m.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.tracing_compiled_in = rpg::obs::kTracingCompiledIn;
  m.on_cpu_1 = OnCpuShare(1, 100);
  m.on_cpu_n = OnCpuShare(m.nproc, 100);
  m.flagged = m.on_cpu_1 < 0.5 || m.on_cpu_n < 0.5;
  return m;
}

}  // namespace perfbench
