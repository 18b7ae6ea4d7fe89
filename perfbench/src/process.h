#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

/// \file
/// The server under test as a separate process, plus the /proc readings
/// and machine-state probe that go into every result.

#include <sys/types.h>

#include <string>

#include "common/result.h"
#include "ui/http_client.h"

namespace perfbench {

/// CPUs [first, first + count); count 0 means any CPU.
struct CpuRange {
  int first = 0;
  int count = 0;
};

/// Restricts the calling thread to `cpus` (no-op for an empty range).
void PinCurrentThread(CpuRange cpus);

/// A `serve_ui --snapshot=FILE` child process with RPG_SERVE_FOREVER=1 and
/// the server's default threads and pollers. Killed (SIGKILL to be sure
/// nothing outlives the benchmark) and reaped by Stop() or the destructor;
/// the child also dies with its parent.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server on a free loopback port and waits until it answers
  /// GET /api/stats. Server output goes to `log_path`; every server
  /// thread runs on `cpus`.
  rpg::Status Start(const std::string& binary, const std::string& snapshot,
                    const std::string& log_path, CpuRange cpus = {});
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One keep-alive connection that can send a request body (the repo's
/// HttpClient sends none); used for POST /api/admin/reload.
class PostConnection {
 public:
  PostConnection() = default;
  ~PostConnection();
  PostConnection(const PostConnection&) = delete;
  PostConnection& operator=(const PostConnection&) = delete;

  rpg::Status Connect(int port);
  rpg::Result<rpg::ui::ClientResponse> Send(const std::string& method,
                                            const std::string& target,
                                            const std::string& body = "");

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// User + system CPU seconds of process `pid` (/proc/<pid>/stat).
double ProcessCpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in KiB, 0 when unreadable.
long ProcessPeakRssKib(pid_t pid);
/// Threads of `pid`, 0 when unreadable.
long ProcessThreads(pid_t pid);

/// Machine state recorded with every result.
struct MachineState {
  int nproc = 0;
  std::string build_type;
  bool tracing_compiled_in = false;
  /// Share of wall time each spinning thread spent on a CPU, with 1 and
  /// with nproc threads spinning at once.
  double on_cpu_1 = 0.0;
  double on_cpu_n = 0.0;
  /// True when either probe is below 50%: the run's numbers were taken on
  /// a starved machine and are flagged in the report.
  bool flagged = false;
};

MachineState ProbeMachine();

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
