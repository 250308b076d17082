// The aimd daemon as a child process of the benchmark, and a minimal
// blocking HTTP/1.1 client for its loopback API (one request per
// connection, as the daemon speaks it).

#ifndef AIM_PERFBENCH_DAEMON_H_
#define AIM_PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
};

// Sends one request to 127.0.0.1:port and reads the reply to EOF.
// Transport failures (refused connection, timeout, malformed reply) are
// errors; any HTTP status is a reply.
aim::StatusOr<HttpReply> HttpCall(int port, const std::string& method,
                                  const std::string& path,
                                  const std::string& body = "");

class Daemon {
 public:
  // Starts `binary` with `args` plus --port=0, its stdout and stderr going
  // to `log_path`, waits for the "listening on" line naming its port and
  // then for GET /healthz to answer 200. The child is killed if the
  // benchmark dies first.
  static aim::StatusOr<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, double timeout_seconds);

  // Stops the daemon (SIGKILL) if Stop was not called.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  // SIGTERM, then waits for the graceful drain (SIGKILL after
  // `timeout_seconds`). Returns the daemon's peak resident set in MB, from
  // wait4; an error when it had to be killed or exited non-zero.
  aim::StatusOr<double> Stop(double timeout_seconds);

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // AIM_PERFBENCH_DAEMON_H_
