#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "stats.h"

namespace perfbench {
namespace {

// Closes a socket on every exit path of HttpCall.
class SocketFd {
 public:
  explicit SocketFd(int fd) : fd_(fd) {}
  ~SocketFd() {
    if (fd_ >= 0) close(fd_);
  }
  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Parses "aimd listening on <host>:<port> ..." out of the daemon log.
int PortFromLog(const std::string& log_path) {
  std::ifstream in(log_path);
  std::string line;
  const std::string marker = "listening on ";
  while (std::getline(in, line)) {
    const size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    const size_t colon = line.find(':', at + marker.size());
    if (colon == std::string::npos) continue;
    return std::atoi(line.c_str() + colon + 1);
  }
  return 0;
}

}  // namespace

aim::StatusOr<HttpReply> HttpCall(int port, const std::string& method,
                                  const std::string& path,
                                  const std::string& body) {
  SocketFd fd(socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) return aim::UnavailableError("socket() failed");
  timeval timeout{};
  timeout.tv_sec = 30;
  setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return aim::UnavailableError(std::string("connect: ") +
                                 std::strerror(errno));
  }
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd.get(), request.data() + sent,
                           request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return aim::UnavailableError("send failed");
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[16384];
  ssize_t n = 0;
  while ((n = recv(fd.get(), chunk, sizeof(chunk), 0)) > 0) {
    raw.append(chunk, static_cast<size_t>(n));
  }
  if (n < 0) return aim::UnavailableError("recv timed out or failed");
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return aim::InternalError("malformed HTTP reply");
  }
  HttpReply reply;
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

aim::StatusOr<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, double timeout_seconds) {
  std::vector<std::string> argv_storage = {binary, "--port=0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return aim::UnavailableError("cannot open daemon log " + log_path);
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return aim::UnavailableError("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  std::unique_ptr<Daemon> daemon(new Daemon(pid));

  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_seconds) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return aim::UnavailableError("aimd exited during start-up; see " +
                                   log_path);
    }
    if (daemon->port_ == 0) daemon->port_ = PortFromLog(log_path);
    if (daemon->port_ > 0) {
      aim::StatusOr<HttpReply> health =
          HttpCall(daemon->port_, "GET", "/healthz");
      if (health.ok() && health->status == 200) return daemon;
    }
    SleepSeconds(0.0005);
  }
  return aim::UnavailableError("aimd did not answer /healthz in time");
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

aim::StatusOr<double> Daemon::Stop(double timeout_seconds) {
  if (pid_ <= 0) return aim::FailedPreconditionError("daemon not running");
  kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  rusage usage{};
  pid_t done = 0;
  while ((done = wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
         SecondsSince(start) < timeout_seconds) {
    SleepSeconds(0.005);
  }
  if (done != pid_) {
    kill(pid_, SIGKILL);
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return aim::UnavailableError("aimd did not drain on SIGTERM");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return aim::InternalError("aimd exited abnormally");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
