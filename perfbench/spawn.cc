// The benchmark's process launcher: runs the commands perfbench/run.py
// sends it and reports each one's wall time, exit code and peak RSS.
//
// A child's ru_maxrss includes the peak RSS of the process it was forked
// from (the kernel folds the old address space's high-water mark in at
// exec), so the launcher is kept small: every reported peak has this
// process's own peak RSS, a few MB, as its floor.
//
// Requests arrive on stdin, one field per line:
//   TIMEOUT_S  CWD  OUT_PATH  N_ENV  N_ENV lines KEY=VALUE  ARGC  ARGC lines
// The child's stdout goes to OUT_PATH and its stderr to OUT_PATH.err;
// KEY=VALUE pairs are added to the inherited environment. A child still
// running after TIMEOUT_S seconds is killed. Each request is answered
// with one line "SECONDS EXIT_CODE MAXRSS_KB"; EXIT_CODE is minus the
// signal number for a child killed by a signal.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

namespace {

volatile sig_atomic_t g_child = 0;

void KillChild(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

bool ReadLine(std::string* line) {
  return static_cast<bool>(std::getline(std::cin, *line));
}

bool ReadLines(size_t count, std::vector<std::string>* lines) {
  lines->resize(count);
  for (std::string& line : *lines) {
    if (!ReadLine(&line)) return false;
  }
  return true;
}

[[noreturn]] void ExecChild(const std::string& cwd, const std::string& out,
                            const std::vector<std::string>& env,
                            const std::vector<std::string>& args) {
  // stdin is the request pipe; the child gets /dev/null instead.
  int in_fd = open("/dev/null", O_RDONLY);
  int out_fd = open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  int err_fd = open((out + ".err").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
  if (in_fd < 0 || out_fd < 0 || err_fd < 0 || dup2(in_fd, 0) < 0 ||
      dup2(out_fd, 1) < 0 || dup2(err_fd, 2) < 0 || chdir(cwd.c_str()) != 0) {
    _exit(127);
  }
  close(in_fd);
  close(out_fd);
  close(err_fd);
  for (const std::string& pair : env) {
    size_t eq = pair.find('=');
    setenv(pair.substr(0, eq).c_str(), pair.substr(eq + 1).c_str(), 1);
  }
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);
}

}  // namespace

int main() {
  struct sigaction action {};
  action.sa_handler = KillChild;  // no SA_RESTART: wait4 sees EINTR
  sigaction(SIGALRM, &action, nullptr);

  std::string timeout, cwd, out, count;
  while (ReadLine(&timeout) && ReadLine(&cwd) && ReadLine(&out) &&
         ReadLine(&count)) {
    std::vector<std::string> env, args;
    if (!ReadLines(std::stoul(count), &env) || !ReadLine(&count) ||
        !ReadLines(std::stoul(count), &args) || args.empty()) {
      std::fprintf(stderr, "perfbench_spawn: truncated request\n");
      return 2;
    }
    auto start = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid < 0) {
      std::perror("perfbench_spawn: fork");
      return 2;
    }
    if (pid == 0) ExecChild(cwd, out, env, args);
    g_child = pid;
    alarm(static_cast<unsigned>(std::stoul(timeout)));
    int status = 0;
    struct rusage usage {};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    alarm(0);
    g_child = 0;
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    std::printf("%.9f %d %ld\n", seconds, code, usage.ru_maxrss);
    std::fflush(stdout);
  }
  return 0;
}
