#include "screen.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tpbench {

std::vector<std::size_t>
crashingJobs(std::size_t n, const std::function<void(std::size_t)> &run)
{
    std::vector<std::size_t> crashed;
    std::size_t next = 0;
    while (next < n) {
        int fds[2];
        if (pipe(fds) != 0) {
            std::perror("tpbench: pipe");
            std::exit(4);
        }
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("tpbench: fork");
            std::exit(4);
        }
        if (pid == 0) {
            // Child: announce each job before running it.
            close(fds[0]);
            for (std::size_t i = next; i < n; ++i) {
                if (write(fds[1], &i, sizeof i) != sizeof i)
                    _exit(2);
                run(i);
            }
            _exit(0);
        }
        close(fds[1]);
        std::size_t last = n, v = 0;
        while (read(fds[0], &v, sizeof v) == sizeof v)
            last = v;
        close(fds[0]);
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            break;
        if (last == n) {
            std::fprintf(stderr, "tpbench: screening child failed before "
                                 "its first job\n");
            std::exit(4);
        }
        crashed.push_back(last);
        next = last + 1;
    }
    return crashed;
}

} // namespace tpbench
