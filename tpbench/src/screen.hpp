/**
 * @file
 * Finding jobs that kill the process. The simulator reports an internal
 * bug with tpnet_panic, which aborts; such a job cannot be timed in the
 * benchmark's process, yet it must count as a failed job rather than
 * end the run.
 */

#ifndef TPBENCH_SCREEN_HPP
#define TPBENCH_SCREEN_HPP

#include <cstddef>
#include <functional>
#include <vector>

namespace tpbench {

/**
 * Run jobs 0..@p n-1 in order in forked child processes and return the
 * indices of the jobs during which a child died. After a death the next
 * child resumes at the following job, so every job runs once. The caller
 * must be single-threaded.
 */
std::vector<std::size_t>
crashingJobs(std::size_t n, const std::function<void(std::size_t)> &run);

} // namespace tpbench

#endif // TPBENCH_SCREEN_HPP
