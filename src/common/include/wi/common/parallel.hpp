#pragma once
/// \file parallel.hpp
/// \brief The one work-sharing pool of the library: run n independent
///        tasks over a few threads, deterministically and exception-safe.

#include <cstddef>
#include <functional>

namespace wi {

/// Calls fn(i) for every i in [0, n) on up to `threads` workers (0 = one
/// per hardware thread; capped at n). Each task must only write state it
/// owns (e.g. slot i of a result vector).
///
/// The caller is one of the workers; the others are helpers from one
/// process-wide pool of hardware_concurrency - 1 threads, started by the
/// first call that needs a second worker. A call with threads <= 1 or
/// n <= 1 runs inline and never touches the pool. Each call is a batch
/// with its own atomic cursor, handing out indices in increasing order,
/// and at most threads - 1 helpers join it; idle helpers take indices
/// from the newest unfinished batch and otherwise sleep.
///
/// Calls nest: a task may call parallel_for itself, and so may a task
/// running on a helper. The caller claims indices only from its own
/// batch until none are left, then waits only for indices already
/// running, so a call always finishes, even when every helper is busy
/// or blocked, and never adopts an unrelated (possibly long) task. No
/// call starts a thread beyond the pool, at any nesting depth. Tasks of
/// one call must not wait for each other: two indices are not
/// guaranteed to run at the same time.
///
/// If tasks throw, no new index is handed out and, once every worker
/// has stopped, the exception of the lowest failing index is rethrown on
/// the caller. Indices are claimed in increasing order, so that is the
/// same exception a serial loop would have raised, at any thread count.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wi
