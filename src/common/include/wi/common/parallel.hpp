#pragma once
/// \file parallel.hpp
/// \brief The one work-stealing pool of the library: run n independent
///        tasks over a few threads, deterministically and exception-safe.

#include <cstddef>
#include <functional>

namespace wi {

/// Calls fn(i) for every i in [0, n) on up to `threads` workers (0 = one
/// per hardware thread; capped at n). The caller is one of the workers,
/// and idle workers pull the next index from a shared atomic cursor, so
/// long tasks never leave threads idle. Each task must only write state
/// it owns (e.g. slot i of a result vector).
///
/// If tasks throw, no new index is handed out and, once every worker
/// has stopped, the exception of the lowest failing index is rethrown on
/// the caller. Indices are claimed in increasing order, so that is the
/// same exception a serial loop would have raised, at any thread count.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wi
