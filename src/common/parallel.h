// Deterministic parallel-execution layer: a lazily-initialized fixed thread
// pool with a chunked ParallelFor primitive.
//
// Determinism contract: ParallelFor partitions [begin, end) into fixed-size
// chunks of `grain` elements whose boundaries depend only on (begin, end,
// grain) — never on the thread count or on scheduling. Kernels that write
// disjoint output ranges per chunk, or that combine per-chunk partials in
// chunk-index order (see ParallelSum), therefore produce bit-identical
// results for any AUTOCTS_NUM_THREADS setting.
#ifndef AUTOCTS_COMMON_PARALLEL_H_
#define AUTOCTS_COMMON_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <type_traits>

namespace autocts {

namespace internal {

// Non-owning callable reference: two raw pointers, trivially copyable,
// never allocates. ParallelFor/ParallelSum take their kernels through this
// instead of std::function because a captureful lambda rarely fits
// std::function's small buffer, and the conversion at every kernel
// invocation was one heap allocation per tensor op in the search inner
// loop (bench/bench_alloc.cc counts them). The referent must outlive the
// call — trivially true here, since both primitives block until done.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<Fn>>,
                                FunctionRef>>>
  FunctionRef(Fn&& fn)  // NOLINT: implicit so call sites keep passing lambdas
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<Fn>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

  bool defined() const { return call_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace internal

// Number of threads ParallelFor spreads work across. Initialized on first
// use from AUTOCTS_NUM_THREADS (clamped to [1, 64]); defaults to the
// hardware concurrency.
int64_t NumThreads();

// Overrides the thread count, recreating the pool if it shrinks or grows.
// Intended for tests and benchmarks; must not be called concurrently with a
// running ParallelFor.
void SetNumThreads(int64_t n);

// Invokes fn(chunk_begin, chunk_end) for every chunk of the fixed
// partition of [begin, end) into `grain`-sized pieces (the last chunk may
// be short). Blocks until every chunk has run, so `fn` is borrowed, never
// copied. `fn` must be safe to run concurrently on disjoint chunks.
//
// The partition is dispatched to the pool (the calling thread
// participates) only when there is more than one chunk, the pool has more
// than one thread, and the caller is not inside a chunk (nested call).
// Otherwise the same chunks run in order on the calling thread, with no
// Job and no worker wakeup. Callers therefore pick `grain` by cost: a
// range worth less than one chunk of work never pays for a pool wakeup
// (see MatMul in tensor_ops.cc).
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 internal::FunctionRef<void(int64_t, int64_t)> fn);

// Deterministic parallel sum reduction: evaluates chunk_sum over every
// fixed `grain`-sized chunk of [begin, end) and adds the partial results in
// chunk-index order, so the floating-point association is independent of
// the thread count.
double ParallelSum(int64_t begin, int64_t end, int64_t grain,
                   internal::FunctionRef<double(int64_t, int64_t)> chunk_sum);

// Cumulative scheduling counters since process start, for the
// observability layer's pool-occupancy metric. Counters only grow; sample
// before and after a region and subtract to measure it.
// jobs counts ParallelFor calls dispatched to the pool, and chunks the
// chunks those jobs ran; worker_chunks/chunks is the fraction of that
// work executed by pool workers (the rest ran on the calling thread).
// serial_chunks counts chunks that ran on the serial path instead: a
// single-thread pool, nested calls, and ranges of one chunk, which is
// where a cost-sized grain (MatMul below its cutoff) lands.
struct PoolStats {
  int64_t jobs = 0;
  int64_t chunks = 0;
  int64_t worker_chunks = 0;
  int64_t serial_chunks = 0;
};
PoolStats GetPoolStats();

}  // namespace autocts

#endif  // AUTOCTS_COMMON_PARALLEL_H_
