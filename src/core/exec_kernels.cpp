// The two compiled entries of the fused linear pass (offer_linear_run_body
// in exec_kernels.hpp) and the once-per-process choice between them; the
// header says why the choice is a plain function pointer and why there is
// no FMA and no AVX-512 entry.  Both entries are flattened, so every call
// inside the body — BandGroup::add, offer_scores, the TopK offers — is
// compiled for the entry's instruction set.  This file is compiled with
// -ffp-contract=off (src/core/CMakeLists.txt).

#include "core/exec_kernels.hpp"

namespace mmir::exec {

namespace detail {

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("avx2"), gnu::flatten]] std::uint64_t offer_linear_run_avx2(
    const TiledArchive& archive, const LinearModel& model, std::size_t x, std::size_t y,
    std::size_t n, TopK<RasterHit>& top, double* sums) {
  return offer_linear_run_body(archive, model, x, y, n, top, sums);
}

bool host_has_avx2() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
}

#else

// No AVX2 on this architecture: the entry exists so callers link, and
// host_has_avx2() keeps it from being chosen.
std::uint64_t offer_linear_run_avx2(const TiledArchive& archive, const LinearModel& model,
                                    std::size_t x, std::size_t y, std::size_t n,
                                    TopK<RasterHit>& top, double* sums) {
  return offer_linear_run_baseline(archive, model, x, y, n, top, sums);
}

bool host_has_avx2() noexcept { return false; }

#endif

[[gnu::flatten]] std::uint64_t offer_linear_run_baseline(const TiledArchive& archive,
                                                         const LinearModel& model, std::size_t x,
                                                         std::size_t y, std::size_t n,
                                                         TopK<RasterHit>& top, double* sums) {
  return offer_linear_run_body(archive, model, x, y, n, top, sums);
}

}  // namespace detail

std::uint64_t offer_linear_run(const TiledArchive& archive, const LinearModel& model,
                               std::size_t x, std::size_t y, std::size_t n, TopK<RasterHit>& top,
                               double* sums) {
  static const auto entry = detail::host_has_avx2() ? &detail::offer_linear_run_avx2
                                                    : &detail::offer_linear_run_baseline;
  return entry(archive, model, x, y, n, top, sums);
}

std::string_view kernel_isa() noexcept { return detail::host_has_avx2() ? "avx2" : "baseline"; }

}  // namespace mmir::exec
