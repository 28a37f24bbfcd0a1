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

[[gnu::target("avx2"), gnu::flatten]] void offer_linear_run_avx2(
    const TiledArchive& archive, std::span<LinearRunMember> members, std::size_t x,
    std::size_t y, std::size_t n) {
  offer_linear_run_body(archive, members, x, y, n);
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
void offer_linear_run_avx2(const TiledArchive& archive, std::span<LinearRunMember> members,
                           std::size_t x, std::size_t y, std::size_t n) {
  offer_linear_run_baseline(archive, members, x, y, n);
}

bool host_has_avx2() noexcept { return false; }

#endif

[[gnu::flatten]] void offer_linear_run_baseline(const TiledArchive& archive,
                                                std::span<LinearRunMember> members,
                                                std::size_t x, std::size_t y, std::size_t n) {
  offer_linear_run_body(archive, members, x, y, n);
}

}  // namespace detail

void offer_linear_run(const TiledArchive& archive, std::span<LinearRunMember> members,
                      std::size_t x, std::size_t y, std::size_t n) {
  static const auto entry = detail::host_has_avx2() ? &detail::offer_linear_run_avx2
                                                    : &detail::offer_linear_run_baseline;
  entry(archive, members, x, y, n);
}

std::string_view kernel_isa() noexcept { return detail::host_has_avx2() ? "avx2" : "baseline"; }

}  // namespace mmir::exec
