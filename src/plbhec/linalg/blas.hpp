#pragma once
/// \file blas.hpp
/// GEMM used as the *real* CPU kernel of the matrix multiplication
/// application (the paper uses CUBLAS on the GPU side; our host kernel
/// validates numerics while the simulator provides GPU timing). Both entry
/// points dispatch to the packed register-blocked micro-kernel in
/// exec/gemm_micro.hpp; the parallel variant fans row panels out over the
/// persistent thread pool instead of spawning threads per call.

#include <cstddef>
#include <span>

namespace plbhec::linalg::blas {

/// C (m x n) += A (m x k) * B (k x n); row-major, leading dimensions =
/// logical widths. Serial packed micro-kernel.
void gemm(std::size_t m, std::size_t n, std::size_t k,
          std::span<const double> a, std::span<const double> b,
          std::span<double> c);

/// Multi-threaded variant: splits the m dimension into row panels executed
/// on the shared persistent pool, capped at `threads` lanes (>= 1). Falls
/// back to the serial kernel for small work.
void gemm_parallel(std::size_t m, std::size_t n, std::size_t k,
                   std::span<const double> a, std::span<const double> b,
                   std::span<double> c, unsigned threads);

}  // namespace plbhec::linalg::blas
