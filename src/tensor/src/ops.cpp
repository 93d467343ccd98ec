#include "le/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace le::tensor {

namespace {

void check_gemm_shapes(const Matrix& a, const Matrix& b, const Matrix& out) {
  if (a.cols() != b.rows() || out.rows() != a.rows() || out.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  // Every kernel zeroes `out` before accumulating, so an aliased output
  // silently corrupts the product; surfaced by the hot-path correctness
  // sweep, now a hard error in all gemm variants.
  if (&out == &a || &out == &b) {
    throw std::invalid_argument("gemm: out must not alias an input");
  }
}

}  // namespace

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check_gemm_shapes(a, b, out);
  out.fill(0.0);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = a(i, p);
      const double* brow = b.data() + p * n;
      double* orow = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        orow[j] += aip * brow[j];
      }
    }
  }
}

void gemm_blocked(const Matrix& a, const Matrix& b, Matrix& out,
                  const GemmBlocking& blocking) {
  check_gemm_shapes(a, b, out);
  if (blocking.mc == 0 || blocking.kc == 0 || blocking.nc == 0) {
    throw std::invalid_argument("gemm_blocked: block sizes must be positive");
  }
  out.fill(0.0);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += blocking.mc) {
    const std::size_t i1 = std::min(i0 + blocking.mc, m);
    for (std::size_t p0 = 0; p0 < k; p0 += blocking.kc) {
      const std::size_t p1 = std::min(p0 + blocking.kc, k);
      for (std::size_t j0 = 0; j0 < n; j0 += blocking.nc) {
        const std::size_t j1 = std::min(j0 + blocking.nc, n);
        for (std::size_t i = i0; i < i1; ++i) {
          double* orow = out.data() + i * n;
          for (std::size_t p = p0; p < p1; ++p) {
            const double aip = a(i, p);
            const double* brow = b.data() + p * n;
            for (std::size_t j = j0; j < j1; ++j) {
              orow[j] += aip * brow[j];
            }
          }
        }
      }
    }
  }
}

namespace {

// The kernel a GEMM under `plan` runs on.  A pinned process-wide kernel
// (LE_KERNEL or set_gemm_kernel_override) is the operator escape hatch and
// wins even over an explicit per-layer plan; otherwise the plan decides,
// with kAuto deferring to the CPUID pick.  A kernel the CPU lacks degrades
// to the best one it has, never faults.  Never kAuto.
GemmKernel plan_kernel(const GemmPlan& plan) noexcept {
  if (gemm_kernel_forced() || plan.kernel == GemmKernel::kAuto) {
    return active_gemm_kernel();
  }
  return runnable_gemm_kernel(plan.kernel);
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& out,
          const GemmPlan& plan) {
  switch (plan_kernel(plan)) {
    case GemmKernel::kAvx512: gemm_avx512(a, b, out, plan.blocking); return;
    case GemmKernel::kAvx2: gemm_avx2(a, b, out, plan.blocking); return;
    default: gemm_blocked(a, b, out, plan.blocking); return;
  }
}

void dense(const Matrix& a, const Matrix& w, std::span<const double> bias,
           Matrix& out, DenseActivation activation, const GemmPlan& plan) {
  if (bias.size() != w.cols()) {
    throw std::invalid_argument("dense: bias length != output width");
  }
  switch (plan_kernel(plan)) {
    case GemmKernel::kAvx512:
      dense_avx512(a, w, bias, out, activation, plan.blocking);
      return;
    case GemmKernel::kAvx2:
      dense_avx2(a, w, bias, out, activation, plan.blocking);
      return;
    default: break;
  }
  gemm_blocked(a, w, out, plan.blocking);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias[c];
  }
  const std::span<double> flat = out.flat();
  switch (activation) {
    case DenseActivation::kTanh: vtanh(flat, flat); return;
    case DenseActivation::kRelu: vrelu(flat, flat); return;
    case DenseActivation::kNone: return;
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  gemm_naive(a, b, out);
  return out;
}

namespace {

void check_elementwise_spans(std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("elementwise op: length mismatch");
  }
  // Exact aliasing (in-place) is fine; partial overlap is not.
  if (x.data() != y.data() &&
      x.data() < y.data() + y.size() && y.data() < x.data() + x.size()) {
    throw std::invalid_argument("elementwise op: partial overlap");
  }
}

}  // namespace

void vtanh(std::span<const double> x, std::span<double> y) {
  check_elementwise_spans(x, y);
  if (avx2_or_wider(active_gemm_kernel())) {
    vtanh_avx2(x, y);
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
}

void vrelu(std::span<const double> x, std::span<double> y) {
  check_elementwise_spans(x, y);
  if (avx2_or_wider(active_gemm_kernel())) {
    vrelu_avx2(x, y);
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void matvec(const Matrix& a, std::span<const double> x, std::span<double> out) {
  if (x.size() != a.cols() || out.size() != a.rows()) {
    throw std::invalid_argument("matvec: shape mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    out[i] = acc;
  }
}

void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> out) {
  if (x.size() != a.rows() || out.size() != a.cols()) {
    throw std::invalid_argument("matvec_transposed: shape mismatch");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += row[j] * xi;
  }
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: length mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double dot(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

namespace {
void check_same_shape(const Matrix& a, const Matrix& b, const Matrix& c) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.rows() != c.rows() ||
      a.cols() != c.cols()) {
    throw std::invalid_argument("elementwise op: shape mismatch");
  }
}
}  // namespace

void add(const Matrix& a, const Matrix& b, Matrix& c) {
  check_same_shape(a, b, c);
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] + b.data()[i];
}

void sub(const Matrix& a, const Matrix& b, Matrix& c) {
  check_same_shape(a, b, c);
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] - b.data()[i];
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& c) {
  check_same_shape(a, b, c);
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
}

double frobenius_norm(const Matrix& a) { return norm2(a.flat()); }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace le::tensor
