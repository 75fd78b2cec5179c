// Squared-distance kernels behind VectorMetric (internal to src/metric and
// its tests).
//
// Both kernels compute the same sum in the same order, so they return the
// same bits for every input:
//
//   * four lanes, lane k accumulating (a[i] - b[i])^2 over the dimensions
//     i = k (mod 4) of the unrolled body, in increasing i;
//   * the dim % 4 tail dimensions added into lane 0, in increasing i;
//   * the lanes combined as (l0 + l1) + (l2 + l3).
//
// The portable kernel spells the lanes as four scalars; the AVX2 kernel
// holds them in one 256-bit register. Only subtract, multiply and add are
// used, never a fused multiply-add, so no build setting can contract the
// sums into a different rounding.
//
// VectorMetric's AVX2 rows (vector_metric.cc) run four pairs per pass:
// each pair keeps its own register of lanes in the order above, the four
// are combined as (l0 + l1) + (l2 + l3) by hadd and a 128-bit permute, and
// one packed sqrt finishes them. The count % 4 leftover pairs take
// SquaredDistanceAvx2 one at a time. Every path returns the same bits.
#ifndef DIVERSE_METRIC_VECTOR_KERNEL_H_
#define DIVERSE_METRIC_VECTOR_KERNEL_H_

namespace diverse {
namespace vector_kernel {

double SquaredDistancePortable(const double* a, const double* b, int dim);

#if defined(__x86_64__)
// Call only when Avx2Supported().
double SquaredDistanceAvx2(const double* a, const double* b, int dim);
#endif

// True when the running CPU (and OS) support AVX2; always false off
// x86-64. Detected once, on first call.
bool Avx2Supported();

}  // namespace vector_kernel
}  // namespace diverse

#endif  // DIVERSE_METRIC_VECTOR_KERNEL_H_
