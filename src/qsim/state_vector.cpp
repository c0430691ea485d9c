#include "hpcqc/qsim/state_vector.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"

namespace hpcqc::qsim {

namespace {
// Below this state size the OpenMP fork costs more than the loop.
constexpr std::uint64_t kParallelThreshold = std::uint64_t{1} << 14;

// Runs body(i) for every i in [0, count) of a gate sweep over a state of
// `dim` amplitudes. Below kParallelThreshold the loop is plain serial code
// with no OpenMP construct: even `parallel for if (false)` makes libgomp
// build a one-thread team on every call, which costs more than the whole
// sweep of a cache-resident state. Each branch runs a private copy of
// `body`: the caller's closure escapes into the parallel region, so stores
// through the state pointer may alias it, and the compiler would reload the
// closure's coefficients on every iteration.
template <class Body>
void sweep(std::uint64_t dim, std::int64_t count, const Body& body) {
  if (dim < kParallelThreshold) {
    const Body local = body;
    for (std::int64_t i = 0; i < count; ++i) local(i);
    return;
  }
#pragma omp parallel
  {
    const Body local = body;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) local(i);
  }
}
}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  expects(num_qubits >= 1 && num_qubits <= 28,
          "StateVector: qubit count must be in [1, 28]");
  amps_.assign(std::uint64_t{1} << num_qubits, Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

Complex StateVector::amplitude(std::uint64_t basis_state) const {
  expects(basis_state < dimension(), "amplitude: basis state out of range");
  return amps_[basis_state];
}

void StateVector::reset() {
  std::fill(amps_.begin(), amps_.end(), Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

void StateVector::apply_1q(const Matrix2& u, int qubit) {
  expects(qubit >= 0 && qubit < num_qubits_, "apply_1q: qubit out of range");
  const std::uint64_t stride = std::uint64_t{1} << qubit;
  const std::uint64_t dim = dimension();
  const std::int64_t pairs = static_cast<std::int64_t>(dim >> 1);

  // The kernels below spell the complex arithmetic out over doubles:
  // std::complex operator* blocks vectorization at this optimization
  // level, and the gate kernels are the hot loops of the digital twin.
  double* a = reinterpret_cast<double*>(amps_.data());

  // Diagonal fast path (rz / z / s / t and their fusions): no pairing,
  // one multiply per amplitude, half the memory traffic.
  if (u[1] == Complex{0.0, 0.0} && u[2] == Complex{0.0, 0.0}) {
    const double d0r = u[0].real();
    const double d0i = u[0].imag();
    const double d1r = u[3].real();
    const double d1i = u[3].imag();
    sweep(dim, static_cast<std::int64_t>(dim), [=](std::int64_t i) {
      const auto idx = static_cast<std::uint64_t>(i);
      const double dr = (idx & stride) ? d1r : d0r;
      const double di = (idx & stride) ? d1i : d0i;
      const double re = a[2 * idx];
      const double im = a[2 * idx + 1];
      a[2 * idx] = dr * re - di * im;
      a[2 * idx + 1] = dr * im + di * re;
    });
    return;
  }

  const double u0r = u[0].real(), u0i = u[0].imag();
  const double u1r = u[1].real(), u1i = u[1].imag();
  const double u2r = u[2].real(), u2i = u[2].imag();
  const double u3r = u[3].real(), u3i = u[3].imag();
  sweep(dim, pairs, [=](std::int64_t k) {
    // Index of the amplitude with the target bit clear.
    const auto kk = static_cast<std::uint64_t>(k);
    const std::uint64_t i0 =
        (((kk & ~(stride - 1)) << 1) | (kk & (stride - 1))) * 2;
    const std::uint64_t i1 = i0 + stride * 2;
    const double lr = a[i0], li = a[i0 + 1];
    const double hr = a[i1], hi = a[i1 + 1];
    a[i0] = (u0r * lr - u0i * li) + (u1r * hr - u1i * hi);
    a[i0 + 1] = (u0r * li + u0i * lr) + (u1r * hi + u1i * hr);
    a[i1] = (u2r * lr - u2i * li) + (u3r * hr - u3i * hi);
    a[i1 + 1] = (u2r * li + u2i * lr) + (u3r * hi + u3i * hr);
  });
}

void StateVector::apply_2q(const Matrix4& u, int qubit0, int qubit1) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_,
          "apply_2q: qubit out of range");
  expects(qubit0 != qubit1, "apply_2q: qubits must differ");
  const std::uint64_t s0 = std::uint64_t{1} << qubit0;
  const std::uint64_t s1 = std::uint64_t{1} << qubit1;
  const std::uint64_t lo_stride = std::min(s0, s1);
  const std::uint64_t hi_stride = std::max(s0, s1);
  const std::uint64_t dim = dimension();
  const std::int64_t groups = static_cast<std::int64_t>(dim >> 2);
  double* a = reinterpret_cast<double*>(amps_.data());

  // Split the matrix into real/imag planes once; the group loop then runs
  // entirely on doubles (see apply_1q for why).
  double ur[16];
  double ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[static_cast<std::size_t>(e)].real();
    ui[e] = u[static_cast<std::size_t>(e)].imag();
  }

  sweep(dim, groups, [=](std::int64_t g) {
    // Expand the group index into a base index with both target bits clear:
    // split g into (low | mid | top) around the two strides and shift the
    // mid/top parts up by one bit each.
    const auto gg = static_cast<std::uint64_t>(g);
    const std::uint64_t rest = gg / lo_stride;
    const std::uint64_t mid_combos = hi_stride / lo_stride / 2;
    std::uint64_t base = gg & (lo_stride - 1);
    base |= (rest % mid_combos) * (lo_stride * 2);
    base |= (rest / mid_combos) * (hi_stride * 2);

    // Matrix basis |q1 q0>: index = 2*q1 + q0.
    const std::uint64_t idx[4] = {base, base | s0, base | s1,
                                  base | s0 | s1};
    double vr[4];
    double vi[4];
    for (int col = 0; col < 4; ++col) {
      vr[col] = a[2 * idx[col]];
      vi[col] = a[2 * idx[col] + 1];
    }
    for (int row = 0; row < 4; ++row) {
      double re = 0.0;
      double im = 0.0;
      for (int col = 0; col < 4; ++col) {
        const double er = ur[4 * row + col];
        const double ei = ui[4 * row + col];
        re += er * vr[col] - ei * vi[col];
        im += er * vi[col] + ei * vr[col];
      }
      a[2 * idx[row]] = re;
      a[2 * idx[row] + 1] = im;
    }
  });
}

void StateVector::apply_cphase(double theta, int qubit0, int qubit1) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_ && qubit0 != qubit1,
          "apply_cphase: invalid qubits");
  const std::uint64_t mask =
      (std::uint64_t{1} << qubit0) | (std::uint64_t{1} << qubit1);
  const Complex phase = std::polar(1.0, theta);
  const std::uint64_t dim = dimension();
  Complex* a = amps_.data();
  sweep(dim, static_cast<std::int64_t>(dim), [=](std::int64_t i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & mask) == mask) a[idx] *= phase;
  });
}

std::vector<double> StateVector::probabilities() const {
  const std::uint64_t dim = dimension();
  std::vector<double> probs(dim);
  const Complex* a = amps_.data();
  double* p = probs.data();
#pragma omp parallel for if (dim >= kParallelThreshold) schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(dim); ++i)
    p[i] = std::norm(a[i]);
  return probs;
}

std::uint64_t StateVector::sample_one(Rng& rng) const {
  // Single-pass inverse transform: walk the amplitudes once, subtracting
  // each probability from the draw until it is exhausted. No CDF is
  // materialized, so the per-shot cost is a read-only O(2^n) sweep.
  // Kept strictly serial: the trajectory engine calls this from inside an
  // OpenMP shot loop and the scan order must not depend on thread count.
  const std::uint64_t dim = dimension();
  double r = rng.uniform();
  std::uint64_t last_nonzero = 0;
  bool seen_nonzero = false;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const double p = std::norm(amps_[i]);
    if (p > 0.0) {
      last_nonzero = i;
      seen_nonzero = true;
    }
    r -= p;
    if (r < 0.0) return i;
  }
  // The draw fell past the accumulated mass (sub-unit norm or rounding):
  // attribute it to the last outcome with support.
  ensure_state(seen_nonzero, "sample_one: zero-norm state");
  return last_nonzero;
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots,
                                               Rng& rng) const {
  // One draw does not amortize a CDF build — use the single-pass sampler.
  if (shots == 1) return {sample_one(rng)};
  // Cumulative distribution + binary search per shot: O(2^n + S log 2^n).
  std::vector<double> cdf(dimension());
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dimension(); ++i) {
    acc += std::norm(amps_[i]);
    cdf[i] = acc;
  }
  ensure_state(acc > 0.0, "sample: zero-norm state");
  std::vector<std::uint64_t> out(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
    out[s] = static_cast<std::uint64_t>(std::distance(cdf.begin(), it));
    if (out[s] >= dimension()) out[s] = dimension() - 1;
  }
  return out;
}

double pauli_error_prob_from_avg_fidelity(double avg_fidelity,
                                          int num_qubits) {
  expects(num_qubits == 1 || num_qubits == 2,
          "pauli_error_prob: only 1- and 2-qubit gates supported");
  const double d = num_qubits == 1 ? 2.0 : 4.0;
  const double process_fidelity = ((d + 1.0) * avg_fidelity - 1.0) / d;
  return std::clamp(1.0 - process_fidelity, 0.0, 1.0);
}

}  // namespace hpcqc::qsim
