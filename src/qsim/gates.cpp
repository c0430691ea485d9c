#include "hpcqc/qsim/gates.hpp"

#include <cmath>

namespace hpcqc::qsim {

namespace {
constexpr Complex kOne{1.0, 0.0};
constexpr Complex kZero{0.0, 0.0};
constexpr Complex kImag{0.0, 1.0};
/// r e^{i angle} for r of either sign; std::polar requires r >= 0.
Complex signed_polar(double r, double angle) {
  return {r * std::cos(angle), r * std::sin(angle)};
}
}  // namespace

Matrix2 matmul(const Matrix2& a, const Matrix2& b) {
  Matrix2 out{};
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c)
      for (int k = 0; k < 2; ++k) out[2 * r + c] += a[2 * r + k] * b[2 * k + c];
  return out;
}

Matrix4 matmul(const Matrix4& a, const Matrix4& b) {
  Matrix4 out{};
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      for (int k = 0; k < 4; ++k) out[4 * r + c] += a[4 * r + k] * b[4 * k + c];
  return out;
}

Matrix2 adjoint(const Matrix2& m) {
  return {std::conj(m[0]), std::conj(m[2]), std::conj(m[1]), std::conj(m[3])};
}

Matrix4 adjoint(const Matrix4& m) {
  Matrix4 out{};
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) out[4 * r + c] = std::conj(m[4 * c + r]);
  return out;
}

Matrix4 kron(const Matrix2& a, const Matrix2& b) {
  Matrix4 out{};
  for (int ar = 0; ar < 2; ++ar)
    for (int ac = 0; ac < 2; ++ac)
      for (int br = 0; br < 2; ++br)
        for (int bc = 0; bc < 2; ++bc)
          out[4 * (2 * ar + br) + (2 * ac + bc)] = a[2 * ar + ac] * b[2 * br + bc];
  return out;
}

namespace {

template <typename Mat, int N>
bool is_unitary_impl(const Mat& m, double tol) {
  // m† m == I
  for (int r = 0; r < N; ++r) {
    for (int c = 0; c < N; ++c) {
      Complex acc = kZero;
      for (int k = 0; k < N; ++k)
        acc += std::conj(m[N * k + r]) * m[N * k + c];
      const Complex expected = (r == c) ? kOne : kZero;
      if (std::abs(acc - expected) > tol) return false;
    }
  }
  return true;
}

}  // namespace

bool is_unitary(const Matrix2& m, double tol) {
  return is_unitary_impl<Matrix2, 2>(m, tol);
}

bool is_unitary(const Matrix4& m, double tol) {
  return is_unitary_impl<Matrix4, 4>(m, tol);
}

Matrix2 gate_i() { return {kOne, kZero, kZero, kOne}; }
Matrix2 gate_x() { return {kZero, kOne, kOne, kZero}; }
Matrix2 gate_y() { return {kZero, -kImag, kImag, kZero}; }
Matrix2 gate_z() { return {kOne, kZero, kZero, -kOne}; }

Matrix2 gate_h() {
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  return {Complex{inv_sqrt2, 0}, Complex{inv_sqrt2, 0}, Complex{inv_sqrt2, 0},
          Complex{-inv_sqrt2, 0}};
}

Matrix2 gate_s() { return {kOne, kZero, kZero, kImag}; }
Matrix2 gate_sdg() { return {kOne, kZero, kZero, -kImag}; }

Matrix2 gate_t() {
  return {kOne, kZero, kZero, std::polar(1.0, M_PI / 4.0)};
}

Matrix2 gate_tdg() {
  return {kOne, kZero, kZero, std::polar(1.0, -M_PI / 4.0)};
}

Matrix2 gate_sx() {
  // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]]
  const Complex p{0.5, 0.5};
  const Complex q{0.5, -0.5};
  return {p, q, q, p};
}

Matrix2 gate_rx(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {Complex{c, 0}, Complex{0, -s}, Complex{0, -s}, Complex{c, 0}};
}

Matrix2 gate_ry(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {Complex{c, 0}, Complex{-s, 0}, Complex{s, 0}, Complex{c, 0}};
}

Matrix2 gate_rz(double theta) {
  return {std::polar(1.0, -theta / 2.0), kZero, kZero,
          std::polar(1.0, theta / 2.0)};
}

Matrix2 gate_u(double theta, double phi, double lambda) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {Complex{c, 0}, -signed_polar(s, lambda), signed_polar(s, phi),
          signed_polar(c, phi + lambda)};
}

Matrix2 gate_prx(double theta, double phi) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  // RZ(phi) RX(theta) RZ(-phi) up to global phase:
  // [[cos, -i e^{-i phi} sin], [-i e^{i phi} sin, cos]]
  return {Complex{c, 0}, -kImag * signed_polar(s, -phi),
          -kImag * signed_polar(s, phi), Complex{c, 0}};
}

Matrix4 gate_cz() {
  Matrix4 m{};
  m[0] = kOne;
  m[5] = kOne;
  m[10] = kOne;
  m[15] = -kOne;
  return m;
}

Matrix4 gate_cx() {
  // Basis order |q1 q0>; control is q0 (the first apply_2q argument).
  Matrix4 m{};
  m[4 * 0 + 0] = kOne;   // |00> -> |00>
  m[4 * 3 + 1] = kOne;   // |01> -> |11>
  m[4 * 2 + 2] = kOne;   // |10> -> |10>
  m[4 * 1 + 3] = kOne;   // |11> -> |01>
  return m;
}

Matrix4 gate_swap() {
  Matrix4 m{};
  m[4 * 0 + 0] = kOne;
  m[4 * 2 + 1] = kOne;
  m[4 * 1 + 2] = kOne;
  m[4 * 3 + 3] = kOne;
  return m;
}

Matrix4 gate_iswap() {
  Matrix4 m{};
  m[4 * 0 + 0] = kOne;
  m[4 * 2 + 1] = kImag;
  m[4 * 1 + 2] = kImag;
  m[4 * 3 + 3] = kOne;
  return m;
}

Matrix4 gate_cphase(double theta) {
  Matrix4 m{};
  m[0] = kOne;
  m[5] = kOne;
  m[10] = kOne;
  m[15] = std::polar(1.0, theta);
  return m;
}

}  // namespace hpcqc::qsim
