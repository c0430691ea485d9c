#pragma once

// Native lowering to {PRX, CZ}, written once over the angle type.
// NativeDecompositionPass and PeepholePass run it on circuit::Operations
// (double angles); compile_template runs it on AffineOps, whose angles are
// affine forms over a template's parameters. An op type needs `kind`,
// `qubits` and a `params` vector of angles. An angle type needs +, binary
// and unary -, * double, implicit construction from a double, and an
// is_multiple_of_two_pi overload that holds only when the angle is a whole
// number of turns at every binding.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "hpcqc/circuit/op.hpp"
#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss::lowering {

using circuit::OpKind;

constexpr double kPi = M_PI;
constexpr double kHalfPi = M_PI / 2.0;

inline bool is_multiple_of_two_pi(double angle) {
  const double wrapped = std::remainder(angle, 2.0 * M_PI);
  return std::abs(wrapped) < 1e-12;
}

/// An angle as an affine form over a template's canonical parameters:
/// constant + sum(coefficient_i * theta_i). Terms are kept sorted by
/// parameter index with exact-zero coefficients dropped, so symbolic() is
/// a syntactic check: a form with no terms is binding-independent. On forms
/// without terms the operators compute exactly what double arithmetic does.
struct Affine {
  double constant;
  std::vector<std::pair<std::uint32_t, double>> terms;

  Affine(double value = 0.0) : constant(value) {}  // implicit: a literal
  bool symbolic() const { return !terms.empty(); }
};

Affine operator+(const Affine& a, const Affine& b);
Affine operator-(const Affine& a);
Affine operator-(const Affine& a, const Affine& b);
Affine operator*(const Affine& a, double factor);

/// Symbol-dependent angles are never identities "for all theta".
inline bool is_multiple_of_two_pi(const Affine& a) {
  return !a.symbolic() && is_multiple_of_two_pi(a.constant);
}

/// One instruction with affine angles.
struct AffineOp {
  OpKind kind = OpKind::kI;
  std::vector<int> qubits;
  std::vector<Affine> params;
};

template <typename Op>
using AngleOf = typename decltype(Op::params)::value_type;

/// ZYZ parameters (theta, phi, lambda) with U = RZ(phi) RY(theta) RZ(lambda)
/// up to global phase.
template <typename Angle>
struct U3 {
  Angle theta{};
  Angle phi{};
  Angle lambda{};
};

template <typename Op>
U3<AngleOf<Op>> u3_of(const Op& op) {
  const auto& p = op.params;
  switch (op.kind) {
    case OpKind::kI: return {0.0, 0.0, 0.0};
    case OpKind::kX: return {kPi, 0.0, kPi};
    case OpKind::kY: return {kPi, kHalfPi, kHalfPi};
    case OpKind::kZ: return {0.0, 0.0, kPi};
    case OpKind::kH: return {kHalfPi, 0.0, kPi};
    case OpKind::kS: return {0.0, 0.0, kHalfPi};
    case OpKind::kSdg: return {0.0, 0.0, -kHalfPi};
    case OpKind::kT: return {0.0, 0.0, kPi / 4.0};
    case OpKind::kTdg: return {0.0, 0.0, -kPi / 4.0};
    case OpKind::kSx: return {kHalfPi, -kHalfPi, kHalfPi};
    case OpKind::kRx: return {p[0], -kHalfPi, kHalfPi};
    case OpKind::kRy: return {p[0], 0.0, 0.0};
    case OpKind::kRz: return {0.0, 0.0, p[0]};
    case OpKind::kU: return {p[0], p[1], p[2]};
    case OpKind::kPrx: return {p[0], p[1] - kHalfPi, kHalfPi - p[1]};
    default:
      throw Error("u3_of: not a single-qubit gate");
  }
}

/// Expands a non-native two-qubit gate into 1q gates + CZ, appending to
/// `out` (recursively for SWAP-built gates).
template <typename Op>
void expand_2q(const Op& op, std::vector<Op>& out) {
  const int a = op.qubits[0];
  const int b = op.qubits[1];
  const auto cx = [&out](int control, int target) {
    out.push_back({OpKind::kH, {target}, {}});
    out.push_back({OpKind::kCz, {control, target}, {}});
    out.push_back({OpKind::kH, {target}, {}});
  };
  switch (op.kind) {
    case OpKind::kCz:
      out.push_back(op);
      return;
    case OpKind::kCx:
      cx(a, b);
      return;
    case OpKind::kSwap:
      cx(a, b);
      cx(b, a);
      cx(a, b);
      return;
    case OpKind::kIswap:
      // iSWAP = SWAP . CZ . (S (x) S)   (operator order; circuit order below)
      out.push_back({OpKind::kS, {a}, {}});
      out.push_back({OpKind::kS, {b}, {}});
      out.push_back({OpKind::kCz, {a, b}, {}});
      expand_2q(Op{OpKind::kSwap, {a, b}, {}}, out);
      return;
    case OpKind::kCphase: {
      const AngleOf<Op> half = op.params[0] * 0.5;
      out.push_back({OpKind::kRz, {a}, {half}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {-half}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {half}});
      return;
    }
    default:
      throw Error("expand_2q: not a two-qubit gate");
  }
}

/// Lowers a placed or routed op stream on `num_qubits` to PRX + CZ. A
/// rotation is emitted unless its angle is a whole number of turns, which
/// a symbol-dependent angle never is: it is an identity only at isolated
/// bindings.
template <typename Op>
std::vector<Op> decompose_native(const std::vector<Op>& ops, int num_qubits) {
  // Stage 1: eliminate non-native two-qubit gates.
  std::vector<Op> intermediate;
  intermediate.reserve(ops.size() * 2);
  for (const auto& op : ops) {
    if (circuit::op_is_two_qubit(op.kind)) {
      expand_2q(op, intermediate);
    } else {
      intermediate.push_back(op);
    }
  }

  // Stage 2: virtual-Z lowering of all single-qubit gates to PRX.
  // Invariant: logical state = RZ(frame[q]) applied to the emitted state;
  // frames commute through CZ and are irrelevant at Z-basis measurement.
  std::vector<Op> native;
  native.reserve(intermediate.size());
  std::vector<AngleOf<Op>> frame(static_cast<std::size_t>(num_qubits), 0.0);
  for (const auto& op : intermediate) {
    if (op.kind == OpKind::kBarrier || op.kind == OpKind::kMeasure ||
        op.kind == OpKind::kCz) {
      native.push_back(op);
      continue;
    }
    const auto u = u3_of(op);
    const auto q = static_cast<std::size_t>(op.qubits[0]);
    if (!is_multiple_of_two_pi(u.theta)) {
      native.push_back({OpKind::kPrx,
                        {op.qubits[0]},
                        {u.theta, kHalfPi - u.lambda - frame[q]}});
    }
    frame[q] = frame[q] + (u.phi + u.lambda);
  }
  return native;
}

/// Peephole cleanup on the native dialect: drops identity rotations, fuses
/// same-axis PRX chains, cancels adjacent CZ pairs. Every rewrite holds at
/// all bindings: fusion needs the two PRX phases to differ by a whole
/// number of turns (the fused angle sum stays affine), and a drop needs a
/// whole-turn angle.
template <typename Op>
std::vector<Op> peephole(std::vector<Op> ops, int num_qubits) {
  const auto is_identity = [](const Op& op) {
    return op.kind == OpKind::kPrx && is_multiple_of_two_pi(op.params[0]);
  };
  bool changed = true;
  int iterations = 0;
  while (changed && iterations++ < 32) {
    changed = false;
    // last_touch[q]: index into `result` of the last op acting on q.
    std::vector<long> last_touch(static_cast<std::size_t>(num_qubits), -1);
    std::vector<Op> result;
    result.reserve(ops.size());

    const auto touch = [&](const Op& op) {
      for (int q : op.qubits)
        last_touch[static_cast<std::size_t>(q)] =
            static_cast<long>(result.size());
    };

    for (const auto& op : ops) {
      if (is_identity(op)) {
        changed = true;
        continue;
      }
      if (op.kind == OpKind::kPrx) {
        const auto q = static_cast<std::size_t>(op.qubits[0]);
        const long prev = last_touch[q];
        if (prev >= 0) {
          Op& before = result[static_cast<std::size_t>(prev)];
          if (before.kind == OpKind::kPrx && before.qubits == op.qubits &&
              is_multiple_of_two_pi(before.params[1] - op.params[1])) {
            before.params[0] = before.params[0] + op.params[0];  // fusion
            changed = true;
            continue;
          }
        }
      }
      if (op.kind == OpKind::kCz) {
        const auto a = static_cast<std::size_t>(op.qubits[0]);
        const auto b = static_cast<std::size_t>(op.qubits[1]);
        const long pa = last_touch[a];
        if (pa >= 0 && pa == last_touch[b]) {
          const Op& before = result[static_cast<std::size_t>(pa)];
          if (before.kind == OpKind::kCz &&
              ((before.qubits[0] == op.qubits[0] &&
                before.qubits[1] == op.qubits[1]) ||
               (before.qubits[0] == op.qubits[1] &&
                before.qubits[1] == op.qubits[0]))) {
            // CZ . CZ = I: drop both. Mark the earlier one as identity PRX
            // so indices stay stable, and skip this one.
            result[static_cast<std::size_t>(pa)] = {
                OpKind::kPrx, {op.qubits[0]}, {0.0, 0.0}};
            changed = true;
            continue;
          }
        }
      }
      if (op.kind == OpKind::kBarrier) {
        std::fill(last_touch.begin(), last_touch.end(),
                  static_cast<long>(result.size()));
        result.push_back(op);
        continue;
      }
      touch(op);
      result.push_back(op);
    }
    ops = std::move(result);
  }
  // Identities introduced by CZ cancellation.
  std::erase_if(ops, is_identity);
  return ops;
}

}  // namespace hpcqc::mqss::lowering
