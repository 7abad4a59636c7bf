// Reverse-mode automatic differentiation.
//
// A Variable wraps a Tensor value plus (lazily allocated) gradient storage
// and the backward closure that propagates a cotangent to its parents. The
// graph is a DAG of shared_ptr-linked nodes; Variable::backward() runs a
// topological sweep. This is a deliberately small tape — just enough for the
// DOINN / UNet / DAMO training graphs — with every op's gradient verified by
// numeric gradcheck in tests/test_autograd.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace litho::ag {

class Variable;

namespace detail {

/// Next process-wide VarState serial: starts at 1, never reused.
uint64_t next_var_serial();

struct VarState {
  /// Identity that outlives the state: graph capture keys slots by it, so a
  /// freed state's recycled address can never alias a live slot.
  const uint64_t serial = next_var_serial();
  Tensor value;
  Tensor grad;              // valid iff grad_defined
  bool grad_defined = false;
  bool requires_grad = false;
  std::vector<std::shared_ptr<VarState>> parents;
  /// Propagates this node's accumulated gradient into parents' grads.
  std::function<void(const Tensor& grad_out)> backward_fn;

  /// grad += g, allocating on first use.
  void accumulate(const Tensor& g);
};

}  // namespace detail

/// Node in the autograd graph; cheap to copy (shared state).
class Variable {
 public:
  /// Empty variable (no value). Valid only as a placeholder.
  Variable();

  /// Leaf variable holding @p value.
  explicit Variable(Tensor value, bool requires_grad = false);

  const Tensor& value() const { return state_->value; }
  Tensor& mutable_value() { return state_->value; }
  const Shape& shape() const { return state_->value.shape(); }

  bool requires_grad() const { return state_->requires_grad; }
  bool defined() const { return state_ != nullptr && state_->value.numel() > 0; }

  /// Gradient tensor; zeros of value-shape if backward has not reached this
  /// node (or zero_grad was called).
  const Tensor& grad() const;
  /// Clears accumulated gradient (leaf use; graph nodes are transient).
  void zero_grad();

  /// Runs backward from this (scalar) variable with seed gradient 1.
  void backward();
  /// Runs backward with an explicit seed cotangent of value-shape.
  void backward(const Tensor& seed);

  /// Internal: constructs a non-leaf node. Exposed for op implementations.
  static Variable make_node(Tensor value, std::vector<Variable> parents,
                            std::function<void(const Tensor&)> backward_fn);

  /// Internal: shared state access for op implementations.
  const std::shared_ptr<detail::VarState>& state() const { return state_; }

 private:
  std::shared_ptr<detail::VarState> state_;
};

/// Pair of Variables viewed as the real / imaginary parts of a complex
/// tensor; the Fourier Unit ops operate on these.
struct CVariable {
  Variable re;
  Variable im;
};

}  // namespace litho::ag
