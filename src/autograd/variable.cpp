#include "autograd/variable.h"

#include <atomic>
#include <stdexcept>
#include <unordered_set>

#include "autograd/grad_mode.h"

namespace litho::ag {

namespace detail {

uint64_t next_var_serial() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void VarState::accumulate(const Tensor& g) {
  if (!requires_grad) return;
  if (!grad_defined) {
    grad = g.clone();
    grad_defined = true;
  } else {
    grad.add_(g);
  }
}

}  // namespace detail

Variable::Variable() : state_(std::make_shared<detail::VarState>()) {}

Variable::Variable(Tensor value, bool requires_grad)
    : state_(std::make_shared<detail::VarState>()) {
  state_->value = std::move(value);
  state_->requires_grad = requires_grad;
}

const Tensor& Variable::grad() const {
  if (!state_->grad_defined) {
    state_->grad = Tensor::zeros(state_->value.shape());
    state_->grad_defined = true;
  }
  return state_->grad;
}

void Variable::zero_grad() {
  state_->grad = Tensor();
  state_->grad_defined = false;
}

void Variable::backward() {
  if (state_->value.numel() != 1) {
    throw std::logic_error(
        "backward() without seed requires a scalar variable; shape is " +
        shape_to_string(state_->value.shape()));
  }
  backward(Tensor::ones(state_->value.shape()));
}

void Variable::backward(const Tensor& seed) {
  if (!seed.same_shape(state_->value)) {
    throw std::invalid_argument("backward seed shape mismatch");
  }
  // Topological order by DFS over parents.
  std::vector<detail::VarState*> order;
  std::unordered_set<detail::VarState*> visited;
  std::vector<std::pair<detail::VarState*, size_t>> stack;
  stack.emplace_back(state_.get(), 0);
  visited.insert(state_.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      detail::VarState* p = node->parents[next].get();
      ++next;
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  state_->accumulate(seed);
  // `order` is post-order (children before parents reversed): iterate from
  // the back (root first).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::VarState* node = *it;
    if (node->backward_fn && node->grad_defined) {
      node->backward_fn(node->grad);
      // Graph-internal gradients are not needed after propagation; free the
      // memory so deep models don't hold every intermediate cotangent.
      if (node->backward_fn) {
        node->grad = Tensor();
        node->grad_defined = false;
      }
    }
  }
}

Variable Variable::make_node(Tensor value, std::vector<Variable> parents,
                             std::function<void(const Tensor&)> backward_fn) {
  Variable v;
  v.state_->value = std::move(value);
  // Under NoGradGuard the node is a plain value: no parents, no closure, so
  // intermediate activations die with their consumers instead of living on
  // the tape until backward().
  if (!GradMode::is_enabled()) return v;
  bool needs = false;
  for (const Variable& p : parents) {
    needs = needs || p.requires_grad();
    v.state_->parents.push_back(p.state());
  }
  v.state_->requires_grad = needs;
  if (needs) {
    v.state_->backward_fn = std::move(backward_fn);
    detail::count_tape_node();
  }
  return v;
}

}  // namespace litho::ag
