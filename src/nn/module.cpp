#include "nn/module.h"

#include <stdexcept>

namespace litho::nn {

std::vector<ag::Variable> Module::parameters() const {
  std::vector<ag::Variable> out;
  for (const auto& [name, p] : params_) out.push_back(p);
  for (const auto& [name, child] : children_) {
    const auto sub = child->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

int64_t Module::num_parameters() const {
  int64_t n = 0;
  for (const ag::Variable& p : parameters()) n += p.value().numel();
  return n;
}

std::map<std::string, Tensor> Module::state_dict() const {
  std::map<std::string, Tensor> out;
  collect("", out);
  return out;
}

void Module::collect(const std::string& prefix,
                     std::map<std::string, Tensor>& out) const {
  for (const auto& [name, p] : params_) out.emplace(prefix + name, p.value());
  for (const auto& [name, b] : buffers_) out.emplace(prefix + name, *b);
  for (const auto& [name, child] : children_) {
    child->collect(prefix + name + ".", out);
  }
}

void Module::load_state_dict(const std::map<std::string, Tensor>& dict) {
  load("", dict);
}

void Module::load(const std::string& prefix,
                  const std::map<std::string, Tensor>& dict) {
  auto fetch = [&](const std::string& key, Tensor& into) {
    const auto it = dict.find(key);
    if (it == dict.end()) {
      throw std::runtime_error("state_dict missing key: " + key);
    }
    if (!it->second.same_shape(into)) {
      throw std::runtime_error("state_dict shape mismatch for " + key + ": " +
                               shape_to_string(it->second.shape()) + " vs " +
                               shape_to_string(into.shape()));
    }
    std::copy(it->second.data(), it->second.data() + it->second.numel(),
              into.data());
  };
  for (auto& [name, p] : params_) fetch(prefix + name, p.mutable_value());
  for (auto& [name, b] : buffers_) fetch(prefix + name, *b);
  for (auto& [name, child] : children_) child->load(prefix + name + ".", dict);
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

void Module::prepack_forward(litho::Precision precision) {
  for (auto& [name, child] : children_) child->prepack_forward(precision);
}

void Module::zero_grad() {
  for (ag::Variable& p : parameters()) p.zero_grad();
}

ag::Variable Module::register_parameter(const std::string& name, Tensor init) {
  ag::Variable v(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(name, v);
  return v;
}

Tensor& Module::register_buffer(const std::string& name, Tensor init) {
  buffers_.emplace_back(name, std::make_unique<Tensor>(std::move(init)));
  return *buffers_.back().second;
}

void Module::register_module(const std::string& name, Module* child) {
  if (child == nullptr) throw std::invalid_argument("null submodule");
  children_.emplace_back(name, child);
}

}  // namespace litho::nn
