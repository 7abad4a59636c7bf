// Module system: named parameters, buffers, submodules, train/eval mode,
// state_dict save/load. Submodules are plain members of the derived class
// registered by pointer (the parent owns them by composition), mirroring how
// the DOINN/UNet/DAMO models are assembled.
#pragma once

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace litho {
enum class Precision;  // tensor/prepack.h
}

namespace litho::nn {

/// Base class for neural network modules.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, depth-first over submodules.
  std::vector<ag::Variable> parameters() const;

  /// Total trainable element count.
  int64_t num_parameters() const;

  /// Flattened name -> tensor map of parameters and buffers, with dotted
  /// submodule prefixes ("lp.conv1.weight").
  std::map<std::string, Tensor> state_dict() const;

  /// Loads values (copies into existing parameter/buffer storage). Missing
  /// or shape-mismatched entries throw std::runtime_error.
  void load_state_dict(const std::map<std::string, Tensor>& dict);

  /// Sets training mode (affects BatchNorm) on this module and children.
  void set_training(bool training);
  bool training() const { return training_; }

  /// Packs forward-pass weights into the GEMM engine's panel layout for
  /// inference, recursing into children; every packable layer gets the one
  /// given precision. Layers with a packable forward (Conv2d,
  /// ConvTranspose2d) override this; the packed panels are consulted only
  /// while gradients are disabled, so training paths never see them. Call
  /// again after mutating weights — packs are snapshots, not views.
  virtual void prepack_forward(litho::Precision precision);

  /// Zeroes gradients of all parameters.
  void zero_grad();

 protected:
  /// Registers and returns a trainable parameter initialized to @p init.
  ag::Variable register_parameter(const std::string& name, Tensor init);

  /// Registers a non-trainable buffer (e.g. BatchNorm running stats);
  /// returned reference stays valid for the module's lifetime.
  Tensor& register_buffer(const std::string& name, Tensor init);

  /// Registers a submodule held by the derived class.
  void register_module(const std::string& name, Module* child);

 private:
  void collect(const std::string& prefix,
               std::map<std::string, Tensor>& out) const;
  void load(const std::string& prefix,
            const std::map<std::string, Tensor>& dict);

  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::vector<std::pair<std::string, std::unique_ptr<Tensor>>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace litho::nn
