#include "autograd/capture.h"

#include <stdexcept>
#include <utility>

namespace litho::ag {

namespace {
thread_local GraphRecorder* tls_recorder = nullptr;
}  // namespace

GraphRecorder::GraphRecorder()
    : graph_(std::make_shared<CapturedGraph>()), prev_(tls_recorder) {
  tls_recorder = this;
}

GraphRecorder::~GraphRecorder() { tls_recorder = prev_; }

GraphRecorder* GraphRecorder::current() { return tls_recorder; }

int GraphRecorder::new_slot(const Variable& v) {
  const int id = static_cast<int>(graph_->slots.size());
  CaptureSlot slot;
  slot.shape = v.value().shape();
  slot.numel = v.value().numel();
  graph_->slots.push_back(std::move(slot));
  slot_of_.emplace(v.state()->serial, id);
  return id;
}

int GraphRecorder::slot_for_read(const Variable& v) {
  auto it = slot_of_.find(v.state()->serial);
  if (it != slot_of_.end()) return it->second;
  // Not produced by a recorded node and not a registered input: freeze the
  // current value as a constant. The slot shares the tensor's storage, so
  // the bytes stay valid for the graph's lifetime.
  const int id = new_slot(v);
  CaptureSlot& slot = graph_->slots[static_cast<size_t>(id)];
  slot.constant = v.value();
  slot.parameter = v.requires_grad();
  return id;
}

int GraphRecorder::slot_for_write(const Variable& v, int node) {
  if (slot_of_.count(v.state()->serial) != 0) {
    throw std::logic_error(
        "GraphRecorder: an op wrote a Variable already mapped to a slot");
  }
  const int id = new_slot(v);
  graph_->slots[static_cast<size_t>(id)].producer = node;
  return id;
}

void GraphRecorder::add_input(const Variable& v) {
  if (slot_of_.count(v.state()->serial) != 0) {
    throw std::logic_error("GraphRecorder: duplicate input registration");
  }
  const int id = new_slot(v);
  graph_->slots[static_cast<size_t>(id)].is_input = true;
  graph_->inputs.push_back(id);
}

void GraphRecorder::mark_output(const Variable& v) {
  graph_->outputs.push_back(slot_for_read(v));
}

CaptureNode& GraphRecorder::record(const char* kind,
                                   const std::vector<Variable>& ins,
                                   const std::vector<Variable>& outs,
                                   ReplayFn fn) {
  const int node_id = static_cast<int>(graph_->nodes.size());
  CaptureNode node;
  node.kind = kind;
  node.ins.reserve(ins.size());
  for (const Variable& v : ins) node.ins.push_back(slot_for_read(v));
  node.outs.reserve(outs.size());
  for (const Variable& v : outs) {
    node.outs.push_back(slot_for_write(v, node_id));
  }
  node.run = std::move(fn);
  graph_->nodes.push_back(std::move(node));
  return graph_->nodes.back();
}

std::shared_ptr<CapturedGraph> GraphRecorder::finish() {
  return std::move(graph_);
}

}  // namespace litho::ag
