#include "sim/trace.hpp"

#include "common/fnv.hpp"
#include "common/strings.hpp"

namespace rw::sim {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::kTaskStart: return "task_start";
    case TraceKind::kTaskEnd: return "task_end";
    case TraceKind::kComputeStart: return "compute_start";
    case TraceKind::kComputeEnd: return "compute_end";
    case TraceKind::kMsgSend: return "msg_send";
    case TraceKind::kMsgRecv: return "msg_recv";
    case TraceKind::kMemRead: return "mem_read";
    case TraceKind::kMemWrite: return "mem_write";
    case TraceKind::kIrqRaise: return "irq_raise";
    case TraceKind::kIrqAck: return "irq_ack";
    case TraceKind::kDmaStart: return "dma_start";
    case TraceKind::kDmaEnd: return "dma_end";
    case TraceKind::kFreqChange: return "freq_change";
    case TraceKind::kSchedDispatch: return "sched_dispatch";
    case TraceKind::kSchedPreempt: return "sched_preempt";
    case TraceKind::kCustom: return "custom";
  }
  return "?";
}

std::string TraceEvent::to_string() const {
  std::string core_str =
      core.is_valid() ? strformat("core%u", core.value()) : "-";
  return strformat("[%12llu ps] %-14s %-6s %-20s a=%llu b=%llu",
                   static_cast<unsigned long long>(time),
                   trace_kind_name(kind), core_str.c_str(), label.c_str(),
                   static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(b));
}

void TraceDigest::fold(TimePs time, TraceKind kind, CoreId core,
                       std::string_view label, std::uint64_t a,
                       std::uint64_t b) {
  ++count_;
  std::uint64_t h = hash_;
  h = fnv::fold_word(h, time);
  h = fnv::fold_word(h, static_cast<std::uint64_t>(kind));
  h = fnv::fold_word(h, core.is_valid() ? core.value() : ~0ULL);
  h = fnv::fold_bytes(h, label);
  h = fnv::fold_word(h, a);
  hash_ = fnv::fold_word(h, b);
}

void TraceDigest::attach(Tracer& tracer) {
  detach();
  tracer.digests_.push_back(this);
  tracer_ = &tracer;
}

void TraceDigest::detach() {
  if (tracer_ == nullptr) return;
  std::erase(tracer_->digests_, this);
  tracer_ = nullptr;
}

Tracer::~Tracer() {
  for (TraceDigest* d : digests_) d->tracer_ = nullptr;
}

void Tracer::publish(TraceEvent ev) {
  listeners_(ev);
  if (enabled_) events_.push_back(std::move(ev));
}

}  // namespace rw::sim
