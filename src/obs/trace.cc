#include "src/obs/trace.h"

#include <cassert>

namespace psd {

const char* TraceLayerName(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kKern:
      return "kern";
    case TraceLayer::kIpc:
      return "ipc";
    case TraceLayer::kFilter:
      return "filter";
    case TraceLayer::kInet:
      return "inet";
    case TraceLayer::kSock:
      return "sock";
    case TraceLayer::kCore:
      return "core";
    case TraceLayer::kServ:
      return "serv";
    case TraceLayer::kWire:
      return "wire";
    case TraceLayer::kApp:
      return "app";
    case TraceLayer::kNumLayers:
      break;
  }
  return "?";
}

ProfDomain LayerProfDomain(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kKern:
      return ProfDomain::kKernTrap;
    case TraceLayer::kIpc:
      return ProfDomain::kIpcPort;
    case TraceLayer::kFilter:
      return ProfDomain::kFilterClassify;
    case TraceLayer::kInet:
      return ProfDomain::kInetOther;
    case TraceLayer::kSock:
      return ProfDomain::kSockOther;
    case TraceLayer::kCore:
      return ProfDomain::kCoreRpc;
    case TraceLayer::kServ:
      return ProfDomain::kServRpc;
    case TraceLayer::kApp:
      return ProfDomain::kApp;
    case TraceLayer::kWire:
      return ProfDomain::kWireDeliver;
    case TraceLayer::kNumLayers:
      break;
  }
  return ProfDomain::kOther;
}

void Tracer::Begin(Simulator* sim, const char* name, TraceLayer layer, int stage, uint64_t sid,
                   bool exclusive) {
  const void* key = sim->current_thread();
  open_[key].push_back(Open{name, layer, stage, sid, exclusive, sim->Now()});
}

void Tracer::End(Simulator* sim, bool commit) {
  const void* key = sim->current_thread();
  auto it = open_.find(key);
  assert(it != open_.end() && !it->second.empty());
  Open o = it->second.back();
  it->second.pop_back();
  SimDuration elapsed = sim->Now() - o.start;
  if (commit) {
    TraceSpanData span;
    span.name = o.name;
    span.layer = o.layer;
    span.stage = o.stage;
    span.sid = o.sid;
    span.begin = o.start;
    span.dur = elapsed;
    span.child = o.child;
    span.thread = sim->current_thread();
    for (TraceSink* s : sinks_) {
      s->OnSpan(span);
    }
  }
  if (it->second.empty()) {
    open_.erase(it);
  } else if (o.exclusive) {
    // Only exclusive (stage-mapped) spans subtract from the enclosing span's
    // self-time; this preserves the pre-tracer Table 4 accounting when
    // free-form spans (IPC hops etc.) open inside a stage span.
    it->second.back().child += elapsed;
  }
}

void Tracer::EmitToSinks(Simulator* sim, const char* name, TraceLayer layer, int stage,
                         SimTime begin, SimDuration dur, uint64_t sid) {
  TraceSpanData span;
  span.name = name;
  span.layer = layer;
  span.stage = stage;
  span.sid = sid;
  span.begin = begin;
  span.dur = dur;
  span.child = 0;
  span.thread = sim->current_thread();
  for (TraceSink* s : sinks_) {
    s->OnSpan(span);
  }
}

void Tracer::InstantToSinks(Simulator* sim, const char* name, TraceLayer layer, uint64_t sid) {
  for (TraceSink* s : sinks_) {
    s->OnInstant(name, layer, sim->Now(), sim->current_thread(), sid);
  }
}

}  // namespace psd
