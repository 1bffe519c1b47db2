// Outside-in layer tracing. The benchmark times the calls it makes into
// each layer from seams it wires up itself, so the simulator is never
// edited to be measured:
//   * QueueShim sits in front of every queue on a route (net.enqueue);
//   * HopShim is the last hop of every forward route, just before the
//     receiver (mptcp.rx), and of every reverse route, just before the
//     subflow (tcp.ack);
//   * TracedCc decorates the congestion-control algorithm (cc);
//   * churn's connection factory is wrapped in an mptcp.open span.
// Spans nest; a span's self time is its duration minus its child spans.
// Time no span covers is the event loop's own (core.loop_self_s).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"

namespace perfbench {

enum Layer : int { kEnqueue, kRx, kAck, kCc, kOpen, kLayerCount };

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "net.enqueue", "mptcp.rx", "tcp.ack", "cc", "mptcp.open"};

inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One sampled span, written out at exit.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = called straight from the event loop
  int layer = 0;
  std::uint32_t flow = 0;
  std::int64_t start_ns = 0;  // relative to the tracer's origin
  std::int64_t end_ns = 0;
};

// In-memory span aggregation for one traced run.
class Tracer {
 public:
  static constexpr std::size_t kMaxDepth = 32;
  static constexpr std::uint64_t kSampleEvery = 997;
  static constexpr std::size_t kMaxSamples = 4096;

  Tracer() : origin_(clock_ns()) {}

  void begin(Layer layer, std::uint32_t flow) {
    if (depth_ == kMaxDepth) {  // not recorded; its end() is skipped too
      ++overflows_;
      ++skipped_;
      return;
    }
    Frame& f = stack_[depth_];
    f.id = ++next_id_;
    f.layer = layer;
    f.flow = (flow == 0 && depth_ > 0) ? stack_[depth_ - 1].flow : flow;
    f.child_ns = 0;
    ++depth_;
    f.start_ns = clock_ns();
  }

  void end() {
    const std::int64_t now = clock_ns();
    if (skipped_ > 0) {
      --skipped_;
      return;
    }
    if (depth_ == 0) {
      ++overflows_;
      return;
    }
    const Frame& f = stack_[--depth_];
    const std::int64_t dur = now - f.start_ns;
    self_ns_[f.layer] += dur - f.child_ns;
    ++calls_[f.layer];
    if (depth_ == 0) {
      covered_ns_ += dur;
    } else {
      stack_[depth_ - 1].child_ns += dur;
    }
    if (f.id % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      samples_.push_back({f.id, depth_ > 0 ? stack_[depth_ - 1].id : 0,
                          f.layer, f.flow, f.start_ns - origin_,
                          now - origin_});
    }
  }

  // Tags the innermost open span with a flow id learned after it began.
  void tag_flow(std::uint32_t flow) {
    if (depth_ > 0) stack_[depth_ - 1].flow = flow;
  }

  std::size_t depth() const { return depth_; }
  std::uint64_t overflows() const { return overflows_; }
  std::uint64_t calls(Layer l) const { return calls_[l]; }
  std::int64_t self_ns(Layer l) const { return self_ns_[l]; }
  // Sum of top-level span durations: the run time some span covers.
  std::int64_t covered_ns() const { return covered_ns_; }
  const std::vector<SpanRecord>& samples() const { return samples_; }

 private:
  struct Frame {
    std::uint64_t id;
    int layer;
    std::uint32_t flow;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::int64_t origin_;
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::size_t skipped_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t overflows_ = 0;
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::int64_t covered_ns_ = 0;
  std::vector<SpanRecord> samples_;
};

class Span {
 public:
  Span(Tracer& t, Layer layer, std::uint32_t flow = 0) : t_(t) {
    t_.begin(layer, flow);
  }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

// Stands in front of a queue on a route.
class QueueShim final : public mpsim::net::PacketSink {
 public:
  QueueShim(Tracer& t, mpsim::net::Queue& q) : t_(t), q_(q) {}
  void receive(mpsim::net::Packet& pkt) override {
    Span s(t_, kEnqueue, pkt.flow_id);
    q_.receive(pkt);  // may release pkt (tail drop): do not touch it after
  }
  const std::string& sink_name() const override { return q_.sink_name(); }

 private:
  Tracer& t_;
  mpsim::net::Queue& q_;
};

// Pass-through last hop: times the delivery into the route's endpoint.
class HopShim final : public mpsim::net::PacketSink {
 public:
  HopShim(Tracer& t, Layer layer)
      : t_(t), layer_(layer), name_(kLayerNames[layer]) {}
  void receive(mpsim::net::Packet& pkt) override {
    Span s(t_, layer_, pkt.flow_id);
    pkt.advance();
  }
  const std::string& sink_name() const override { return name_; }

 private:
  Tracer& t_;
  Layer layer_;
  std::string name_;
};

// Congestion-control decorator: every per-ACK / per-loss / rate-sample
// call into the algorithm is one cc span.
class TracedCc final : public mpsim::cc::CongestionControl {
 public:
  TracedCc(Tracer& t, const mpsim::cc::CongestionControl& inner)
      : t_(t), inner_(inner) {}

  double increase_per_ack(const mpsim::cc::ConnectionView& c,
                          std::size_t r) const override {
    Span s(t_, kCc);
    return inner_.increase_per_ack(c, r);
  }
  double window_after_loss(const mpsim::cc::ConnectionView& c,
                           std::size_t r) const override {
    Span s(t_, kCc);
    return inner_.window_after_loss(c, r);
  }
  std::string name() const override { return inner_.name(); }
  bool rate_based() const override { return inner_.rate_based(); }
  void on_ack_sample(const mpsim::cc::ConnectionView& c, std::size_t r,
                     const mpsim::cc::DeliveryRateSample& smp) const override {
    Span s(t_, kCc);
    inner_.on_ack_sample(c, r, smp);
  }
  double pacing_rate(const mpsim::cc::ConnectionView& c,
                     std::size_t r) const override {
    Span s(t_, kCc);
    return inner_.pacing_rate(c, r);
  }
  double cwnd_gain(const mpsim::cc::ConnectionView& c,
                   std::size_t r) const override {
    Span s(t_, kCc);
    return inner_.cwnd_gain(c, r);
  }
  double target_cwnd_pkts(const mpsim::cc::ConnectionView& c,
                          std::size_t r) const override {
    Span s(t_, kCc);
    return inner_.target_cwnd_pkts(c, r);
  }

 private:
  Tracer& t_;
  const mpsim::cc::CongestionControl& inner_;
};

}  // namespace perfbench
