#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "cvsafe/obs/event.hpp"
#include "cvsafe/util/contracts.hpp"

/// \file flight_recorder.hpp
/// Fleet-scale flight recorder: a fixed-capacity, zero-allocation ring
/// buffer of compact binary events embedded in every pool lane.
///
/// The per-episode `obs::Recorder` buffers *whole* episodes as tagged
/// variants — fine for a handful of traced runs, infeasible at 8k-lane
/// pools. The `RingRecorder` instead keeps only the causal tail: each
/// event is a 16-byte POD written into a preallocated ring, and the full
/// JSONL trace is materialized *only* when an episode trips a trigger
/// condition at retire time (min-eta below threshold, EMERGENCY entry,
/// unsafe-set entry, hardened-gate rejection burst).
///
/// Determinism contract: events are emitted by per-episode control-stack
/// code (gate screens, monitor verdicts, ladder transitions) whose order
/// is pinned by the engine's draw-order contract, triggers are evaluated
/// from per-episode state only, and dumps are collected keyed by episode
/// index and serialized in index order — so the dump bytes are identical
/// across thread counts and pool sizes.
///
/// The emit path follows the recorder discipline exactly: callers guard
/// with `ring_recording(ring)` (one pointer/flag test) and
/// `CVSAFE_TRACE_LEVEL=0` compiles the bodies out.

#ifndef CVSAFE_TRACE_LEVEL
#define CVSAFE_TRACE_LEVEL 1
#endif

namespace cvsafe::obs {

/// Event kinds recorded in the ring. The set is deliberately small and
/// closed: every kind is 1 byte and its code/aux/value layout is fixed
/// (see ring_event_jsonl_line).
enum class RingEventKind : std::uint8_t {
  kMessageAccept = 0,    ///< gate admitted a message (aux=sender, value=stamp)
  kMessageReject = 1,    ///< gate rejected (code=GateRejectReason, aux=sender)
  kGateVerdict = 2,      ///< monitor switched lanes (code=1 emergency)
  kLadderTransition = 3, ///< degradation level change (code=to, aux=from)
  kEtaSample = 4,        ///< per-step boundary slack sample (value=slack)
  kPlanClamp = 5,        ///< commanded accel outside actuator limits
};

/// Number of distinct RingEventKind values (array sizing).
inline constexpr std::size_t kNumRingEventKinds = 6;

/// Stable lowercase name for JSONL serialization.
const char* ring_event_kind_name(RingEventKind kind);

/// One compact binary flight-recorder event: 16 bytes, trivially
/// copyable, no heap. `step` is the control step the event was emitted
/// in (stamped by EpisodeRunner::observe_begin), `kind` selects the
/// code/aux/value interpretation.
struct RingEvent {
  std::uint32_t step = 0;
  std::uint8_t kind = 0;
  std::uint8_t code = 0;
  std::uint16_t aux = 0;
  double value = 0.0;
};
static_assert(sizeof(RingEvent) == 16, "RingEvent must stay compact");

/// Trigger bits: why an episode's ring was dumped. An episode may trip
/// several at once; the dump header lists every reason.
enum RingTrigger : unsigned {
  kTriggerEta = 1u << 0,            ///< final eta below eta_threshold
  kTriggerEmergency = 1u << 1,      ///< monitor entered EMERGENCY at least once
  kTriggerUnsafe = 1u << 2,         ///< episode entered the unsafe set
  kTriggerRejectionBurst = 1u << 3, ///< gate rejections reached rejection_burst
};

/// Name of a single trigger bit (exactly one bit set).
const char* ring_trigger_name(unsigned bit);

/// Arming parameters shared by every lane of a pool. The defaults are
/// tuned so a hardened fault-campaign cell produces dumps while a
/// nominal cell stays silent.
struct FlightRecorderConfig {
  /// Ring slots per lane. The ring keeps the causal *tail*: when full,
  /// the oldest event is overwritten and counted (never silent).
  std::size_t ring_capacity = 256;
  /// Dump when the episode's final eta is strictly below this.
  double eta_threshold = 0.05;
  /// Dump when the gate rejected at least this many messages. 0 disables
  /// the burst trigger.
  std::size_t rejection_burst = 8;
  /// Dump on EMERGENCY entry / unsafe-set entry.
  bool on_emergency = true;
  bool on_unsafe = true;
};

/// Fixed-capacity event ring for one pool lane. Armed once (allocating),
/// then reset at every admission and written with plain array stores —
/// the steady-state emit path performs zero allocations.
///
/// Like obs::Recorder, a RingRecorder is single-threaded by design: one
/// lane, one ring. Lane compaction swaps ring *pointers*, never rings,
/// so episodes can hold stable `RingRecorder*` across refills.
class RingRecorder {
 public:
  static constexpr bool kCompiledIn = CVSAFE_TRACE_LEVEL > 0;

  RingRecorder() = default;
  explicit RingRecorder(const FlightRecorderConfig& config) { arm(config); }

  /// Allocates the ring storage. The only allocating call; everything
  /// after runs on the preallocated slots.
  void arm(const FlightRecorderConfig& config) {
    CVSAFE_EXPECTS(config.ring_capacity > 0,
                   "flight recorder ring capacity must be positive");
    config_ = config;
    events_.assign(config.ring_capacity, RingEvent{});
    armed_ = kCompiledIn;
    reset();
  }

  bool armed() const { return armed_; }
  const FlightRecorderConfig& config() const { return config_; }

  /// Clears the ring and the per-episode trigger state. Called at lane
  /// admission so one ring serves many episodes.
  void reset() {
    head_ = 0;
    count_ = 0;
    overwritten_ = 0;
    step_ = 0;
    rejections_ = 0;
    saw_emergency_ = false;
  }

  /// Stamp the control step applied to subsequent events.
  void begin_step(std::uint32_t step) { step_ = step; }

  // --- emit points (guard with ring_recording(ring) at the call site) ---

  void message_accept(std::uint16_t sender, double stamp) {
    push(RingEventKind::kMessageAccept, 0, sender, stamp);
  }
  void message_reject(std::uint16_t sender, GateRejectReason reason,
                      double stamp) {
    ++rejections_;
    push(RingEventKind::kMessageReject, static_cast<std::uint8_t>(reason),
         sender, stamp);
  }
  void gate_verdict(bool emergency, double slack) {
    if (emergency) saw_emergency_ = true;
    push(RingEventKind::kGateVerdict, emergency ? 1 : 0, 0, slack);
  }
  void ladder_transition(std::uint8_t from, std::uint8_t to, double t) {
    push(RingEventKind::kLadderTransition, to, from, t);
  }
  void eta_sample(double slack) { push(RingEventKind::kEtaSample, 0, 0, slack); }
  /// code 0 = clamped up to a_min, 1 = clamped down to a_max.
  void plan_clamp(double requested, double limit) {
    push(RingEventKind::kPlanClamp, requested < limit ? 0 : 1, 0, requested);
  }

  // --- trigger evaluation (retire time) ---

  /// Bitmask of RingTrigger reasons given the episode outcome. Evaluated
  /// from per-episode state only (ring-tracked flags + the finished
  /// record), so the verdict is independent of scheduling.
  unsigned triggers(double eta, bool collided) const {
    unsigned mask = 0;
    if (eta < config_.eta_threshold) mask |= kTriggerEta;
    if (config_.on_emergency && saw_emergency_) mask |= kTriggerEmergency;
    if (config_.on_unsafe && collided) mask |= kTriggerUnsafe;
    if (config_.rejection_burst > 0 && rejections_ >= config_.rejection_burst) {
      mask |= kTriggerRejectionBurst;
    }
    return mask;
  }

  /// Gate rejections recorded since the last reset.
  std::size_t rejections() const { return rejections_; }
  bool saw_emergency() const { return saw_emergency_; }

  // --- snapshot (dump time; allocation allowed here) ---

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return events_.size(); }
  /// Events evicted because the ring wrapped.
  std::size_t overwritten() const { return overwritten_; }

  /// The i-th retained event in causal order (0 = oldest retained).
  const RingEvent& event(std::size_t i) const {
    CVSAFE_EXPECTS(i < count_, "ring event index out of range");
    const std::size_t capacity = events_.size();
    const std::size_t oldest = (head_ + capacity - count_) % capacity;
    return events_[(oldest + i) % capacity];
  }

  /// Copies the retained events in causal order.
  std::vector<RingEvent> snapshot() const {
    std::vector<RingEvent> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) out.push_back(event(i));
    return out;
  }

 private:
  void push(RingEventKind kind, std::uint8_t code, std::uint16_t aux,
            double value) {
#if CVSAFE_TRACE_LEVEL > 0
    RingEvent& slot = events_[head_];
    slot.step = step_;
    slot.kind = static_cast<std::uint8_t>(kind);
    slot.code = code;
    slot.aux = aux;
    slot.value = value;
    head_ = head_ + 1 == events_.size() ? 0 : head_ + 1;
    if (count_ < events_.size()) {
      ++count_;
    } else {
      ++overwritten_;
    }
#else
    (void)kind, (void)code, (void)aux, (void)value;
#endif
  }

  FlightRecorderConfig config_{};
  std::vector<RingEvent> events_;
  bool armed_ = false;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t overwritten_ = 0;
  std::uint32_t step_ = 0;
  std::size_t rejections_ = 0;
  bool saw_emergency_ = false;
};

/// Call-site guard mirroring obs::recording(): true when \p ring is
/// attached and armed. Emit arguments (slack, level names) are not free
/// to build, so sites test this before constructing them.
inline bool ring_recording(const RingRecorder* ring) {
  return RingRecorder::kCompiledIn && ring != nullptr && ring->armed();
}

/// One triggered episode's dumped trace: header metadata plus the ring
/// snapshot in causal order.
struct FlightDump {
  std::size_t episode = 0;    ///< episode index (the determinism key)
  std::uint64_t seed = 0;     ///< episode seed
  unsigned triggers = 0;      ///< RingTrigger bitmask (nonzero)
  double eta = 0.0;           ///< final evaluation value
  bool collided = false;
  std::size_t rejections = 0;  ///< gate rejections over the episode
  std::size_t overwritten = 0; ///< events evicted by ring wraparound
  std::vector<RingEvent> events;
};

/// Thread-safe sink the pool's retire path hands triggered dumps to.
/// Collection order is scheduling-dependent; serialization sorts by
/// episode index, which restores byte-identity.
class FlightDumpCollector {
 public:
  void add(FlightDump dump) {
    const std::lock_guard<std::mutex> lock(mutex_);
    dumps_.push_back(std::move(dump));
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dumps_.size();
  }

  /// Moves the collected dumps out, sorted by episode index.
  std::vector<FlightDump> take_sorted();

 private:
  mutable std::mutex mutex_;
  std::vector<FlightDump> dumps_;
};

/// Serializes one dump: a header line ("flight" object) followed by one
/// line per event, fixed key order, doubles in %.17g — byte-identical
/// for identical dumps.
void write_flight_dump_jsonl(std::ostream& os, const FlightDump& dump,
                             const std::string& scenario = std::string(),
                             const std::string& fault = std::string());

/// Serializes every dump in episode-index order (sorts a copy of the
/// collector's take). Returns the number of dumps written.
std::size_t write_flight_dumps_jsonl(std::ostream& os,
                                     std::vector<FlightDump> dumps,
                                     const std::string& scenario = std::string(),
                                     const std::string& fault = std::string());

}  // namespace cvsafe::obs
