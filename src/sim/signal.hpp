// Named boolean signals with observers.
//
// Sec. VII: "A watchpoint can be set on a signal, such as the interrupt
// line of a peripheral." Signals are the debugger-visible wires of the
// platform: interrupt lines, DMA-busy, timer-expired. Observers fire
// synchronously on every level change.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/callback_list.hpp"

namespace rw::sim {

class Signal {
 public:
  explicit Signal(std::string name, bool level = false)
      : name_(std::move(name)), level_(level) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool level() const { return level_; }
  [[nodiscard]] std::uint64_t toggle_count() const { return toggles_; }

  /// The token removes exactly this observer.
  using Observer = std::function<void(const Signal&, bool old_level)>;
  using ObserverToken = CallbackList<Observer>::Token;
  ObserverToken add_observer(Observer fn) {
    return observers_.add(std::move(fn));
  }
  void remove_observer(ObserverToken token) { observers_.remove(token); }

  /// Drive the signal; observers run only on actual level changes.
  void set(bool level) {
    if (level == level_) return;
    const bool old = level_;
    level_ = level;
    ++toggles_;
    observers_(*this, old);
  }

  void raise() { set(true); }
  void lower() { set(false); }

  /// Pulse: raise then immediately lower (both edges observable).
  void pulse() {
    set(true);
    set(false);
  }

 private:
  std::string name_;
  bool level_;
  std::uint64_t toggles_ = 0;
  CallbackList<Observer> observers_;
};

}  // namespace rw::sim
