// Callbacks that each client can remove by token without disturbing the
// others (tracer listeners, memory and signal observers). Tokens are never
// reused, so a stale token removes nothing. There is deliberately no
// clear(): a client that wipes the list also drops every other client's
// hooks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rw {

template <typename Fn>
class CallbackList {
 public:
  using Token = std::size_t;

  Token add(Fn fn) {
    items_.emplace_back(next_, std::move(fn));
    return next_++;
  }
  /// Drop the callback behind `token`; unknown tokens are ignored. Not
  /// to be called from inside a callback of the same list.
  void remove(Token token) {
    std::erase_if(items_,
                  [token](const auto& item) { return item.first == token; });
  }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  template <typename... Args>
  void operator()(const Args&... args) const {
    for (const auto& item : items_)
      if (item.second) item.second(args...);
  }

 private:
  std::vector<std::pair<Token, Fn>> items_;
  Token next_ = 0;
};

}  // namespace rw
