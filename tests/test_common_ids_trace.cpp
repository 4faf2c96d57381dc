#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>

#include "common/fnv.hpp"
#include "common/ids.hpp"
#include "sim/trace.hpp"

namespace rw {
namespace {

struct DemoTag {};
using DemoId = Id<DemoTag>;

TEST(Ids, DefaultIsInvalid) {
  DemoId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, DemoId::invalid());
}

TEST(Ids, ValueAndIndex) {
  DemoId id{7};
  EXPECT_TRUE(id.is_valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(DemoId{1}, DemoId{2});
  EXPECT_EQ(DemoId{3}, DemoId{3});
  EXPECT_NE(DemoId{3}, DemoId{4});
}

TEST(Ids, Hashable) {
  std::unordered_set<DemoId> set;
  set.insert(DemoId{1});
  set.insert(DemoId{2});
  set.insert(DemoId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, Streaming) {
  std::ostringstream os;
  os << DemoId{5} << " " << DemoId{};
  EXPECT_EQ(os.str(), "#5 <invalid>");
}

TEST(TraceEvent, ToStringContainsFields) {
  sim::TraceEvent ev;
  ev.time = 123456;
  ev.kind = sim::TraceKind::kMsgSend;
  ev.core = sim::CoreId{2};
  ev.label = "chan0";
  ev.a = 42;
  const std::string s = ev.to_string();
  EXPECT_NE(s.find("msg_send"), std::string::npos);
  EXPECT_NE(s.find("core2"), std::string::npos);
  EXPECT_NE(s.find("chan0"), std::string::npos);
  EXPECT_NE(s.find("a=42"), std::string::npos);
}

TEST(TraceEvent, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(sim::TraceKind::kCustom); ++k) {
    const char* name =
        sim::trace_kind_name(static_cast<sim::TraceKind>(k));
    EXPECT_STRNE(name, "?");
    EXPECT_GT(std::string(name).size(), 2u);
  }
}

TEST(Tracer, ListenersFireEvenWhenRetentionOff) {
  sim::Tracer tracer;
  tracer.set_enabled(false);
  int fired = 0;
  tracer.add_listener([&](const sim::TraceEvent&) { ++fired; });
  tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(tracer.events().empty());  // nothing retained
  tracer.set_enabled(true);
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(Tracer, RemoveListenerDropsOnlyThatListener) {
  sim::Tracer tracer;
  int a = 0, b = 0;
  const auto ta = tracer.add_listener([&](const sim::TraceEvent&) { ++a; });
  const auto tb = tracer.add_listener([&](const sim::TraceEvent&) { ++b; });
  tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  tracer.remove_listener(ta);
  tracer.remove_listener(ta);  // stale token: no effect
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  // Tokens are never reused, so an old token cannot hit a new listener.
  const auto tc = tracer.add_listener([&](const sim::TraceEvent&) { ++a; });
  EXPECT_NE(tc, ta);
  EXPECT_NE(tc, tb);
}

TEST(Tracer, DigestFoldsWithNoListenerOrRetention) {
  sim::Tracer tracer;
  sim::TraceDigest d;
  d.attach(tracer);
  tracer.record(5, sim::TraceKind::kMemRead, sim::CoreId{1}, "shm", 0x80, 9);
  tracer.record(6, sim::TraceKind::kIrqRaise, sim::CoreId{}, "", 3);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(d.count(), 2u);

  // The fold, spelled out: time, kind, core (~0 when invalid), label
  // bytes, a, b, each word as 8 little-endian bytes.
  auto word = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      h = (h ^ ((v >> (8 * i)) & 0xff)) * fnv::kPrime;
    return h;
  };
  std::uint64_t h = sim::kTraceDigestSeed;
  h = word(h, 5);
  h = word(h, static_cast<std::uint64_t>(sim::TraceKind::kMemRead));
  h = word(h, 1);
  for (const char c : std::string("shm"))
    h = (h ^ static_cast<std::uint8_t>(c)) * fnv::kPrime;
  h = word(h, 0x80);
  h = word(h, 9);
  h = word(h, 6);
  h = word(h, static_cast<std::uint64_t>(sim::TraceKind::kIrqRaise));
  h = word(h, ~0ULL);
  h = word(h, 3);
  h = word(h, 0);
  EXPECT_EQ(d.hash(), h);
}

TEST(Tracer, DigestDetachesWhicheverSideDiesFirst) {
  sim::TraceDigest outer;
  {
    sim::Tracer tracer;
    outer.attach(tracer);
    {
      sim::TraceDigest inner;
      inner.attach(tracer);
      tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "a");
      EXPECT_EQ(inner.count(), 1u);
    }  // inner detaches itself
    tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "b");
    EXPECT_EQ(outer.count(), 2u);
  }  // the tracer detaches outer
  outer.detach();  // no-op, must not touch the dead tracer
  EXPECT_EQ(outer.count(), 2u);
}

TEST(Tracer, FilterByKind) {
  sim::Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(0, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  tracer.record(1, sim::TraceKind::kMemWrite, sim::CoreId{0}, "m");
  tracer.record(2, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemRead).size(), 2u);
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemWrite).size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace rw
