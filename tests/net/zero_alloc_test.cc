// Counting-allocator proof of the allocation-free request path: after
// warm-up, serving PRICE_AT requests must perform ZERO heap allocations
// on the server side (shard threads). This binary replaces the global
// operator new/delete with counters — per thread and process-wide — so
// server-side allocations are (total delta) − (this-thread delta) while
// the only other live thread is the shard serving our connection.
//
// This test has its own binary (see tests/CMakeLists.txt): the operator
// new replacement is process-global and must not leak into other suites.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serving/catalog_registry.h"

namespace {

std::atomic<uint64_t> g_total_allocs{0};
thread_local uint64_t t_thread_allocs = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_thread_allocs;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mbp::net {
namespace {

using core::PiecewiseLinearPricing;
using serving::CatalogRegistry;

int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& wire) {
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads the next response frame (blocking socket) and checks its id.
// `buf` persists across calls: pipelined responses often land in one
// recv, and the undecoded remainder must carry to the next call.
bool ReadResponse(int fd, std::vector<uint8_t>* buf, uint64_t want_id) {
  uint8_t chunk[4096];
  while (true) {
    Response response;
    const auto consumed =
        DecodeResponse(buf->data(), buf->size(), &response);
    if (!consumed.ok()) return false;
    if (*consumed > 0) {
      buf->erase(buf->begin(), buf->begin() + *consumed);
      return response.code == StatusCode::kOk &&
             response.request_id == want_id;
    }
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->insert(buf->end(), chunk, chunk + n);
  }
}

TEST(ZeroAllocSanityTest, CountingAllocatorObservesHeapUse) {
  const uint64_t before = t_thread_allocs;
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GT(t_thread_allocs, before)
      << "operator new replacement is not in effect; the steady-state "
         "assertion below would be vacuous";
}

TEST(ZeroAllocTest, SteadyStatePriceAtPathMakesNoServerHeapAllocations) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes own the allocator";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes own the allocator";
#endif
#endif
  CatalogRegistry registry;
  auto published = registry.Publish(
      "pricing", PiecewiseLinearPricing::Create(
                     {{1.0, 10.0}, {2.0, 18.0}, {4.0, 30.0}, {8.0, 40.0}})
                     .value());
  ASSERT_TRUE(published.ok());
  ServerOptions options;
  // One shard, one connection: every allocation NOT made by this thread
  // during the measured window is a server-side allocation.
  options.num_shards = 1;
  options.default_curve_id = "pricing";
  auto server = PriceServer::Start(&registry, options);
  ASSERT_TRUE(server.ok()) << server.status();

  const int fd = RawConnect((*server)->port());
  ASSERT_GE(fd, 0);

  // One pipelined burst shape reused for every roundtrip: two PRICE_AT
  // requests (different arg counts so both the 4-lane body and the tail
  // run), ids distinguish the frames.
  std::string wire;
  Request first;
  first.verb = Verb::kPriceAt;
  first.request_id = 1;
  first.args = {0.5, 1.5, 3.0, 5.0, 7.0};
  EncodeRequest(first, &wire);
  Request second;
  second.verb = Verb::kPriceAt;
  second.request_id = 2;
  second.args = {2.5};
  EncodeRequest(second, &wire);

  std::vector<uint8_t> buf;
  buf.reserve(4096);
  const auto roundtrip = [&]() {
    ASSERT_TRUE(SendAll(fd, wire));
    ASSERT_TRUE(ReadResponse(fd, &buf, 1));
    ASSERT_TRUE(ReadResponse(fd, &buf, 2));
  };

  // Warm-up: connection buffers, arenas, registry index, epoll wiring,
  // and every std::string capacity reach steady state.
  for (int i = 0; i < 512; ++i) roundtrip();

  const uint64_t total_before = g_total_allocs.load();
  const uint64_t mine_before = t_thread_allocs;
  constexpr int kMeasured = 2000;
  for (int i = 0; i < kMeasured; ++i) roundtrip();
  const uint64_t total_delta = g_total_allocs.load() - total_before;
  const uint64_t my_delta = t_thread_allocs - mine_before;

  EXPECT_EQ(total_delta - my_delta, 0u)
      << "server-side heap allocations during " << kMeasured
      << " steady-state roundtrips (total=" << total_delta
      << ", client-thread=" << my_delta << ")";

  close(fd);
  (*server)->Shutdown();
}

TEST(ZeroAllocTest, MultiCurveSteadyStateMakesNoServerHeapAllocations) {
  // The marketplace-scale claim (DESIGN.md §5g): heterogeneous traffic
  // across MANY distinct curves must stay allocation-free too — id
  // resolution is a lock-free intern probe, and the per-pass curve→batch
  // map lives in the shard's scratch arena.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes own the allocator";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes own the allocator";
#endif
#endif
  constexpr size_t kCurves = 64;
  CatalogRegistry registry;
  std::vector<std::string> ids;
  for (size_t i = 0; i < kCurves; ++i) {
    ids.push_back("listing-" + std::to_string(i));
    const double s = 1.0 + static_cast<double>(i) * 0.25;
    auto published = registry.Publish(
        ids.back(),
        PiecewiseLinearPricing::Create(
            {{1.0, 10.0 * s}, {2.0, 18.0 * s}, {4.0, 30.0 * s}})
            .value());
    ASSERT_TRUE(published.ok());
  }
  ServerOptions options;
  options.num_shards = 1;
  auto server = PriceServer::Start(&registry, options);
  ASSERT_TRUE(server.ok()) << server.status();

  const int fd = RawConnect((*server)->port());
  ASSERT_GE(fd, 0);

  // One pipelined burst per roundtrip touching 8 DIFFERENT curves, the
  // window sliding by 8 each roundtrip so all 64 distinct ids cycle
  // through the shard's batch map continuously.
  std::vector<std::string> wires(kCurves / 8);
  for (size_t w = 0; w < wires.size(); ++w) {
    for (uint64_t j = 0; j < 8; ++j) {
      Request request;
      request.verb = Verb::kPriceAt;
      request.request_id = j + 1;
      request.curve_id = ids[(w * 8 + j) % kCurves];
      request.args = {0.5, 1.5, 3.0};
      EncodeRequest(request, &wires[w]);
    }
  }
  std::vector<uint8_t> buf;
  buf.reserve(8192);
  size_t window = 0;
  const auto roundtrip = [&]() {
    ASSERT_TRUE(SendAll(fd, wires[window]));
    for (uint64_t j = 0; j < 8; ++j) {
      ASSERT_TRUE(ReadResponse(fd, &buf, j + 1));
    }
    window = (window + 1) % wires.size();
  };

  // Warm-up covers every window shape, so all 64 curve slots, every batch
  // map capacity step, and the response buffers reach steady state.
  for (int i = 0; i < 512; ++i) roundtrip();

  const uint64_t total_before = g_total_allocs.load();
  const uint64_t mine_before = t_thread_allocs;
  constexpr int kMeasured = 2000;
  for (int i = 0; i < kMeasured; ++i) roundtrip();
  const uint64_t total_delta = g_total_allocs.load() - total_before;
  const uint64_t my_delta = t_thread_allocs - mine_before;

  EXPECT_EQ(total_delta - my_delta, 0u)
      << "server-side heap allocations during " << kMeasured
      << " steady-state multi-curve roundtrips (total=" << total_delta
      << ", client-thread=" << my_delta << ") across " << kCurves
      << " distinct curves";

  close(fd);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace mbp::net
