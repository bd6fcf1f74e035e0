#include "net/shm_ring.h"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <vector>

#include "common/fault_injection.h"
#include "net/protocol.h"

namespace mbp::net {
namespace shm_internal {

namespace {

uint32_t* FutexWord(std::atomic<uint32_t>* word) {
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                "futex words must be bare 32-bit cells");
  return reinterpret_cast<uint32_t*>(word);
}

}  // namespace

void ShmFutexWait(std::atomic<uint32_t>* word, uint32_t expected,
                  int timeout_ms, Counter* syscalls) {
  if (MBP_FAULT_POINT("net.shm.futex.eintr")) return;  // spurious wakeup
  if (timeout_ms <= 0) return;
  timespec ts{};
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  if (syscalls != nullptr) syscalls->Increment();
  // Deliberately NOT FUTEX_PRIVATE: the word lives in a MAP_SHARED file
  // mapping and the waker may be another process.
  (void)syscall(SYS_futex, FutexWord(word), FUTEX_WAIT, expected, &ts,
                nullptr, 0);
}

bool ShmFutexWake(std::atomic<uint32_t>* word, Counter* syscalls) {
  if (MBP_FAULT_POINT("net.shm.wake.drop")) return false;  // lost wake
  if (syscalls != nullptr) syscalls->Increment();
  (void)syscall(SYS_futex, FutexWord(word), FUTEX_WAKE, INT_MAX, nullptr,
                nullptr, 0);
  return true;
}

size_t RingView::Write(const uint8_t* src, size_t n, Counter* syscalls,
                       Counter* wakes) {
  RingHeader* h = hdr;
  const uint64_t cap = mask + 1;
  const uint64_t tail = h->tail.load(std::memory_order_relaxed);
  const uint64_t space =
      cap - (tail - h->head.load(std::memory_order_acquire));
  if (space == 0) return 0;
  if (n > space) n = static_cast<size_t>(space);
  if (n > 1 && MBP_FAULT_POINT("net.shm.write.short")) n = 1;
  const uint64_t idx = tail & mask;
  const size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - idx));
  std::memcpy(data + idx, src, first);
  std::memcpy(data, src + first, n - first);
  h->tail.store(tail + n, std::memory_order_release);
  // Publish-then-check mirrors the consumer's declare-then-recheck: one
  // of the two sides always observes the other, so a parked consumer
  // cannot be missed. Sleeps are bounded anyway (lost-wake tolerance).
  h->data_seq.fetch_add(1, std::memory_order_seq_cst);
  if (h->consumer_waiting.load(std::memory_order_seq_cst) != 0) {
    if (ShmFutexWake(&h->data_seq, syscalls) && wakes != nullptr) {
      wakes->Increment();
    }
  }
  return n;
}

size_t RingView::Read(uint8_t* dst, size_t max, Counter* syscalls,
                      Counter* wakes) {
  RingHeader* h = hdr;
  const uint64_t cap = mask + 1;
  const uint64_t head = h->head.load(std::memory_order_relaxed);
  const uint64_t avail = h->tail.load(std::memory_order_acquire) - head;
  if (avail == 0) return 0;
  size_t n = static_cast<size_t>(std::min<uint64_t>(max, avail));
  if (n > 1 && MBP_FAULT_POINT("net.shm.read.short")) n = 1;
  const uint64_t idx = head & mask;
  const size_t first = static_cast<size_t>(std::min<uint64_t>(n, cap - idx));
  std::memcpy(dst, data + idx, first);
  std::memcpy(dst + first, data, n - first);
  h->head.store(head + n, std::memory_order_release);
  h->space_seq.fetch_add(1, std::memory_order_seq_cst);
  if (h->producer_waiting.load(std::memory_order_seq_cst) != 0) {
    if (ShmFutexWake(&h->space_seq, syscalls) && wakes != nullptr) {
      wakes->Increment();
    }
  }
  return n;
}

}  // namespace shm_internal

using shm_internal::RingHeader;
using shm_internal::RingView;
using shm_internal::SegHeader;
using shm_internal::SlotHeader;

namespace {

Status ShmErrnoError(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

size_t SegmentBytes(size_t slots, uint64_t ring_bytes) {
  const uint64_t stride = sizeof(SlotHeader) + 2 * ring_bytes;
  return sizeof(SegHeader) + slots * stride;
}

}  // namespace

StatusOr<std::unique_ptr<ShmSegment>> ShmSegment::Create(
    const ShmSegmentOptions& options) {
  if (options.path.empty()) {
    return InvalidArgumentError("shm segment path is empty");
  }
  if (options.slots == 0 || options.slots > 4096) {
    return InvalidArgumentError("shm slots must be in [1, 4096]");
  }
  const uint64_t ring_bytes =
      std::bit_ceil(std::max<uint64_t>(options.ring_bytes, 64 * 1024));
  const size_t total = SegmentBytes(options.slots, ring_bytes);
  const int fd = open(options.path.c_str(), O_RDWR | O_CREAT | O_TRUNC |
                      O_CLOEXEC, 0600);
  if (fd < 0) return ShmErrnoError("open(" + options.path + ")");
  if (ftruncate(fd, static_cast<off_t>(total)) < 0) {
    const Status status = ShmErrnoError("ftruncate(" + options.path + ")");
    close(fd);
    return status;
  }
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return ShmErrnoError("mmap(" + options.path + ")");
  // ftruncate gave zero pages, so every atomic starts at 0; fill in the
  // geometry, then flip `open` last — clients treat open==1 as "ready".
  auto* header = static_cast<SegHeader*>(map);
  header->magic = shm_internal::kShmMagic;
  header->version = shm_internal::kShmVersion;
  header->num_slots = static_cast<uint32_t>(options.slots);
  header->ring_bytes = ring_bytes;
  header->slot_stride = sizeof(SlotHeader) + 2 * ring_bytes;
  header->open.store(1, std::memory_order_release);
  auto segment = std::unique_ptr<ShmSegment>(new ShmSegment());
  segment->path_ = options.path;
  segment->owner_ = true;
  segment->map_ = map;
  segment->map_bytes_ = total;
  return segment;
}

StatusOr<std::unique_ptr<ShmSegment>> ShmSegment::Open(
    const std::string& path) {
  const int fd = open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return ShmErrnoError("open(" + path + ")");
  struct stat st{};
  if (fstat(fd, &st) < 0 ||
      st.st_size < static_cast<off_t>(sizeof(SegHeader))) {
    close(fd);
    return UnavailableError("shm segment " + path + " is not initialized");
  }
  void* map = mmap(nullptr, static_cast<size_t>(st.st_size),
                   PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (map == MAP_FAILED) return ShmErrnoError("mmap(" + path + ")");
  auto* header = static_cast<SegHeader*>(map);
  if (header->magic != shm_internal::kShmMagic ||
      header->version != shm_internal::kShmVersion ||
      header->open.load(std::memory_order_acquire) == 0) {
    const size_t bytes = static_cast<size_t>(st.st_size);
    munmap(map, bytes);
    return UnavailableError("shm segment " + path +
                            " is not an open MBPSHM1 segment");
  }
  const size_t expect = SegmentBytes(header->num_slots, header->ring_bytes);
  if (static_cast<size_t>(st.st_size) < expect) {
    munmap(map, static_cast<size_t>(st.st_size));
    return UnavailableError("shm segment " + path + " is truncated");
  }
  auto segment = std::unique_ptr<ShmSegment>(new ShmSegment());
  segment->path_ = path;
  segment->owner_ = false;
  segment->map_ = map;
  segment->map_bytes_ = static_cast<size_t>(st.st_size);
  return segment;
}

ShmSegment::~ShmSegment() {
  if (map_ != nullptr) munmap(map_, map_bytes_);
  if (owner_) (void)unlink(path_.c_str());
}

SegHeader* ShmSegment::header() const {
  return static_cast<SegHeader*>(map_);
}

size_t ShmSegment::num_slots() const { return header()->num_slots; }

uint64_t ShmSegment::ring_bytes() const { return header()->ring_bytes; }

bool ShmSegment::is_open() const {
  return header()->open.load(std::memory_order_acquire) != 0;
}

SlotHeader* ShmSegment::slot(size_t index) const {
  auto* base = static_cast<uint8_t*>(map_) + sizeof(SegHeader) +
               index * header()->slot_stride;
  return reinterpret_cast<SlotHeader*>(base);
}

RingView ShmSegment::c2s(size_t index) const {
  SlotHeader* s = slot(index);
  RingView view;
  view.hdr = &s->c2s;
  view.data = reinterpret_cast<uint8_t*>(s + 1);
  view.mask = header()->ring_bytes - 1;
  return view;
}

RingView ShmSegment::s2c(size_t index) const {
  SlotHeader* s = slot(index);
  RingView view;
  view.hdr = &s->s2c;
  view.data = reinterpret_cast<uint8_t*>(s + 1) + header()->ring_bytes;
  view.mask = header()->ring_bytes - 1;
  return view;
}

void ShmSegment::RingDoorbell(Counter* syscalls, Counter* wakes) const {
  SegHeader* h = header();
  h->doorbell_seq.fetch_add(1, std::memory_order_seq_cst);
  if (h->server_waiting.load(std::memory_order_seq_cst) != 0) {
    if (shm_internal::ShmFutexWake(&h->doorbell_seq, syscalls) &&
        wakes != nullptr) {
      wakes->Increment();
    }
  }
}

void ShmSegment::BeginShutdown() {
  SegHeader* h = header();
  h->open.store(0, std::memory_order_release);
  // Wake every parked client (response futexes, space futexes) so it
  // observes the closed segment instead of sleeping out its timeout.
  for (size_t i = 0; i < num_slots(); ++i) {
    SlotHeader* s = slot(i);
    s->s2c.data_seq.fetch_add(1, std::memory_order_seq_cst);
    shm_internal::ShmFutexWake(&s->s2c.data_seq, nullptr);
    s->c2s.space_seq.fetch_add(1, std::memory_order_seq_cst);
    shm_internal::ShmFutexWake(&s->c2s.space_seq, nullptr);
  }
  RingDoorbell(nullptr, nullptr);
}

namespace {

using Clock = std::chrono::steady_clock;

// Refused and server-closed slots are held out of service briefly
// before being reset to FREE, giving the (trusted, co-located) client
// time to observe the terminal state; see the file comment in
// shm_ring.h for why immediate recycling would race a client mid-copy.
constexpr auto kSlotReclaimGrace = std::chrono::milliseconds(250);

// Scan-side clamp per connection per pass, mirroring the TCP backends'
// kMaxReadBytes: one firehose client cannot monopolize a pass.
constexpr size_t kShmMaxReadBytes = kMaxFrameBytes;

struct ShmConn : TransportConn {
  uint32_t slot = 0;
  bool adopted = false;
  bool closed = false;  // OnClose seen; no more events
  bool eof_emitted = false;
  bool want_read = true;
  bool want_write = false;
};

class ShmShardTransport final : public ShardTransport {
 public:
  ShmShardTransport(ShmSegment* segment, size_t shard_index,
                    size_t num_shards, TransportCounters* counters)
      : segment_(segment),
        shard_index_(shard_index),
        num_shards_(num_shards),
        counters_(counters),
        conns_(segment->num_slots(), nullptr) {}

  ~ShmShardTransport() override {
    for (ShmConn* conn : conns_) delete conn;
  }

  void Wait(std::vector<TransportEvent>* events, Arena* scratch,
            int timeout_ms) override {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    ReclaimExpired();
    const size_t before = events->size();
    Scan(events, scratch);
    if (events->size() > before) return;
    // Spin phase: a fresh request from a co-located client is typically
    // microseconds away; a few rescans win before any futex is worth it.
    for (int spin = 0; spin < 64; ++spin) {
      for (int i = 0; i < 32; ++i) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
      Scan(events, scratch);
      if (events->size() > before) return;
    }
    if (Clock::now() >= deadline) return;
    SegHeader* header = segment_->header();
    const uint32_t seen =
        header->doorbell_seq.load(std::memory_order_seq_cst);
    header->server_waiting.fetch_add(1, std::memory_order_seq_cst);
    // Declare-then-recheck: a doorbell rung between the scan above and
    // the wait below either flips doorbell_seq (the wait returns
    // immediately) or sees server_waiting and wakes us.
    Scan(events, scratch);
    if (events->size() == before) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now());
      const int wait_ms = static_cast<int>(
          std::clamp<int64_t>(remaining.count(), 0, 100));
      shm_internal::ShmFutexWait(&header->doorbell_seq, seen, wait_ms,
                                 &counters_->transport_syscalls);
    }
    header->server_waiting.fetch_sub(1, std::memory_order_seq_cst);
    if (events->size() == before) Scan(events, scratch);
  }

  bool Adopt(TransportConn* tconn) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    conn->adopted = true;
    segment_->slot(conn->slot)->state.store(shm_internal::kSlotActive,
                                            std::memory_order_release);
    return true;
  }

  void Refuse(TransportConn* tconn) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    segment_->slot(conn->slot)->state.store(shm_internal::kSlotRefused,
                                            std::memory_order_release);
    reclaim_.push_back({conn->slot, Clock::now() + kSlotReclaimGrace});
    conns_[conn->slot] = nullptr;
    delete conn;
  }

  ssize_t Writev(TransportConn* tconn, const iovec* iov,
                 int iov_count) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    RingView ring = segment_->s2c(conn->slot);
    size_t accepted = 0;
    for (int i = 0; i < iov_count; ++i) {
      const auto* base = static_cast<const uint8_t*>(iov[i].iov_base);
      size_t off = 0;
      while (off < iov[i].iov_len) {
        const size_t n =
            ring.Write(base + off, iov[i].iov_len - off,
                       &counters_->transport_syscalls,
                       &counters_->shm_doorbell_wakes);
        if (n == 0) {  // ring full
          if (accepted > 0) return static_cast<ssize_t>(accepted);
          errno = EAGAIN;
          return -1;
        }
        off += n;
        accepted += n;
      }
    }
    return static_cast<ssize_t>(accepted);
  }

  void UpdateInterest(TransportConn* tconn, bool want_read,
                      bool want_write) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    conn->want_read = want_read;
    conn->want_write = want_write;
  }

  void OnClose(TransportConn* tconn) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    conn->closed = true;
    SlotHeader* slot = segment_->slot(conn->slot);
    uint32_t state = slot->state.load(std::memory_order_acquire);
    if (state == shm_internal::kSlotActive) {
      slot->state.store(shm_internal::kSlotServerClosed,
                        std::memory_order_release);
      // A client parked waiting for a response must observe the close.
      slot->s2c.data_seq.fetch_add(1, std::memory_order_seq_cst);
      shm_internal::ShmFutexWake(&slot->s2c.data_seq,
                                 &counters_->transport_syscalls);
      slot->c2s.space_seq.fetch_add(1, std::memory_order_seq_cst);
      shm_internal::ShmFutexWake(&slot->c2s.space_seq,
                                 &counters_->transport_syscalls);
    }
  }

  void Destroy(TransportConn* tconn) override {
    auto* conn = static_cast<ShmConn*>(tconn);
    SlotHeader* slot = segment_->slot(conn->slot);
    if (slot->state.load(std::memory_order_acquire) ==
        shm_internal::kSlotClientClosed) {
      // The client promised no further slot access: recycle now.
      ResetSlot(conn->slot);
    } else {
      reclaim_.push_back({conn->slot, Clock::now() + kSlotReclaimGrace});
    }
    conns_[conn->slot] = nullptr;
    delete conn;
  }

  void StopAccepting() override { accepting_ = false; }

  void Wake() override {
    segment_->RingDoorbell(&counters_->transport_syscalls, nullptr);
  }

 private:
  struct PendingReclaim {
    uint32_t slot;
    Clock::time_point when;
  };

  bool Owned(size_t slot_index) const {
    return slot_index % num_shards_ == shard_index_;
  }

  void ResetSlot(uint32_t slot_index) {
    SlotHeader* slot = segment_->slot(slot_index);
    slot->c2s.head.store(0, std::memory_order_relaxed);
    slot->c2s.tail.store(0, std::memory_order_relaxed);
    slot->c2s.data_seq.store(0, std::memory_order_relaxed);
    slot->c2s.consumer_waiting.store(0, std::memory_order_relaxed);
    slot->c2s.space_seq.store(0, std::memory_order_relaxed);
    slot->c2s.producer_waiting.store(0, std::memory_order_relaxed);
    slot->s2c.head.store(0, std::memory_order_relaxed);
    slot->s2c.tail.store(0, std::memory_order_relaxed);
    slot->s2c.data_seq.store(0, std::memory_order_relaxed);
    slot->s2c.consumer_waiting.store(0, std::memory_order_relaxed);
    slot->s2c.space_seq.store(0, std::memory_order_relaxed);
    slot->s2c.producer_waiting.store(0, std::memory_order_relaxed);
    slot->token.store(0, std::memory_order_relaxed);
    slot->state.store(shm_internal::kSlotFree, std::memory_order_release);
  }

  void ReclaimExpired() {
    const auto now = Clock::now();
    for (size_t i = 0; i < reclaim_.size();) {
      if (reclaim_[i].when <= now) {
        // Reset only if the slot still sits in a terminal state: the
        // orphan-ClientClosed fast path in Scan() may have recycled it
        // already and a new client may have claimed it since.
        SlotHeader* slot = segment_->slot(reclaim_[i].slot);
        const uint32_t state = slot->state.load(std::memory_order_acquire);
        if (state == shm_internal::kSlotRefused ||
            state == shm_internal::kSlotClientClosed ||
            state == shm_internal::kSlotServerClosed) {
          ResetSlot(reclaim_[i].slot);
        }
        reclaim_[i] = reclaim_.back();
        reclaim_.pop_back();
      } else {
        ++i;
      }
    }
  }

  void Scan(std::vector<TransportEvent>* events, Arena* scratch) {
    const size_t slots = segment_->num_slots();
    for (size_t i = 0; i < slots; ++i) {
      if (!Owned(i)) continue;
      SlotHeader* slot = segment_->slot(i);
      const uint32_t state = slot->state.load(std::memory_order_acquire);
      ShmConn* conn = conns_[i];
      if (conn == nullptr) {
        if (state == shm_internal::kSlotHello && accepting_) {
          conn = new ShmConn();
          conn->slot = static_cast<uint32_t>(i);
          conns_[i] = conn;
          events->push_back(TransportEvent{TransportEvent::Kind::kAccept,
                                           conn, nullptr, 0});
        } else if (state == shm_internal::kSlotClientClosed) {
          // Claimant gave up (connect timeout) before adoption.
          ResetSlot(static_cast<uint32_t>(i));
        }
        continue;
      }
      if (!conn->adopted || conn->closed) continue;
      if (state == shm_internal::kSlotClientClosed) {
        if (!conn->eof_emitted) {
          conn->eof_emitted = true;
          events->push_back(
              TransportEvent{TransportEvent::Kind::kEof, conn, nullptr, 0});
        }
        continue;
      }
      if (conn->want_read) {
        RingView ring = segment_->c2s(i);
        const uint64_t avail = ring.ReadAvailable();
        if (avail > 0) {
          const size_t want =
              static_cast<size_t>(std::min<uint64_t>(avail, kShmMaxReadBytes));
          uint8_t* buf = scratch->AllocateArray<uint8_t>(want);
          const size_t got =
              ring.Read(buf, want, &counters_->transport_syscalls,
                        &counters_->shm_doorbell_wakes);
          if (got > 0) {
            events->push_back(TransportEvent{TransportEvent::Kind::kData,
                                             conn, buf, got});
          }
        }
      }
      if (conn->want_write && segment_->s2c(i).WriteSpace() > 0) {
        events->push_back(TransportEvent{TransportEvent::Kind::kWritable,
                                         conn, nullptr, 0});
      }
    }
  }

  ShmSegment* segment_;
  size_t shard_index_;
  size_t num_shards_;
  TransportCounters* counters_;
  bool accepting_ = true;
  std::vector<ShmConn*> conns_;  // slot index -> live conn (or null)
  std::vector<PendingReclaim> reclaim_;
};

}  // namespace

std::unique_ptr<ShardTransport> MakeShmShardTransport(
    ShmSegment* segment, size_t shard_index, size_t num_shards,
    TransportCounters* counters, Status* status) {
  *status = Status::OK();
  return std::make_unique<ShmShardTransport>(segment, shard_index,
                                             num_shards, counters);
}

}  // namespace mbp::net
