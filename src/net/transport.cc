#include "net/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/fault_syscalls.h"
#include "net/protocol.h"

namespace mbp::net {

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kEpoll:
      return "epoll";
    case TransportKind::kShm:
      return "shm";
  }
  return "unknown";
}

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "epoll") {
    *out = TransportKind::kEpoll;
  } else if (name == "shm") {
    *out = TransportKind::kShm;
  } else {
    return false;
  }
  return true;
}

namespace {

// Floor/ceiling on the single sized recv each readiness event issues:
// at least one page-multiple chunk even when FIONREAD reports nothing
// (spurious wakeup), at most one max frame's worth so a firehose peer
// cannot make one connection monopolize the pass or balloon the arena.
constexpr size_t kMinReadBytes = 64 * 1024;
constexpr size_t kMaxReadBytes = kMaxFrameBytes;

struct EpollConn : TransportConn {
  int fd = -1;
  uint32_t armed = EPOLLIN;  // events currently registered with epoll
};

// The extracted epoll backend: readiness from one epoll instance per
// shard, the listening socket shared across shards with EPOLLEXCLUSIVE,
// one FIONREAD-sized recv per readiness event, one scatter-gather
// sendmsg per flush. This is the pre-seam PriceServer data path moved
// verbatim behind the ShardTransport interface; its syscall sequence is
// unchanged.
class EpollShardTransport final : public ShardTransport {
 public:
  EpollShardTransport(int listen_fd, TransportCounters* counters)
      : listen_fd_(listen_fd), counters_(counters) {}

  ~EpollShardTransport() override {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
  }

  Status Init() {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return InternalError(std::string("epoll_create1: ") +
                           std::strerror(errno));
    }
    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      return InternalError(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.ptr = &wake_tag_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake) < 0) {
      return InternalError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
    }
    // EPOLLEXCLUSIVE: each shard registers the one listening socket and
    // the kernel wakes a single shard per pending accept, spreading
    // connections without a dedicated acceptor thread.
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.ptr = &listen_tag_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return InternalError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
    }
    return Status::OK();
  }

  void Wait(std::vector<TransportEvent>* events, Arena* scratch,
            int timeout_ms) override {
    constexpr int kMaxEvents = 64;
    epoll_event ready[kMaxEvents];
    counters_->transport_syscalls.Increment();
    const int n =
        internal::FaultEpollWait(epoll_fd_, ready, kMaxEvents, timeout_ms);
    if (n < 0) return;  // EINTR: the caller's loop just comes back around
    for (int i = 0; i < n; ++i) {
      void* tag = ready[i].data.ptr;
      if (tag == &listen_tag_) {
        AcceptReady(events);
        continue;
      }
      if (tag == &wake_tag_) {
        uint64_t drained = 0;
        counters_->transport_syscalls.Increment();
        (void)!read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto* conn = static_cast<EpollConn*>(tag);
      if (ready[i].events & (EPOLLERR | EPOLLHUP)) {
        events->push_back(
            TransportEvent{TransportEvent::Kind::kError, conn, nullptr, 0});
        continue;
      }
      if (ready[i].events & EPOLLIN) ReadReady(conn, events, scratch);
      if (ready[i].events & EPOLLOUT) {
        events->push_back(
            TransportEvent{TransportEvent::Kind::kWritable, conn, nullptr, 0});
      }
    }
  }

  bool Adopt(TransportConn* tconn) override {
    auto* conn = static_cast<EpollConn*>(tconn);
    const int one = 1;
    (void)setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    counters_->transport_syscalls.Increment();
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
      close(conn->fd);
      delete conn;
      return false;
    }
    conn->armed = EPOLLIN;
    return true;
  }

  void Refuse(TransportConn* tconn) override {
    auto* conn = static_cast<EpollConn*>(tconn);
    close(conn->fd);
    delete conn;
  }

  ssize_t Writev(TransportConn* tconn, const iovec* iov,
                 int iov_count) override {
    counters_->transport_syscalls.Increment();
    return internal::FaultWritev(static_cast<EpollConn*>(tconn)->fd, iov,
                                 iov_count);
  }

  void UpdateInterest(TransportConn* tconn, bool want_read,
                      bool want_write) override {
    auto* conn = static_cast<EpollConn*>(tconn);
    const uint32_t want =
        (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    if (want == conn->armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = conn;
    counters_->transport_syscalls.Increment();
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->armed = want;
    }
  }

  void OnClose(TransportConn* tconn) override {
    counters_->transport_syscalls.Increment();
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL,
                    static_cast<EpollConn*>(tconn)->fd, nullptr);
  }

  // The fd is closed here, NOT in OnClose: a dead connection stays in
  // the shard's table until the end-of-pass sweep, and closing the fd
  // early would free its number for accept4 to hand out again within
  // the same pass — the new connection would then collide with the
  // dying one's kernel-side state.
  void Destroy(TransportConn* tconn) override {
    auto* conn = static_cast<EpollConn*>(tconn);
    if (conn->fd >= 0) close(conn->fd);
    delete conn;
  }

  void StopAccepting() override {
    if (accepting_) {
      (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accepting_ = false;
    }
  }

  void Wake() override {
    const uint64_t one = 1;
    (void)!write(wake_fd_, &one, sizeof(one));
  }

 private:
  void AcceptReady(std::vector<TransportEvent>* events) {
    while (true) {
      counters_->transport_syscalls.Increment();
      const int fd = internal::FaultAccept4(listen_fd_, nullptr, nullptr,
                                            SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (no more pending) or a transient accept error
      }
      auto* conn = new EpollConn();
      conn->fd = fd;
      events->push_back(
          TransportEvent{TransportEvent::Kind::kAccept, conn, nullptr, 0});
    }
  }

  void ReadReady(EpollConn* conn, std::vector<TransportEvent>* events,
                 Arena* scratch) {
    // One sized recv per readiness event: FIONREAD tells us how much the
    // kernel has buffered, and a single recv drains it into pass-scoped
    // arena memory (clamped to [kMinReadBytes, kMaxReadBytes]; a clamped
    // remainder re-fires the level-triggered epoll next pass). This path
    // never issues a recv it expects to fail with EAGAIN.
    int queued = 0;
    counters_->transport_syscalls.Increment();
    if (ioctl(conn->fd, FIONREAD, &queued) < 0 || queued < 0) queued = 0;
    const size_t want = std::clamp(static_cast<size_t>(queued), kMinReadBytes,
                                   kMaxReadBytes);
    uint8_t* buf = scratch->AllocateArray<uint8_t>(want);
    ssize_t n;
    do {
      counters_->transport_syscalls.Increment();
      n = internal::FaultRecv(conn->fd, buf, want);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {  // orderly peer close
      events->push_back(
          TransportEvent{TransportEvent::Kind::kEof, conn, nullptr, 0});
      return;
    }
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        events->push_back(
            TransportEvent{TransportEvent::Kind::kError, conn, nullptr, 0});
      }
      return;
    }
    events->push_back(TransportEvent{TransportEvent::Kind::kData, conn, buf,
                                     static_cast<size_t>(n)});
  }

  int listen_fd_ = -1;
  TransportCounters* counters_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool accepting_ = true;
  // Address-identity tags for the two non-connection registrations.
  char listen_tag_ = 0;
  char wake_tag_ = 0;
};

}  // namespace

std::unique_ptr<ShardTransport> MakeEpollShardTransport(
    int listen_fd, TransportCounters* counters, Status* status) {
  auto transport =
      std::make_unique<EpollShardTransport>(listen_fd, counters);
  const Status init = transport->Init();
  if (!init.ok()) {
    *status = init;
    return nullptr;
  }
  *status = Status::OK();
  return transport;
}

}  // namespace mbp::net
