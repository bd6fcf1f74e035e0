#ifndef MBP_NET_TRANSPORT_H_
#define MBP_NET_TRANSPORT_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/status.h"

// The transport seam under PriceServer's shard loop (DESIGN.md §5h).
//
// A shard loop is a pure pass machine: wait for I/O, decode, batch,
// encode, flush, reset. Everything kernel-facing in that cycle — how
// readiness is learned, how bytes arrive, how flushed frames leave —
// lives behind ShardTransport, so the same loop runs over epoll
// (readiness + one sized recv per event) for TCP clients, or over a
// shared-memory ring (no sockets at all; futex doorbells) for co-located
// ones.
//
// Contract highlights:
//  - One transport per shard thread. Every method except Wake() is
//    called only from that thread; Wake() may be called from any thread
//    and must interrupt a blocked Wait().
//  - Wait() appends events. Payload bytes delivered via kData live until
//    the end of the current pass (they are staged in `scratch`).
//  - kAccept delivers a fresh TransportConn the server must either
//    Adopt() (start I/O) or Refuse() (destroy unserved) before the pass
//    ends. For every other event, `conn->user` is whatever the server
//    stored there at adoption time.
//  - Writev() has writev semantics: returns bytes accepted (once
//    accepted they WILL be delivered in order or the connection will
//    error), or -1 with errno == EAGAIN when the peer/queue can take
//    nothing now. Accepted-byte counts are what the server's
//    fallback-queue bookkeeping runs on, exactly as with raw writev.
//  - UpdateInterest() arms level-triggered intent: want_read gates kData
//    production (the read-pause backpressure rung), want_write asks for
//    kWritable once the peer can take more bytes.
//  - OnClose() detaches a connection from event production (the server
//    marks it dead and stops using it); Destroy() — always after
//    OnClose(), at the end-of-pass sweep — releases the fd/slot itself.
//    The split preserves the fd-reuse invariant: the descriptor number
//    stays allocated until the dead map entry is gone, so a same-pass
//    accept can never collide with a dying connection.

namespace mbp::net {

// The two backends by name, for bench and test command lines. TCP shards
// always run epoll; shm serves next to them (ServerOptions::shm_path).
enum class TransportKind : uint8_t { kEpoll = 0, kShm = 1 };

const char* TransportKindName(TransportKind kind);
bool ParseTransportKind(std::string_view name, TransportKind* out);

// Opaque per-connection transport handle. The transport allocates one
// per connection (delivered by kAccept) and owns its lifetime through
// Refuse()/Destroy(); the server stores its Connection* in `user`.
struct TransportConn {
  void* user = nullptr;
};

struct TransportEvent {
  enum class Kind : uint8_t {
    kAccept,    // new connection: Adopt() or Refuse() `conn`
    kData,      // `size` bytes at `data`, valid until pass end
    kEof,       // orderly peer close
    kError,     // transport-level failure; close the connection
    kWritable,  // a previously-full peer can take bytes again
  };
  Kind kind;
  TransportConn* conn = nullptr;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  // One readiness wait, at most `timeout_ms` blocked. Appends
  // any number of events (possibly zero: timeout, EINTR, wake).
  virtual void Wait(std::vector<TransportEvent>* events, Arena* scratch,
                    int timeout_ms) = 0;

  // Accept resolution. Adopt starts I/O (returns false and destroys the
  // handle if registration fails); Refuse destroys the handle unserved.
  virtual bool Adopt(TransportConn* conn) = 0;
  virtual void Refuse(TransportConn* conn) = 0;

  virtual ssize_t Writev(TransportConn* conn, const iovec* iov,
                         int iov_count) = 0;

  virtual void UpdateInterest(TransportConn* conn, bool want_read,
                              bool want_write) = 0;

  virtual void OnClose(TransportConn* conn) = 0;
  virtual void Destroy(TransportConn* conn) = 0;

  // Entering drain: stop producing kAccept events (and release any
  // accept machinery), leaving established connections serviceable.
  virtual void StopAccepting() = 0;

  // Thread-safe: interrupt a blocked Wait().
  virtual void Wake() = 0;
};

// Factories. On failure they return nullptr and set *status. `counters`
// must outlive the transport (the server's metrics block).
std::unique_ptr<ShardTransport> MakeEpollShardTransport(
    int listen_fd, TransportCounters* counters, Status* status);

}  // namespace mbp::net

#endif  // MBP_NET_TRANSPORT_H_
